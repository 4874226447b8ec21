"""Deterministic measure-level propagation under asynchronous schedules.

Instead of sampling states, this module pushes float64 probability vectors
through a schedule: version ``v`` of the shared state has a distribution
``mu_v``, and an event that reads version ``j`` and writes version ``v``
sets ``mu_v = mu_j P``.  On the resulting trace it computes the windowed
statistics that drive the convergence argument for bounded-staleness
execution:

* ``d[v]``: TV distance of ``mu_v`` to the stationary distribution,
* ``d_star[v]``: max of ``d`` over the trailing window of ``b`` versions,
* ``p[v]``: how many operator applications lie in ``mu_v``'s lineage,
* ``p_star[v]``: min of ``p`` over the same trailing window,

and checks, rather than assumes, that ``d_star`` is nonincreasing once the
window is warm, that ``p_star`` grows at least linearly, and that ``d``
collapses to zero.  Versions are indexed 0..N with version 0 the initial
distribution, so arrays here are offset by one from event sequence numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InconclusiveCounterexampleError, ScheduleError, ValidationError
from .measures import (
    FiniteDistribution,
    StochasticMatrix,
    _check_probs,
    half_l1,
    random_distribution,
    random_stochastic_matrix,
    stationary_distribution,
    tv_distance,
)
from .schedules import Event, Schedule, random_schedule, validate

MONOTONE_TOL = 1e-12
CONVERGENCE_THRESHOLD = 1e-8
FROZEN_STALENESS_BOUND = 2  # declared bound of the frozen-worker schedule, broken by construction
CAMPAIGN_UNIFORM_MIX = (0.55, 0.9)  # range of the campaign kernels' uniform-blend weight
SETTLE_STRIDE = 8  # the ladder looks for a repeated row at every 8th depth


@dataclass(frozen=True, eq=False)
class MeasureTrace:
    """Everything the convergence argument needs, per state version.

    Version ``v`` has the law ``ladder[p[v]]``: row ``k`` of the read-only
    float64 ``ladder`` is ``mu0 P^k``.  ``d`` and ``d_star`` are float64
    arrays, ``p`` and ``p_star`` integer ones.
    """

    schedule: Schedule
    ladder: np.ndarray
    d: np.ndarray
    d_star: np.ndarray
    p: np.ndarray
    p_star: np.ndarray


def _window_stats(values: np.ndarray, b: int, reduce) -> np.ndarray:
    # Reduce (np.maximum or np.minimum) each trailing window of b values, the
    # first b-1 windows truncated at 0.  Spans double from 1 while they fit
    # in the window; two overlapping spans of the largest then cover it.
    n = len(values)
    b = min(b, n)
    out = values.copy()
    span = 1
    while 2 * span <= b:
        out[span:] = reduce(out[span:], out[: n - span])
        span *= 2
    shift = b - span
    out[shift:] = reduce(out[shift:], out[: n - shift])
    return out


def _ladder(
    m: StochasticMatrix, mu0: FiniteDistribution, pi: FiniteDistribution, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """``mu0 P^k`` and its TV distance to ``pi`` for k = 0..depth.

    Each row is the product :func:`apply_operator` takes.  Once a row
    repeats the one before it bit for bit, the product has reached its
    float64 fixed point, so every later row is a copy of it.  Every row is
    checked as a distribution, and the rows are returned read-only.
    """
    rows = np.empty((depth + 1, m.space.size))
    rows[0] = mu0.probs
    for k in range(1, depth + 1):
        rows[k] = rows[k - 1] @ m.rows
        # bytes, not ==, which takes -0.0 for 0.0
        if k % SETTLE_STRIDE == 0 and rows[k].tobytes() == rows[k - 1].tobytes():
            rows[k + 1 :] = rows[k]
            break
    _check_probs(rows)
    rows.flags.writeable = False
    return rows, half_l1(rows, pi.probs)


def _propagate_events(
    m: StochasticMatrix, mu0: FiniteDistribution, schedule: Schedule, pi: FiniteDistribution
) -> MeasureTrace:
    # Every event applies the same kernel, so mu_v = mu0 P^{p_v}: only the
    # depths are per event, distributions and distances are per depth.
    p = [0]
    for ev in schedule.events:
        p.append(p[ev.read_from + 1] + 1)  # read_from -1 is version 0
    ladder, dist = _ladder(m, mu0, pi, max(p))
    depth = np.array(p)
    d = dist[depth]
    b = schedule.staleness_bound
    return MeasureTrace(
        schedule, ladder, d, _window_stats(d, b, np.maximum), depth, _window_stats(depth, b, np.minimum)
    )


def propagate(m: StochasticMatrix, mu0: FiniteDistribution, schedule: Schedule) -> MeasureTrace:
    """Propagate ``mu0`` through a valid schedule under kernel ``m``."""
    violation = validate(schedule)
    if violation is not None:
        raise ScheduleError(str(violation))
    if m.space != mu0.space:
        raise DimensionError("kernel and initial distribution live on different spaces")
    return _propagate_events(m, mu0, schedule, stationary_distribution(m))


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking the bounded-staleness convergence argument."""

    passed: bool
    failures: tuple
    depth_floor: int
    d_final: float
    p_star_final: int


def _offending(mask: np.ndarray, offset: int) -> list:
    return (np.flatnonzero(mask) + offset).tolist()


def verify_theorem4(trace: MeasureTrace, *, threshold: float = CONVERGENCE_THRESHOLD) -> TheoremReport:
    """Check every numerical step of the convergence argument on a trace.

    ``d_star`` may rise by at most ``MONOTONE_TOL``.  Failures signal an
    implementation bug for valid inputs, never a theory bug; each names the
    offending version index.  They are listed by kind, each kind in index
    order: ``d_star`` rises once the window is warm, ``p_star`` drops, the
    linear depth floor, ``d_star`` below ``d``, and the final distance.
    """
    b = trace.schedule.staleness_bound
    n = len(trace.schedule.events)
    d, d_star, p_star = trace.d, trace.d_star, trace.p_star
    depth_floor = (n - b) // b - 1
    p_star_final = int(p_star[n])

    rises = _offending(d_star[b + 2 :] > d_star[b + 1 : -1] + MONOTONE_TOL, b + 2)
    failures = [f"d_star increases at k={k}" for k in rises]
    failures += [f"p_star decreases at k={k}" for k in _offending(p_star[1:] < p_star[:-1], 1)]
    if p_star_final < depth_floor:
        failures.append(f"p_star[{n}]={p_star_final} below linear floor {depth_floor}")
    failures += [f"d_star below d at k={k}" for k in _offending(d_star < d, 0)]
    if not d[n] <= threshold:
        failures.append(f"d at final version {n} is {float(d[n]):.3e} > {float(threshold):.1e}")

    return TheoremReport(
        passed=not failures,
        failures=tuple(failures),
        depth_floor=depth_floor,
        d_final=float(d[n]),
        p_star_final=p_star_final,
    )


def frozen_worker_schedule(length: int) -> Schedule:
    """Two workers, one forever re-serving its read of the initial state.

    Worker 0 (even seqs) always reads version -1; worker 1 (odd seqs)
    advances its own lineage.  The staleness bound is broken by
    construction, so this schedule does not validate.
    """
    events = []
    for seq in range(length):
        if seq % 2 == 0:
            events.append(Event(seq, 0, -1, "write"))
        else:
            events.append(Event(seq, 1, seq - 2, "write"))
    return Schedule(tuple(events), 2, FROZEN_STALENESS_BOUND)


def propagate_unbounded_counterexample(
    m: StochasticMatrix, mu0: FiniteDistribution, length: int
) -> MeasureTrace:
    """Show the liveness hypothesis is load-bearing: without it, no convergence.

    Returns the trace for the frozen-worker schedule, whose odd versions all
    equal the once-stepped initial distribution and therefore keep their
    distance to stationarity forever.
    """
    if length < 10:
        raise ValidationError("counterexample needs length >= 10")
    pi = stationary_distribution(m)
    if tv_distance(mu0, pi) == 0:
        raise InconclusiveCounterexampleError(
            "mu0 equals pi, so stale rewrites are indistinguishable from progress"
        )
    schedule = frozen_worker_schedule(length)
    return _propagate_events(m, mu0, schedule, pi)


def measure_trace_csv(trace: MeasureTrace):
    """The ``metrics.csv`` lines of a trace: a header, then one row per event,
    its schedule fields and the statistics of the version it writes."""
    yield "seq,worker,read_from,d_k,d_star_k,p_k,p_star_k"
    columns = (trace.d[1:].tolist(), trace.d_star[1:].tolist(), trace.p[1:].tolist(), trace.p_star[1:].tolist())
    for (seq, worker, read_from, _), d, d_star, p, p_star in zip(trace.schedule.events, *columns):
        yield f"{seq},{worker},{read_from},{d!r},{d_star!r},{p},{p_star}"


@dataclass(frozen=True)
class Theorem4CampaignReport:
    instances: int
    violations: int
    worst_final_d: float
    min_depth_margin: int


def run_theorem4_campaign(
    n_instances: int,
    seed: int,
    *,
    n_states_max: int = 6,
    m_max: int = 5,
    b_max: int = 10,
    length: int = 300,
) -> Theorem4CampaignReport:
    """Randomized verification campaign over kernels, inits, and schedules.

    Kernels are Dirichlet rows blended with the uniform kernel at a mixing
    weight drawn uniformly from ``CAMPAIGN_UNIFORM_MIX``; the blend bounds
    the per-application TV contraction coefficient away from 1 so that
    every trace reaches ``CONVERGENCE_THRESHOLD``, the threshold each is
    checked against, at the worst legal operator depth.  The sizes are
    checked first, so that every drawn schedule is feasible and long enough:
    a blended kernel contracts TV by at most ``1 - CAMPAIGN_UNIFORM_MIX[0]``
    per application, so ``depth`` applications reach the threshold, and a
    horizon of ``(depth + 2) * b_max`` gives every schedule a depth floor
    ``(horizon - b) // b - 1`` of at least ``depth``.
    """
    depth = math.ceil(math.log(CONVERGENCE_THRESHOLD) / math.log(1.0 - CAMPAIGN_UNIFORM_MIX[0]))
    shortest = (depth + 2) * b_max if isinstance(b_max, int) else None  # a bad b_max fails first
    for field, value, least, why in (
        ("params.instances", n_instances, 1, ""),
        ("params.n_states_max", n_states_max, 2, ""),
        ("params.m_max", m_max, 1, ""),
        ("params.b_max", b_max, m_max, " (params.m_max)"),
        ("horizon", length, shortest, f" ({depth + 2} * params.b_max)"),
    ):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ValidationError(f"{field}: must be an integer >= {least}{why}, got {value!r}")
    rng = np.random.default_rng(seed)
    violations = 0
    worst_d = 0.0
    min_margin = None
    for _ in range(n_instances):
        n = int(rng.integers(2, n_states_max + 1))
        raw = random_stochastic_matrix(rng, n)
        eps = float(rng.uniform(*CAMPAIGN_UNIFORM_MIX))
        rows = (1.0 - eps) * raw.rows + eps / n
        kernel = StochasticMatrix(raw.space, rows)
        mu0 = random_distribution(rng, n)
        m_workers = int(rng.integers(1, m_max + 1))
        b = int(rng.integers(m_workers, b_max + 1))
        schedule = random_schedule(m_workers, b, length, rng)
        trace = propagate(kernel, mu0, schedule)
        report = verify_theorem4(trace)
        if not report.passed:
            violations += 1
        worst_d = max(worst_d, report.d_final)
        margin = report.p_star_final - report.depth_floor
        min_margin = margin if min_margin is None else min(min_margin, margin)
    return Theorem4CampaignReport(n_instances, violations, worst_d, int(min_margin or 0))

"""Fast paths against straightforward references.

The references below are the per-event implementations: one operator
application and one TV distance per event, element loops over
``Fraction``s for exact mode (vector-matrix and matrix-matrix products,
binary powering, half-L1), one sort per candidate worker,
a schedule generator with two scalar ``rng.integers`` calls per event,
scalar ``Generator.random``/``integers`` calls for the raw-word draws,
a parameter-server loop that sends every message as a ``ServerMessage``
through ``reference_server_receive``, which looks its proposal up in a
registry by id, checks the read version against a ``ServerState``, takes
the reverse density from ``logpdf`` and draws its uniform with
``Generator.random`` (the library's loop hands ``pserver.server_receive``
both), a replay loop over a dict of
versions, a ``validate`` that checks every worker's silence at every event,
and trace and samples writers with one ``json.dumps`` per line.  The fast
paths must agree with them exactly (``==`` and equal bytes, never
approximately), because the canned experiments' artifacts are required to
stay byte-identical.

The module also holds the constructors that only tests need, which other test
modules import from here: random rational matrices and distributions,
multi-site product targets, and the matrix-power cross-check of a trace.
"""
import dataclasses
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from asyncmc import cli, kernels, pserver, schedules, shmem
from asyncmc.errors import (
    LivenessError,
    ProposalInconsistencyError,
    ValidationError,
)
from asyncmc.kernels import (
    GaussianIndependenceProposal,
    GaussianRandomWalkProposal,
    GaussianTarget,
    GibbsSiteProposal,
    IdentityProposal,
    KernelSpec,
    TableIndependenceProposal,
    UniformIndependenceProposal,
    default_init,
    finite_target,
    gaussian_target,
    kernel_step,
    worker_streams,
)
from asyncmc.measure_sim import (
    CONVERGENCE_THRESHOLD,
    MONOTONE_TOL,
    frozen_worker_schedule,
    propagate,
    propagate_unbounded_counterexample,
    verify_theorem4,
)
from asyncmc.measures import (
    FiniteDistribution,
    StateSpace,
    StochasticMatrix,
    _check_probs,
    apply_operator,
    half_l1,
    random_distribution,
    random_stochastic_matrix,
    stationary_distribution,
    tv_distance,
)
from asyncmc.pserver import (
    MODES,
    DelayModel,
    SlotProposal,
    _candidate,
    _log_accept_ratio,
    _worker_proposal,
    coupled_embed,
    run_pserver,
    trace_jsonl_lines,
)
from asyncmc.schedules import (
    Event,
    Schedule,
    ScheduleViolation,
    adversarial_schedules,
    random_schedule,
    schedule_from_jsonl,
    schedule_to_jsonl,
    synchronous_schedule,
    validate,
)
from asyncmc.shmem import RunRecord, replay, samples_csv


RATIONAL_MAX_WEIGHT = 20  # integer weights of the random rational matrices and distributions


def random_rational_matrix(rng, n):
    """Exact-mode analogue of ``measures.random_stochastic_matrix``."""
    draws = rng.integers(1, RATIONAL_MAX_WEIGHT + 1, size=(n, n)).astype(object)
    weights = np.frompyfunc(Fraction, 1, 1)(draws)
    return StochasticMatrix(StateSpace(tuple(range(n))), weights / weights.sum(axis=1, keepdims=True))


def random_rational_distribution(rng, n):
    weights = rng.integers(1, RATIONAL_MAX_WEIGHT + 1, size=n).astype(object)
    return FiniteDistribution.from_weights(StateSpace(tuple(range(n))), weights)


def product_finite_target(site_domains, log_weight):
    """Multi-site finite target; states are tuples, one entry per site."""
    domains = tuple(tuple(d) for d in site_domains)
    labels = tuple(itertools.product(*domains))
    table = {lab: float(log_weight(lab)) for lab in labels}

    def log_unnorm(x):
        return table.get(tuple(x), kernels.NEG_INF)

    return kernels.TargetDensity(
        dim=len(domains), log_unnorm=log_unnorm, support=StateSpace(labels), site_domains=domains
    )


def matrix_power(m, k):
    """``m`` to the ``k``-th power by numpy's binary powering, exact when ``m`` is."""
    return StochasticMatrix(m.space, np.linalg.matrix_power(m.rows, k))


def matrix_power_consistency(trace, m, *, tol=1e-10):
    """Check each version's law ``ladder[p[v]]`` equals mu_0 times the p_v-th power of the kernel.

    The powers come from :func:`matrix_power`, not from the operator ladder
    that produced the trace, so this is an independent cross-check.
    """
    mu0 = FiniteDistribution(m.space, trace.ladder[0])
    zero = 0 if trace.exact else tol
    return all(
        half_l1(trace.ladder[k], apply_operator(matrix_power(m, k), mu0).probs) <= zero
        for k in set(trace.p.tolist())
    )


def is_exact(arr):
    return arr.dtype == object


def reference_vec_dot_mat(vec, rows):
    """``mu P``: numpy's product for two float arrays, else one Python sum per
    entry in index order, exact only when both operands are."""
    if not (is_exact(vec) or is_exact(rows)):
        return vec @ rows
    n = len(vec)
    out = [sum(vec[i] * rows[i][j] for i in range(n)) for j in range(n)]
    return np.array(out, dtype=object if is_exact(vec) and is_exact(rows) else float)


def reference_mat_mul(a, b):
    n = len(a)
    rows = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return np.array(rows, dtype=object)


def reference_matrix_power(rows, k):
    """Binary powering of exact rows from the exact identity."""
    n = len(rows)
    result = np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)
    base = rows
    while k:
        if k & 1:
            result = reference_mat_mul(result, base)
        k >>= 1
        if k:
            base = reference_mat_mul(base, base)
    return result


def reference_tv(x, y):
    """Half the L1 distance: a sum over Fractions when both arrays are exact,
    the float64 expression on float copies otherwise."""
    if is_exact(x) and is_exact(y):
        return sum(abs(a - b) for a, b in zip(x, y)) / 2
    xf, yf = (np.array([float(v) for v in arr]) for arr in (x, y))
    return 0.5 * float(np.abs(xf - yf).sum())


def reference_propagate(m, mu0, schedule, pi):
    mus, p, d = [mu0.probs], [0], [reference_tv(mu0.probs, pi.probs)]
    for ev in schedule.events:
        j = ev.read_from + 1
        nxt = reference_vec_dot_mat(mus[j], m.rows)
        mus.append(nxt)
        p.append(p[j] + 1)
        d.append(reference_tv(nxt, pi.probs))
    b = schedule.staleness_bound
    d_star = [max(d[max(0, k - b + 1) : k + 1]) for k in range(len(d))]
    p_star = [min(p[max(0, k - b + 1) : k + 1]) for k in range(len(p))]
    return mus, d, d_star, p, p_star


def assert_same_entries(got, want):
    """Equal by ``==`` entry for entry, with the same dtype and entry types."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert [type(x) for x in got.flat] == [type(x) for x in want.flat]


def reference_edf_safe_workers(deadlines, seq):
    m = len(deadlines)
    safe = []
    for w in range(m):
        others = sorted(deadlines[v] for v in range(m) if v != w)
        if all(d >= seq + 1 + i for i, d in enumerate(others)):
            safe.append(w)
    return safe


def assert_identical(trace, m, mu0, pi):
    mus, d, d_star, p, p_star = reference_propagate(m, mu0, trace.schedule, pi)
    assert trace.p.dtype == trace.p_star.dtype == np.int64
    assert trace.p.tolist() == p and trace.p_star.tolist() == p_star
    for got, want in ((trace.d, d), (trace.d_star, d_star)):
        assert got.dtype == (object if trace.exact else np.float64)
        assert_same_entries(got, want)
        if not trace.exact:
            assert got.tobytes() == np.array(want).tobytes()
    assert trace.ladder.shape == (max(p) + 1, m.space.size) and not trace.ladder.flags.writeable
    assert len(trace.p) == len(mus)
    # row 0 is mu0 in the ladder's dtype: float64 for an exact mu0 under a float kernel
    assert_same_entries(trace.ladder[0], mus[0].astype(trace.ladder.dtype))
    for v, want in enumerate(mus[1:], 1):
        assert_same_entries(trace.ladder[trace.p[v]], want)


def blended_kernel(rng, n):
    raw = random_stochastic_matrix(rng, n)
    eps = float(rng.uniform(0.55, 0.9))
    return StochasticMatrix(raw.space, (1.0 - eps) * raw.rows + eps / n)


class TestFloatPropagation:
    def test_random_schedules(self):
        rng = np.random.default_rng(101)
        for trial in range(60):
            n = int(rng.integers(2, 11))
            m = blended_kernel(rng, n) if trial % 2 else random_stochastic_matrix(rng, n)
            mu0 = random_distribution(rng, n)
            workers = int(rng.integers(1, 6))
            b = int(rng.integers(workers, 11))
            schedule = random_schedule(workers, b, 300, rng)
            pi = stationary_distribution(m)
            assert_identical(propagate(m, mu0, schedule), m, mu0, pi)

    def test_long_schedule(self):
        rng = np.random.default_rng(7)
        m = blended_kernel(rng, 5)
        mu0 = random_distribution(rng, 5)
        schedule = random_schedule(4, 9, 3000, rng)
        assert_identical(propagate(m, mu0, schedule), m, mu0, stationary_distribution(m))

    @pytest.mark.parametrize("workers,b", [(1, 1), (2, 3), (3, 7), (5, 10)])
    def test_adversarial_schedules(self, workers, b):
        rng = np.random.default_rng(workers * 100 + b)
        m = random_stochastic_matrix(rng, 4)
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        pi = stationary_distribution(m)
        for schedule in adversarial_schedules(workers, b, 200).values():
            assert_identical(propagate(m, mu0, schedule), m, mu0, pi)

    def test_frozen_worker_counterexample(self):
        m = StochasticMatrix(StateSpace((0, 1)), [[0.7, 0.3], [0.4, 0.6]])
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate_unbounded_counterexample(m, mu0, 1000)
        assert trace.schedule == frozen_worker_schedule(1000)
        assert_identical(trace, m, mu0, stationary_distribution(m))

    def test_versions_share_their_rung(self):
        rng = np.random.default_rng(4)
        m = random_stochastic_matrix(rng, 3)
        trace = propagate(m, random_distribution(rng, 3), random_schedule(3, 6, 200, rng))
        # every depth up to the deepest is some version's, so no rung is computed in vain
        assert sorted(set(trace.p.tolist())) == list(range(len(trace.ladder)))
        with pytest.raises(ValueError):
            trace.ladder[0, 0] = 1.0


class TestExactPropagation:
    def test_random_schedules(self):
        rng = np.random.default_rng(202)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            m = random_rational_matrix(rng, n)
            mu0 = random_rational_distribution(rng, n)
            workers = int(rng.integers(1, 4))
            schedule = random_schedule(workers, int(rng.integers(workers, 6)), 60, rng)
            trace = propagate(m, mu0, schedule)
            assert trace.exact
            assert_identical(trace, m, mu0, stationary_distribution(m))

    def test_adversarial_and_frozen(self):
        rng = np.random.default_rng(3)
        m = random_rational_matrix(rng, 3)
        mu0 = random_rational_distribution(rng, 3)
        pi = stationary_distribution(m)
        for schedule in adversarial_schedules(2, 4, 40).values():
            assert_identical(propagate(m, mu0, schedule), m, mu0, pi)
        assert_identical(propagate_unbounded_counterexample(m, mu0, 40), m, mu0, pi)


def rational_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        yield rng, random_rational_matrix(rng, n), random_rational_distribution(rng, n)


class TestExactOperations:
    def test_apply_operator(self):
        for _, m, mu in rational_instances(31, 40):
            out = apply_operator(m, mu)
            assert out.exact
            assert_same_entries(out.probs, reference_vec_dot_mat(mu.probs, m.rows))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 64])
    def test_matrix_power(self, k):
        for _, m, _ in rational_instances(33 + k, 8):
            power = matrix_power(m, k)
            assert power.exact
            assert_same_entries(power.rows, reference_matrix_power(m.rows, k))

    def test_tv_distance(self):
        for rng, _, a in rational_instances(34, 40):
            b = random_rational_distribution(rng, a.space.size)
            for x, y in ((a, b), (a, a)):
                got = tv_distance(x, y)
                assert type(got) is Fraction and got == reference_tv(x.probs, y.probs)

    def test_propagate(self):
        for rng, m, mu0 in rational_instances(35, 12):
            workers = int(rng.integers(1, 4))
            schedule = random_schedule(workers, int(rng.integers(workers, 7)), 60, rng)
            trace = propagate(m, mu0, schedule)
            assert trace.exact
            assert_identical(trace, m, mu0, stationary_distribution(m))


def mixed_pairs(seed, count):
    """An exact kernel with a float mu0 and a float kernel with an exact mu0,
    on spaces of 2 to 11 states."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 12))
        yield rng, random_rational_matrix(rng, n), random_distribution(rng, n)
        yield rng, random_stochastic_matrix(rng, n), random_rational_distribution(rng, n)


class TestMixedOperands:
    """One exact operand and one float one give float results, equal by
    ``==`` to what the per-event loops computed."""

    def test_apply_operator(self):
        for _, m, mu in mixed_pairs(41, 40):
            out = apply_operator(m, mu)
            assert not out.exact and out.probs.dtype == np.float64
            assert_same_entries(out.probs, reference_vec_dot_mat(mu.probs, m.rows))

    def test_tv_distance(self):
        for _, m, mu in mixed_pairs(42, 40):
            pi = stationary_distribution(m)
            got = tv_distance(mu, pi)
            assert type(got) is float and got == reference_tv(mu.probs, pi.probs)

    def test_propagate(self):
        for rng, m, mu0 in mixed_pairs(43, 8):
            workers = int(rng.integers(1, 4))
            schedule = random_schedule(workers, int(rng.integers(workers, 7)), 80, rng)
            trace = propagate(m, mu0, schedule)
            assert not trace.exact
            assert_identical(trace, m, mu0, stationary_distribution(m))


class TestLadderValidation:
    def test_rows_checked_like_single_distributions(self):
        # the one check the ladder runs over all its rows
        tiny = Fraction(1, 10**15)
        for rows, message in (
            (np.array([[0.5, 0.5], [-0.5, 1.5]]), "negative"),
            (np.array([[0.5, 0.5], [0.5, 0.6]]), "sum to"),
            (np.array([[0.5, 0.5], [np.nan, 1.0]]), "non-finite"),
            (np.array([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2) + tiny]]), "sum to"),
        ):
            with pytest.raises(ValidationError, match=message):
                _check_probs(rows)


class TestMatrixPowerConsistency:
    @pytest.mark.parametrize("exact", [False, True])
    def test_detects_a_corrupted_version(self, exact):
        rng = np.random.default_rng(9)
        if exact:
            m, mu0 = random_rational_matrix(rng, 3), random_rational_distribution(rng, 3)
        else:
            m, mu0 = random_stochastic_matrix(rng, 3), random_distribution(rng, 3)
        schedule = random_schedule(2, 4, 50, rng)
        trace = propagate(m, mu0, schedule)
        assert matrix_power_consistency(trace, m)
        k = trace.p[5]
        ladder = trace.ladder.copy()
        ladder[k] = ladder[k] @ m.rows  # one operator application too many
        assert not matrix_power_consistency(dataclasses.replace(trace, ladder=ladder), m)
        # a trace that is self-consistent but built from another kernel
        other = propagate(StochasticMatrix(m.space, m.rows[::-1]), mu0, schedule)
        assert not matrix_power_consistency(other, m)


def reference_verify_theorem4(trace, threshold):
    """The failures of the per-index loops, over the trace's values as lists."""
    b = trace.schedule.staleness_bound
    n = len(trace.schedule.events)
    d, d_star, p_star = trace.d.tolist(), trace.d_star.tolist(), trace.p_star.tolist()
    tolerance = 0 if trace.exact else MONOTONE_TOL
    failures = []
    for k in range(b + 1, n):
        if d_star[k + 1] > d_star[k] + tolerance:
            failures.append(f"d_star increases at k={k + 1}")
    for k in range(n):
        if p_star[k + 1] < p_star[k]:
            failures.append(f"p_star decreases at k={k + 1}")
    depth_floor = (n - b) // b - 1
    if not p_star[n] >= depth_floor:
        failures.append(f"p_star[{n}]={p_star[n]} below linear floor {depth_floor}")
    for k in range(n + 1):
        if d_star[k] < d[k]:
            failures.append(f"d_star below d at k={k}")
    if not d[n] <= threshold:
        failures.append(f"d at final version {n} is {float(d[n]):.3e} > {float(threshold):.1e}")
    return tuple(failures)


FAILURE_KINDS = (
    "d_star increases", "p_star decreases", "below linear floor", "d_star below d", "d at final version"
)


def planted_failures(trace, unit):
    """``(trace, threshold, kinds)`` for the trace itself and for copies with
    each kind of failure planted, one at a time and all at once."""
    b, n = trace.schedule.staleness_bound, len(trace.schedule.events)
    rise = trace.d_star.copy()
    for j in (b + 1, b + 3, n):  # b + 1 is before the window is warm
        rise[j] = rise[j - 1] + unit
    rise[b + 5] = rise[b + 4] + unit / 10**4  # within the float tolerance, not the exact one
    drop = trace.p_star.copy()
    for j in (1, n // 2):
        drop[j] = drop[j - 1] - 1
    floor = trace.p_star.copy()
    floor[n] = (n - b) // b - 2
    below = trace.d_star.copy()
    for j in (0, 3, n - 1):
        below[j] = trace.d[j] - unit
    every = trace.d_star.copy()
    every[: b + 6] = rise[: b + 6]
    every[n - 1] = below[n - 1]
    every_depth = drop.copy()
    every_depth[n] = floor[n]
    replace = dataclasses.replace
    rise_kind, drop_kind, floor_kind, below_kind, final_kind = FAILURE_KINDS
    return (
        (trace, 1, ()),
        (replace(trace, d_star=rise), 1, (rise_kind,)),
        (replace(trace, p_star=drop), 1, (drop_kind,)),
        (replace(trace, p_star=floor), 1, (floor_kind,)),
        (replace(trace, d_star=below), 1, (below_kind,)),
        (trace, 1e-30, (final_kind,)),
        (replace(trace, d_star=every, p_star=every_depth), 1e-30, FAILURE_KINDS),
    )


class TestReferenceVerify:
    """The array checks of ``verify_theorem4`` name the same failures, in the
    same order, as the per-index loops."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_planted_failures(self, exact):
        rng = np.random.default_rng(17)
        if exact:
            m, mu0 = random_rational_matrix(rng, 3), random_rational_distribution(rng, 3)
            unit = Fraction(1, 10**9)
        else:
            m, mu0, unit = blended_kernel(rng, 4), random_distribution(rng, 4), 1e-9
        trace = propagate(m, mu0, random_schedule(3, 5, 60, rng))
        for crafted, threshold, kinds in planted_failures(trace, unit):
            want = reference_verify_theorem4(crafted, threshold)
            report = verify_theorem4(crafted, threshold=threshold)
            assert report.failures == want
            assert report.passed == (not want)
            # every planted kind is named; one plant may trip another kind too
            # (a floor break is also a drop), which the reference then names as well
            assert bool(want) == bool(kinds)
            assert all(any(kind in f for f in want) for kind in kinds), (kinds, want)

    @pytest.mark.parametrize("exact", [False, True])
    def test_frozen_worker_counterexample(self, exact):
        rng = np.random.default_rng(18)
        if exact:
            m, mu0 = random_rational_matrix(rng, 2), random_rational_distribution(rng, 2)
        else:
            m, mu0 = random_stochastic_matrix(rng, 2), random_distribution(rng, 2)
        trace = propagate_unbounded_counterexample(m, mu0, 60)
        report = verify_theorem4(trace)  # at the default threshold
        assert report.failures == reference_verify_theorem4(trace, CONVERGENCE_THRESHOLD)
        assert not report.passed

    def test_fraction_threshold(self):
        # the message prints a Fraction threshold as a float: before Python
        # 3.12 a Fraction takes no ".1e" format spec
        rng = np.random.default_rng(19)
        m, mu0 = random_rational_matrix(rng, 3), random_rational_distribution(rng, 3)
        trace = propagate(m, mu0, synchronous_schedule(1, 20))
        threshold = Fraction(1, 10**30)
        report = verify_theorem4(trace, threshold=threshold)
        assert report.failures == reference_verify_theorem4(trace, threshold)
        assert report.failures == (f"d at final version 20 is {float(trace.d[20]):.3e} > 1.0e-30",)


def reference_random_schedule(m, b, length, rng, kind="write"):
    """The generator with one scalar ``rng.integers`` call for the worker
    and one for the staleness per event, and the brute-force EDF check."""
    schedules._check_feasible(m, b, length)
    deadlines = [b - 1] * m  # each worker must first write within the opening window
    events = []
    for seq in range(length):
        safe = reference_edf_safe_workers(deadlines, seq)
        if not safe:
            raise ValidationError("scheduling dead end; parameters infeasible")
        urgent = [w for w in safe if deadlines[w] == seq]
        pool = urgent if urgent else safe
        worker = int(pool[int(rng.integers(len(pool)))])
        deadlines[worker] = seq + b
        staleness = 1 + int(rng.integers(min(seq + 1, b)))
        events.append(Event(seq, worker, seq - staleness, kind))
    sched = Schedule(tuple(events), m, b)
    assert validate(sched) is None
    return sched


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64)


def plain_state(rng):
    """The bit generator's state with arrays as lists, so that ``==`` works."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def generator_pair(bit_generator, seed, lead):
    """Two generators in the same state after ``lead`` scalar draws; an odd
    ``lead`` leaves a 64-bit generator holding a buffered half-word."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in pair:
        for _ in range(lead):
            rng.integers(7)
    return pair


def assert_same_draws(m, b, length, bit_generator, seed, lead=0):
    fast_rng, ref_rng = generator_pair(bit_generator, seed, lead)
    fast = random_schedule(m, b, length, fast_rng)
    assert fast == reference_random_schedule(m, b, length, ref_rng)
    assert plain_state(fast_rng) == plain_state(ref_rng)
    assert fast_rng.integers(2**63) == ref_rng.integers(2**63)


class TestRandomScheduleDraws:
    def test_random_shapes(self):
        meta = np.random.default_rng(23)
        for case in range(400):
            m = int(meta.integers(1, 7))
            b = int(meta.integers(m, 3 * m + 4))
            length = int(meta.integers(b, 4 * b + 40))
            assert_same_draws(
                m, b, length, BIT_GENERATORS[case % len(BIT_GENERATORS)],
                seed=int(meta.integers(2**32)), lead=int(meta.integers(0, 3)),
            )

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("lead", [0, 1])
    def test_edge_shapes(self, bit_generator, lead):
        # m=1, b=m and length=b, and one long schedule
        for m, b, length in [(1, 1, 1), (1, 1, 40), (1, 6, 6), (4, 4, 4), (4, 4, 90),
                             (3, 9, 9), (7, 7, 300), (4, 8, 5000)]:
            assert_same_draws(m, b, length, bit_generator, seed=1000 * m + b, lead=lead)

    def test_entered_with_buffered_half_word(self):
        fast_rng, _ = generator_pair(np.random.PCG64, 5, lead=1)
        assert fast_rng.bit_generator.state["has_uint32"] == 1
        assert_same_draws(3, 5, 200, np.random.PCG64, 5, lead=1)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("lead", [0, 1])
    def test_appended_word_continues_the_fetch(self, bit_generator, lead):
        # a word appended after a rejection is one scalar uint32 draw, which
        # must be the next word of the bulk fill's stream
        bulk_rng, scalar_rng = generator_pair(bit_generator, 9, lead)
        words = bulk_rng.integers(0, 2**32, size=5, dtype=np.uint32).tolist()
        assert words == [int(scalar_rng.integers(0, 2**32, dtype=np.uint32)) for _ in range(5)]
        assert plain_state(bulk_rng) == plain_state(scalar_rng)

    def test_bound_one_consumes_nothing(self):
        # m = b = 1: one worker and staleness 1, so every draw has bound 1
        rng = np.random.default_rng(3)
        before = plain_state(rng)
        s = random_schedule(1, 1, 50, rng)
        assert [(e.worker, e.read_from) for e in s.events] == [(0, k - 1) for k in range(50)]
        assert plain_state(rng) == before


class ScriptedGenerator:
    """A stand-in for ``np.random.Generator`` serving scripted 32-bit words.

    ``bit_generator.state`` is the read position.  ``integers(0, 2**32,
    size=n, dtype=np.uint32)`` returns the next ``n`` words (one word, as a
    scalar, without ``size``), and a scalar ``integers(k)`` runs numpy's
    Lemire multiply-and-reject on them, consuming nothing at ``k == 1``.
    """

    def __init__(self, words):
        self.words = list(words)
        self.pos = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.pos

    @state.setter
    def state(self, pos):
        self.pos = pos

    def _next(self):
        self.pos += 1
        return self.words[self.pos - 1]

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if dtype is np.uint32:
            assert (low, high) == (0, 2**32)
            if size is None:
                return np.uint32(self._next())
            return np.array([self._next() for _ in range(size)], dtype=np.uint32)
        assert high is None and size is None
        k = low
        if k == 1:
            return 0
        x = self._next() * k
        if x % 2**32 < k:
            while x % 2**32 < 2**32 % k:
                x = self._next() * k
        return x >> 32


def scripted_words(seed, n, zeros=()):
    """``n`` nonzero words with 0 at the positions ``zeros``; at a bound
    ``k`` that is no power of two, such as 3, word 0 is rejected."""
    words = np.random.default_rng(seed).integers(1, 2**32, size=n).tolist()
    for p in zeros:
        words[p] = 0
    return words


def assert_same_on_words(m, b, length, words):
    """The generator and the scalar-call reference agree on scripted words
    and stop at the same word; returns that position."""
    fast, ref = ScriptedGenerator(words), ScriptedGenerator(words)
    assert random_schedule(m, b, length, fast) == reference_random_schedule(m, b, length, ref)
    assert fast.pos == ref.pos
    return fast.pos


class TestScriptedWords:
    def test_crafted_rejections(self):
        # m=1, b=3: seq 1 draws its staleness at k=2 (word 0 kept, value 0),
        # later seqs at k=3, where word 0 is the only rejected word.  The
        # fetch takes 8 words and each of the 3 rejections appends one.
        gen = ScriptedGenerator([0, 0, 1 << 31, 0, 0, 3 << 30] + [9] * 5)
        s = random_schedule(1, 3, 4, gen)
        assert [e.read_from for e in s.events] == [-1, 0, 0, 0]
        assert gen.pos == 6
        assert_same_on_words(1, 3, 4, gen.words)

    def test_rejections_past_the_fetched_words(self):
        # m=3 and b = length: nearly every event draws its worker at k=3
        # and its staleness at k = seq + 1, so the draws use nearly all of
        # the 2 * length fetched words.  An early rejection and a run of
        # rejections among the last events need the appended words.
        m, length = 3, 40
        zeros = [0, *range(2 * length - 8, 2 * length + 4)]
        pos = assert_same_on_words(m, length, length, scripted_words(1, 3 * length, zeros))
        assert pos > 2 * length

    def test_random_rejections(self):
        meta = np.random.default_rng(41)
        past = 0
        for case in range(300):
            m = int(meta.integers(1, 6))
            b = int(meta.integers(m, 3 * m + 6))
            length = int(meta.integers(b, 3 * b + 10))
            zeros = meta.choice(2 * length, size=int(meta.integers(0, 8)), replace=False)
            words = scripted_words(case, 3 * length, zeros.tolist())
            past += assert_same_on_words(m, b, length, words) > 2 * length
        assert past > 0


RAW_DRAW_BOUNDS = (1, 2, 3, 9, (1 << 31) + 1, 3 << 30, 1 << 32, (1 << 32) + 1, 1 << 40, 1 << 63)


class TestPCG64Draws:
    @pytest.mark.parametrize("words_per_fetch", [1, 2, 3, None])
    def test_matches_scalar_generator_calls(self, monkeypatch, words_per_fetch):
        # random interleavings of doubles and bounded draws, entered with and
        # without a buffered half-word; with 1-3 outputs per fetch, refills
        # fall between a half-word and its partner
        if words_per_fetch is not None:
            monkeypatch.setattr(kernels, "_RAW_WORDS_PER_FETCH", words_per_fetch)
        meta = np.random.default_rng(31)
        for seed in range(40):
            fast_rng, ref_rng = generator_pair(np.random.PCG64, seed, lead=seed % 2)
            draws = kernels._PCG64Draws(fast_rng)
            for _ in range(300):
                if meta.random() < 0.3:
                    assert draws.random() == ref_rng.random()
                else:
                    k = RAW_DRAW_BOUNDS[int(meta.integers(len(RAW_DRAW_BOUNDS)))]
                    assert draws.integers(0, k) == int(ref_rng.integers(0, k)), k

    def test_bound_one_and_doubles_leave_the_half_word(self):
        fast_rng, ref_rng = generator_pair(np.random.PCG64, 4, lead=0)
        draws = kernels._PCG64Draws(fast_rng)
        low = draws.integers(0, 1 << 32)  # buffers the high half
        assert low == int(ref_rng.integers(0, 1 << 32))
        assert [draws.integers(0, 1), draws.random(), draws.integers(0, 1 << 40)] == [
            0, ref_rng.random(), int(ref_rng.integers(0, 1 << 40))
        ]
        assert draws.integers(0, 1 << 32) == int(ref_rng.integers(0, 1 << 32))
        assert ref_rng.bit_generator.state["has_uint32"] == 0

    def test_raw_output_uniform_is_random(self):
        # the server's accept uniform, (random_raw() >> 11) * 2**-53, between
        # the normal and bounded draws of worker proposals; bounds below
        # 2**32 leave a buffered half-word that the raw output must not touch
        meta = np.random.default_rng(17)
        buffered = 0
        for seed in range(20):
            fast_rng, ref_rng = generator_pair(np.random.PCG64, seed, lead=seed % 2)
            raw = fast_rng.bit_generator.random_raw
            for _ in range(300):
                draw = meta.random()
                if draw < 0.4:
                    buffered += fast_rng.bit_generator.state["has_uint32"]
                    assert (raw() >> 11) * 2**-53 == ref_rng.random()
                elif draw < 0.7:
                    assert fast_rng.standard_normal() == ref_rng.standard_normal()
                else:
                    k = int(meta.integers(1, 9))
                    assert fast_rng.integers(0, k) == ref_rng.integers(0, k)
            assert plain_state(fast_rng) == plain_state(ref_rng)
        assert buffered > 0

    @pytest.mark.parametrize("word", [0x1234_5678 << 32, 0x1234_5678, 0])
    def test_rejected_half_word(self, word):
        # at k = 3 Lemire rejects only the half-word 0: a crafted output 3
        # with a zero low half, high half, or both; a reorder_random latency
        # of span 2 is this draw
        fast_rng, ref_rng = (pcg64_with_output(5, 3, word) for _ in range(2))
        assert pcg64_with_output(5, 3, word).bit_generator.random_raw(4)[-1] == word
        draws = kernels._PCG64Draws(fast_rng)
        got = [draws.random() for _ in range(3)] + [draws.integers(0, 3) for _ in range(6)]
        want = [ref_rng.random() for _ in range(3)] + [int(ref_rng.integers(0, 3)) for _ in range(6)]
        assert got == want

    def test_sized_standard_normal_is_scalar_calls(self):
        # the block server path's send draws standard_normal(dim) once; the
        # reference draws dim scalar normals; accept words interleave
        meta = np.random.default_rng(43)
        for seed in range(20):
            fast_rng, ref_rng = generator_pair(np.random.PCG64, seed, lead=seed % 2)
            raw = fast_rng.bit_generator.random_raw
            for _ in range(500):
                if meta.random() < 0.4:
                    assert (raw() >> 11) * 2**-53 == ref_rng.random()
                else:
                    dim = int(meta.integers(1, 5))
                    got = fast_rng.standard_normal(dim).tolist()
                    assert got == [ref_rng.standard_normal() for _ in range(dim)]
            assert plain_state(fast_rng) == plain_state(ref_rng)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS[1:])
    def test_other_bit_generators_refused(self, bit_generator):
        with pytest.raises(TypeError, match="PCG64"):
            kernels._PCG64Draws(np.random.Generator(bit_generator(0)))


def reference_latency(delay, rng):
    if delay.kind == "fifo_fixed":
        return float(delay.params.get("latency", 0.0))
    if delay.kind == "fifo_random":
        mean = float(delay.params.get("mean", 2.0))
        return float(rng.geometric(1.0 / (1.0 + mean)) - 1)
    return float(rng.integers(0, int(delay.params.get("span", 8)) + 1))


def reference_period(delay, worker):
    periods = delay.params.get("periods", 1.0)
    return float(periods) if isinstance(periods, (int, float)) else float(periods[worker])


class ProtocolError(Exception):
    """Malformed or unregistered parameter-server message."""


@dataclass(frozen=True)
class TaggedState:
    value: object
    log_pi: float


@dataclass(frozen=True)
class ServerState:
    tagged: TaggedState
    version: int = 0
    commit_count: int = 0


@dataclass(frozen=True)
class ServerMessage:
    """What a worker sends: its read, its proposal, and cached densities."""

    worker: int
    read_version: int
    x: object
    x_star: object
    log_pi_x_star: float
    log_f_forward: float
    proposal_id: str
    params: dict = field(default_factory=dict)


def reference_server_receive(st, msg, target, proposals, rng, *, mode="mh_corrected"):
    """Process one message; returns (new state, accepted, log accept ratio).

    The reverse density comes from the registered proposal's ``logpdf`` at
    every message, and one uniform is drawn per message in either mode.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    family = proposals.get(msg.proposal_id)
    if family is None:
        raise ProtocolError(f"proposal id {msg.proposal_id!r} is not registered")
    if msg.read_version > st.version:
        raise ProtocolError(
            f"message read version {msg.read_version} is ahead of the server ({st.version})"
        )

    cand_value = _candidate(st.tagged.value, msg.x_star, msg.params, target.dim)
    # the worker's density of its own proposal, the server's of a merged candidate
    cand_lp = msg.log_pi_x_star if cand_value is msg.x_star else target.log_unnorm(cand_value)
    log_f_reverse = family.logpdf(st.tagged.value, msg.x, msg.params)
    log_ratio = _log_accept_ratio(cand_lp + log_f_reverse, st.tagged.log_pi + msg.log_f_forward)

    u = rng.random()
    accepted = mode == "naive_accept" or log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        new = ServerState(TaggedState(cand_value, cand_lp), st.version + 1, st.commit_count + 1)
    else:
        new = ServerState(st.tagged, st.version + 1, st.commit_count)
    return new, accepted, log_ratio


def reference_run_pserver(kernel, m, horizon, delay, mode, seed, *, init=None,
                          frozen_workers=(), coupled=False):
    """One ``ServerMessage`` and one ``reference_server_receive`` call per message."""
    if coupled:
        target = coupled_embed(kernel.target, m)
        worker_props = [SlotProposal(_worker_proposal(kernel), w) for w in range(m)]
        if init is None:
            init = tuple(default_init(kernel.target) for _ in range(m))
    else:
        target = kernel.target
        worker_props = [_worker_proposal(kernel)] * m
        if init is None:
            init = default_init(kernel.target)
    ids = [f"slot{w}:{p.base.proposal_id}" if coupled else p.proposal_id for w, p in enumerate(worker_props)]
    registry = dict(zip(ids, worker_props))
    st = ServerState(TaggedState(init, target.log_unnorm(init)))
    rngs = worker_streams(seed, m, extra=1)
    infra = rngs[m]
    frozen = set(frozen_workers)
    heap, tiebreak = [], 0

    def push(t, kind, payload):
        nonlocal tiebreak
        heapq.heappush(heap, (t, tiebreak, kind, payload))
        tiebreak += 1

    frozen_reads, stalled, resends, sends = {}, [0] * m, 0, 0

    def compose(worker, t, force_fresh=False):
        nonlocal sends
        sends += 1
        if worker in frozen and not force_fresh and worker in frozen_reads:
            x, rv = frozen_reads[worker]
        else:
            x, rv = st.tagged.value, st.version
            frozen_reads[worker] = (x, rv)
        prop = worker_props[worker]
        y, params = prop.sample(x, rngs[worker])
        msg = ServerMessage(worker, rv, x, y, target.log_unnorm(y), prop.logpdf(y, x, params),
                            ids[worker], params)
        push(t + reference_latency(delay, infra), "deliver", msg)

    for w in range(m):
        push(0.0 if w in frozen else float(infra.uniform(0.0, delay.jitter + 1e-9)), "send", w)

    is_finite = kernel.target.is_finite
    index = {lab: i for i, lab in enumerate(kernel.target.support.labels)} if is_finite else None
    rows, log_ratios = [], []
    workers, reads, accepted = [], [], []
    while len(rows) < horizon:
        t, _, kind, payload = heapq.heappop(heap)
        if kind == "send":
            compose(payload, t)
            continue
        msg = payload
        if st.version - msg.read_version > delay.staleness_cap:
            resends += 1
            stalled[msg.worker] += 1
            if stalled[msg.worker] > pserver.MAX_RESENDS:
                raise LivenessError(
                    f"worker {msg.worker} exceeded {pserver.MAX_RESENDS} stale resends "
                    f"(cap {delay.staleness_cap})"
                )
            compose(msg.worker, t, force_fresh=True)
            continue
        st, acc, log_ratio = reference_server_receive(st, msg, target, registry, rngs[msg.worker], mode=mode)
        stalled[msg.worker] = 0
        workers.append(msg.worker)
        reads.append(msg.read_version)
        accepted.append(acc)
        log_ratios.append(log_ratio)
        value = st.tagged.value
        if is_finite:
            value = [index[x] for x in value] if coupled else index[value]
        rows.append(value)
        push(t + reference_period(delay, msg.worker) + float(infra.uniform(0.0, delay.jitter)),
             "send", msg.worker)

    events = tuple(Event(i, w, r - 1, "server_commit") for i, (w, r) in enumerate(zip(workers, reads)))
    bound = max(1, max(e.seq - e.read_from for e in events))
    for w in range(m):
        gaps = np.diff([-1] + [e.seq for e in events if e.worker == w] + [horizon])
        bound = max(bound, int(gaps.max()))
    config = {
        "resends": resends,
        "messages_sent": sends,
        "pending_at_exit": sum(1 for item in heap if item[2] == "deliver"),
    }
    return {
        "workers": np.array(workers, dtype=np.int32),
        "read_versions": np.array(reads, dtype=np.int64),
        "accepted": np.array(accepted, dtype=bool),
        "log_ratios": np.array(log_ratios, dtype=float),
        "states": np.array(rows, dtype=np.int64 if is_finite else float),
        "trace": Schedule(events, m, bound),
        "config": config,
    }


def bench_kernel():
    target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.5).precision)
    return KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal([0.0, 0.0], 1.5))


def off_centre_kernel():
    precision = [[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 1.5]]
    target = gaussian_target((0.5, -1.0, 1.5), precision)
    return KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal([0.3, -1.7, 2.0], 0.7))


def assert_pserver_identical(kernel, m, horizon, delay, mode, seed, **kwargs):
    got = run_pserver(kernel, m, horizon, delay, mode, seed, **kwargs)
    want = reference_run_pserver(kernel, m, horizon, delay, mode, seed, **kwargs)
    for name in ("workers", "read_versions", "accepted", "states"):
        array = getattr(got, name)
        assert array.dtype == want[name].dtype and np.array_equal(array, want[name]), name
    assert got.log_ratios.tobytes() == want["log_ratios"].tobytes()
    assert schedule_from_jsonl("\n".join(trace_jsonl_lines(got))) == want["trace"]
    assert got.staleness_bound == want["trace"].staleness_bound
    assert {k: got.config[k] for k in want["config"]} == want["config"]
    return got


class TestServerLoop:
    def test_single_worker_zero_delay(self):
        target = finite_target([1.0, 2.0, 3.0])
        kernel = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        delay = DelayModel("fifo_fixed", {"latency": 0.0, "jitter": 0.0}, staleness_cap=0)
        assert_pserver_identical(kernel, 1, 2000, delay, "mh_corrected", 21)

    def test_table_independence_with_resends(self):
        target = finite_target([1.0, 2.0, 3.0, 0.5])
        prop = TableIndependenceProposal(target.support, [1.0, 3.0, 2.0, 1.0])
        kernel = KernelSpec("metropolis_hastings", target, prop)
        delay = DelayModel("reorder_random", {"span": 12}, staleness_cap=5)
        record = assert_pserver_identical(kernel, 3, 3000, delay, "mh_corrected", 8)
        assert record.config["resends"] > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_gaussian_independence_bench_shape(self, seed):
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.5).precision)
        kernel = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal([0.0, 0.0], 1.5))
        delay = DelayModel("reorder_random", {"span": 8, "jitter": 0.3}, staleness_cap=64)
        assert_pserver_identical(kernel, 4, 3000, delay, "mh_corrected", seed)

    @pytest.mark.parametrize("cap", [10**9, 6])
    @pytest.mark.parametrize("mode", ["mh_corrected", "naive_accept"])
    def test_gibbs_frozen_worker_with_periods(self, mode, cap):
        # under a finite cap the frozen worker's resends refresh its frozen read
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.9).precision)
        kernel = KernelSpec("gibbs_single_site", target)
        delay = DelayModel(
            "fifo_fixed", {"latency": 0.0, "periods": [1.0, 2.0, 2.0], "jitter": 0.5}, staleness_cap=cap
        )
        record = assert_pserver_identical(
            kernel, 3, 3000, delay, mode, 202, init=(3.0, -3.0), frozen_workers=(0,)
        )
        assert (record.config["resends"] > 0) == (cap < 3000)

    @pytest.mark.parametrize("mode", ["mh_corrected", "naive_accept"])
    def test_gibbs_on_a_one_site_finite_target(self, mode):
        # each site draw is a bare label, the whole candidate; stale reads and resends
        target = finite_target([1.0, 2.0, 3.0, 0.5])
        delay = DelayModel("reorder_random", {"span": 12, "jitter": 0.3}, staleness_cap=5)
        record = assert_pserver_identical(KernelSpec("gibbs_single_site", target), 3, 3000, delay, mode, 9)
        assert record.config["resends"] > 0
        assert np.bincount(record.states, minlength=4).min() > 0

    def test_resends_past_max_resends_in_one_run(self):
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.9).precision)
        kernel = KernelSpec("gibbs_single_site", target)
        delay = DelayModel(
            "fifo_fixed", {"latency": 0.0, "periods": [1.0, 2.0, 2.0], "jitter": 0.5}, staleness_cap=6
        )
        record = assert_pserver_identical(
            kernel, 3, 20_000, delay, "mh_corrected", 202, init=(3.0, -3.0), frozen_workers=(0,)
        )
        assert record.config["resends"] > 1000

    def test_coupled_slots(self):
        target = finite_target([1.0, 2.0, 3.0])
        kernel = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        delay = DelayModel("fifo_random", {"mean": 2.0}, staleness_cap=64)
        assert_pserver_identical(kernel, 2, 3000, delay, "mh_corrected", 6, coupled=True)

    def test_coupled_gaussian_independence_reordered(self):
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.5).precision)
        kernel = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal([0.0, 0.0], 1.5))
        delay = DelayModel("reorder_random", {"span": 8, "jitter": 0.3}, staleness_cap=64)
        record = assert_pserver_identical(kernel, 3, 3000, delay, "mh_corrected", 4, coupled=True)
        assert record.states.shape == (3000, 3, 2)

    @pytest.mark.parametrize("mode", ["mh_corrected", "naive_accept"])
    def test_coupled_table_independence(self, mode):
        target = finite_target([1.0, 2.0, 3.0, 0.5])
        prop = TableIndependenceProposal(target.support, [1.0, 3.0, 2.0, 1.0])
        kernel = KernelSpec("metropolis_hastings", target, prop)
        delay = DelayModel("reorder_random", {"span": 5, "jitter": 0.2}, staleness_cap=64)
        assert_pserver_identical(kernel, 3, 3000, delay, mode, 12, coupled=True)

    @pytest.mark.parametrize("span", [0, 1, 2**32 - 1, 2**32, 2**40, 2**63 - 1])
    def test_latency_spans(self, span):
        # span 0 draws nothing, 2**32 - 1 one half-word, larger spans whole outputs
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.5).precision)
        kernel = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal([0.0, 0.0], 1.5))
        delay = DelayModel("reorder_random", {"span": span, "jitter": 0.3}, staleness_cap=64)
        assert_pserver_identical(kernel, 4, 600, delay, "mh_corrected", span % 97)

    @pytest.mark.parametrize("mode", ["mh_corrected", "naive_accept"])
    def test_fifo_fixed_with_jitter(self, mode):
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.5).precision)
        kernel = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal([0.0, 0.0], 1.5))
        delay = DelayModel("fifo_fixed", {"latency": 2.0, "jitter": 0.7}, staleness_cap=64)
        assert_pserver_identical(kernel, 4, 3000, delay, mode, 5)

    def test_naive_table_independence_with_resends(self):
        target = finite_target([1.0, 2.0, 3.0, 0.5])
        prop = TableIndependenceProposal(target.support, [1.0, 3.0, 2.0, 1.0])
        kernel = KernelSpec("metropolis_hastings", target, prop)
        delay = DelayModel("reorder_random", {"span": 12}, staleness_cap=5)
        record = assert_pserver_identical(kernel, 3, 3000, delay, "naive_accept", 8)
        assert record.config["resends"] > 0

    # Uncoupled metropolis_hastings runs on a Gaussian target take the block
    # path: densities and accept decisions per pserver._BLOCK messages.

    def test_block_path_below_one_block(self):
        delay = DelayModel("reorder_random", {"span": 8, "jitter": 0.3}, staleness_cap=64)
        assert_pserver_identical(bench_kernel(), 4, pserver._BLOCK - 1, delay, "mh_corrected", 31)

    def test_block_path_across_block_edges(self):
        delay = DelayModel("fifo_fixed", {"latency": 1.0, "periods": [1.0, 0.5, 2.0], "jitter": 0.4},
                           staleness_cap=64)
        assert_pserver_identical(bench_kernel(), 3, 2 * pserver._BLOCK + 37, delay, "mh_corrected", 32)

    def test_block_path_single_worker(self):
        delay = DelayModel("fifo_fixed", {"latency": 0.0, "jitter": 0.0}, staleness_cap=0)
        record = assert_pserver_identical(bench_kernel(), 1, 2 * pserver._BLOCK + 37, delay,
                                          "mh_corrected", 33)
        assert 0 < record.accept_rate < 1

    def test_block_path_naive(self):
        delay = DelayModel("reorder_random", {"span": 8, "jitter": 0.3}, staleness_cap=64)
        record = assert_pserver_identical(bench_kernel(), 4, 2 * pserver._BLOCK + 37, delay,
                                          "naive_accept", 34)
        assert record.accepted.all()

    @pytest.mark.parametrize("mode", ["mh_corrected", "naive_accept"])
    def test_block_path_resends_with_a_frozen_worker(self, mode):
        # drops, resends and the frozen worker's reads fall on both sides of
        # every block edge
        delay = DelayModel("reorder_random", {"span": 12, "jitter": 0.3}, staleness_cap=5)
        record = assert_pserver_identical(bench_kernel(), 3, 2 * pserver._BLOCK + 37, delay, mode, 35,
                                          init=(2.0, -2.0), frozen_workers=(0,))
        assert record.config["resends"] > 100
        assert (record.workers == 0).any()

    def test_block_path_off_centre_proposal_3d(self):
        # proposals center + scale * z, built per block from the kept normals
        delay = DelayModel("fifo_fixed", {"latency": 1.0, "periods": [1.0, 0.5, 2.0], "jitter": 0.4},
                           staleness_cap=64)
        record = assert_pserver_identical(off_centre_kernel(), 3, 2 * pserver._BLOCK + 37, delay,
                                          "mh_corrected", 37)
        assert 0 < record.accept_rate < 1

    def test_block_path_off_centre_naive_resends_with_a_frozen_worker(self):
        delay = DelayModel("reorder_random", {"span": 12, "jitter": 0.3}, staleness_cap=5)
        record = assert_pserver_identical(off_centre_kernel(), 3, 2 * pserver._BLOCK + 37, delay,
                                          "naive_accept", 38, init=(1.0, -1.0, 0.5), frozen_workers=(1,))
        assert record.config["resends"] > 100
        assert (record.workers == 1).any()

    def test_block_path_liveness_error_message(self, monkeypatch):
        delay = DelayModel("fifo_fixed", {"latency": 1.0, "jitter": 0.0, "periods": 0.0}, staleness_cap=0)
        monkeypatch.setattr(pserver, "MAX_RESENDS", 50)
        messages = []
        for run in (run_pserver, reference_run_pserver):
            with pytest.raises(LivenessError) as info:
                run(bench_kernel(), 3, 1000, delay, "mh_corrected", 2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_block_path_takes_densities_per_block(self):
        shapes = []

        class CountedProposal(GaussianIndependenceProposal):
            def logpdf(self, y, x, params=None):
                shapes.append(np.shape(y[0]))
                return super().logpdf(y, x, params)

        target = bench_kernel().target
        kernel = KernelSpec("metropolis_hastings", target, CountedProposal([0.0, 0.0], 1.5))
        delay = DelayModel("reorder_random", {"span": 12, "jitter": 0.3}, staleness_cap=5)
        horizon = 2 * pserver._BLOCK + 37
        record = run_pserver(kernel, 3, horizon, delay, "mh_corrected", 36)
        # the initial reverse density, then one call per block; dropped
        # messages get none
        assert shapes == [(), (pserver._BLOCK,), (pserver._BLOCK,), (37,)]
        assert record.config["resends"] > 0

    def test_liveness_error_message(self, monkeypatch):
        target = finite_target([1.0, 2.0, 3.0])
        kernel = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        delay = DelayModel(
            "fifo_fixed", {"latency": 1.0, "jitter": 0.0, "periods": 0.0}, staleness_cap=0
        )
        monkeypatch.setattr(pserver, "MAX_RESENDS", 50)
        messages = []
        for run in (run_pserver, reference_run_pserver):
            with pytest.raises(LivenessError) as info:
                run(kernel, 3, 1000, delay, "mh_corrected", 2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def counted_kernel(case):
    table = finite_target([1.0, 2.0, 3.0, 0.5])
    if case == "finite_mh":
        return KernelSpec("metropolis_hastings", table, UniformIndependenceProposal(table.support))
    if case == "gibbs":
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.9).precision)
        return KernelSpec("gibbs_single_site", target)
    if case == "coupled":
        prop = TableIndependenceProposal(table.support, [1.0, 3.0, 2.0, 1.0])
        return KernelSpec("metropolis_hastings", table, prop)
    return bench_kernel()


@pytest.mark.parametrize("case", ["finite_mh", "gibbs", "coupled", "block"])
def test_server_receive_once_per_processed_message(monkeypatch, case):
    # the per-message path decides every delivery through the module's
    # server_receive, dropped stale messages excluded; the block path decides inline
    calls = []
    step = pserver.server_receive

    def counted(*args):
        calls.append(args[2][0])  # the message's read version
        return step(*args)

    monkeypatch.setattr(pserver, "server_receive", counted)
    delay = DelayModel("reorder_random", {"span": 12, "jitter": 0.3}, staleness_cap=5)
    record = run_pserver(counted_kernel(case), 3, 2000, delay, "mh_corrected", 41,
                         frozen_workers=(0,) if case == "gibbs" else (), coupled=case == "coupled")
    assert record.config["resends"] > 0
    assert calls == ([] if case == "block" else record.read_versions.tolist())


# ---------------------------------------------------------------------------
# Shared-memory replay path: writers, replay loop, validate, Event
# ---------------------------------------------------------------------------


def reference_schedule_to_jsonl(s):
    """One ``json.dumps`` per line."""
    lines = [json.dumps({"kind": "meta", "workers": s.workers, "staleness_bound": s.staleness_bound})]
    for ev in s.events:
        lines.append(
            json.dumps({"seq": ev.seq, "worker": ev.worker, "read_from": ev.read_from, "kind": ev.kind})
        )
    return "\n".join(lines) + "\n"


def reference_server_trace_lines(record):
    yield json.dumps(
        {"kind": "meta", "workers": record.config["m"], "staleness_bound": record.staleness_bound}
    )
    rows = zip(record.workers.tolist(), record.read_versions.tolist(), record.accepted.tolist())
    for seq, (worker, read_version, accepted) in enumerate(rows):
        doc = {"seq": seq, "worker": worker, "read_from": read_version - 1, "kind": "server_commit"}
        yield json.dumps({**doc, "accepted": accepted})


def reference_samples_csv(record):
    """One ``json.dumps`` per sample."""
    lines = ["seq,worker,state"]
    for ev, state in zip(record.trace.events, record.states):
        text = json.dumps(list(state)) if isinstance(state, tuple) else json.dumps(state)
        lines.append(f'{ev.seq},{ev.worker},"{text}"')
    return "\n".join(lines) + "\n"


def reference_replay_samples(kernel, schedule, seed):
    """The dict-of-versions loop, one ``Event`` attribute read at a time."""
    rngs = worker_streams(seed, schedule.workers)
    versions = {-1: default_init(kernel.target)}
    states = []
    for ev in schedule.events:
        versions[ev.seq] = state = kernel_step(kernel, versions[ev.read_from], rngs[ev.worker])
        states.append(state)
    return states


def reference_validate(s):
    """Every worker's silence checked at every event."""
    b, m = s.staleness_bound, s.workers
    last_write = [-1] * m
    for k, ev in enumerate(s.events):
        if ev.seq != k:
            return ScheduleViolation(ev.seq, "sequence", f"expected seq {k}")
        if not 0 <= ev.worker < m:
            return ScheduleViolation(k, "sequence", f"worker {ev.worker} out of range")
        if not -1 <= ev.read_from < ev.seq:
            return ScheduleViolation(k, "sequence", f"read_from {ev.read_from} outside [-1, {ev.seq})")
        if ev.seq - ev.read_from > b:
            return ScheduleViolation(
                k, "staleness", f"staleness {ev.seq - ev.read_from} exceeds bound {b}"
            )
        for w in range(m):
            if w != ev.worker and k - last_write[w] > b:
                return ScheduleViolation(
                    k, "no_worker_dies", f"worker {w} silent through window ending at {k}"
                )
        if k - last_write[ev.worker] > b:
            return ScheduleViolation(
                k, "no_worker_dies", f"worker {ev.worker} silent through window ending at {k}"
            )
        last_write[ev.worker] = k
    n = len(s.events)
    for w in range(m):
        if n - last_write[w] > b:
            return ScheduleViolation(
                max(n - 1, 0), "no_worker_dies", f"worker {w} absent from the final window"
            )
    return None


def replay_kernels():
    finite = finite_target([1.0, 2.0, 3.0, 0.5])
    product = product_finite_target([(0, 1), (0, 1, 2)], lambda x: float(x[0] + x[1]))
    gauss = gaussian_target((0.5, -1.0), GaussianTarget.bivariate_correlated(0.8).precision)
    return {
        "finite_uniform": KernelSpec(
            "metropolis_hastings", finite, UniformIndependenceProposal(finite.support)
        ),
        "finite_table": KernelSpec(
            "metropolis_hastings", finite,
            TableIndependenceProposal(finite.support, [1.0, 3.0, 2.0, 1.0]),
        ),
        "finite_gibbs": KernelSpec("gibbs_single_site", finite),
        "finite_identity": KernelSpec("metropolis_hastings", finite, IdentityProposal()),
        "product_gibbs": KernelSpec("gibbs_single_site", product),
        "product_systematic": KernelSpec("systematic_gibbs", product),
        "product_site_mh": KernelSpec("metropolis_hastings", product, GibbsSiteProposal(product)),
        "gaussian_walk": KernelSpec("metropolis_hastings", gauss, GaussianRandomWalkProposal(0.7)),
        "gaussian_gibbs": KernelSpec("gibbs_single_site", gauss),
        "gaussian_systematic": KernelSpec("systematic_gibbs", gauss),
    }


def replay_schedules(m, b, length, seed):
    named = {"random": random_schedule(m, b, length, np.random.default_rng(seed))}
    named["synchronous"] = synchronous_schedule(m, length, b)
    named.update(adversarial_schedules(m, b, length))
    return named


class TestReplayPath:
    @pytest.mark.parametrize("kernel_name", sorted(replay_kernels()))
    @pytest.mark.parametrize("m,b,seed", [(1, 1, 0), (3, 5, 1), (4, 8, 2)])
    def test_replay_and_writers_match_references(self, kernel_name, m, b, seed):
        kernel = replay_kernels()[kernel_name]
        for name, schedule in replay_schedules(m, b, 600, seed).items():
            record = replay(kernel, schedule, seed)
            want = reference_replay_samples(kernel, schedule, seed)
            # repr tells 0.0 from -0.0 and keeps label types apart
            assert repr(record.states) == repr(want), name
            assert samples_csv(record) == reference_samples_csv(record), name
            assert schedule_to_jsonl(schedule) == reference_schedule_to_jsonl(schedule), name

    @pytest.mark.parametrize(
        "kernel_name", sorted(n for n, k in replay_kernels().items() if k.target.is_finite)
    )
    def test_long_finite_replay_matches_reference(self, kernel_name):
        # one worker steps 5000 times: many bulk chunks on the index path
        kernel = replay_kernels()[kernel_name]
        schedule = synchronous_schedule(1, 5000)
        record = replay(kernel, schedule, 7)
        assert repr(record.states) == repr(reference_replay_samples(kernel, schedule, 7))

    def test_samples_csv_tells_equal_states_apart(self):
        negative = (-0.0, 1.0)
        states = [(0.0, 1.0), negative, (0.0, 1.0), negative, 1, 1.0, True, (float("nan"), 2.5)]
        schedule = synchronous_schedule(1, len(states))
        record = RunRecord(schedule, states, {})
        text = samples_csv(record)
        assert text == reference_samples_csv(record)
        assert text.count('"[-0.0, 1.0]"') == 2 and text.count('"[0.0, 1.0]"') == 2

    def test_server_commit_traces_match_reference(self):
        target = finite_target([1.0, 2.0, 3.0])
        kernel = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        delay = DelayModel("reorder_random", {"span": 6}, staleness_cap=5)
        record = run_pserver(kernel, 3, 2000, delay, "mh_corrected", 4)
        assert list(trace_jsonl_lines(record)) == list(reference_server_trace_lines(record))
        schedule = schedule_from_jsonl("\n".join(trace_jsonl_lines(record)))
        assert schedule_to_jsonl(schedule) == reference_schedule_to_jsonl(schedule)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_with_output(seed, position, word):
    """A PCG64 ``Generator`` whose raw output number ``position`` is
    ``word``, set by rewinding the LCG from a state whose XSL-RR output is
    that word."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    high = 0x9E3779B97F4A7C15  # any high half: its top 6 bits set the rotation
    rot = high >> 58
    low = high ^ (((word << rot) | (word >> (64 - rot))) & (2**64 - 1))
    s = (high << 64) | low
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(position + 1):
        s = (s - inc) * inverse % 2**128
    state["state"]["state"] = s
    rng.bit_generator.state = state
    return rng


def uniform_kernel(weights=(1.0, 2.0, 3.0, 0.5)):
    target = finite_target(list(weights))
    return KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))


def table_kernel(table, weights=(1.0, 2.0, 3.0, 0.5)):
    target = finite_target(list(weights))
    return KernelSpec("metropolis_hastings", target, TableIndependenceProposal(target.support, list(table)))


def replay_on(monkeypatch, kernel, schedule, make_rngs):
    """The replay and the scalar reference, each on its own ``make_rngs()``."""
    monkeypatch.setattr(shmem, "worker_streams", lambda seed, m: make_rngs())
    record = replay(kernel, schedule, 0)
    rngs, versions = make_rngs(), {-1: default_init(kernel.target)}
    for ev in schedule.events:
        versions[ev.seq] = kernel_step(kernel, versions[ev.read_from], rngs[ev.worker])
    return record.states, [versions[seq] for seq in range(len(schedule.events))]


class TestIndexReplay:
    """Metropolis-Hastings replays on state indices against ``kernel_step``,
    and the table-proposal edge cases, which replay through ``kernel_step``."""

    def assert_matches(self, kernel, schedule, seed):
        record = replay(kernel, schedule, seed)
        assert repr(record.states) == repr(reference_replay_samples(kernel, schedule, seed))
        return record.states

    def test_on_indices_only_for_the_uniform_proposal(self):
        on = {n for n, k in replay_kernels().items() if kernels.steps_on_indices(k)}
        assert on == {"finite_uniform"}
        target = finite_target([1.0, 2.0])
        elsewhere = UniformIndependenceProposal(StateSpace(list(target.support.labels)))
        assert not kernels.steps_on_indices(KernelSpec("metropolis_hastings", target, elsewhere))

    def test_zero_weight_initial_label_is_refused(self):
        kernel = uniform_kernel(weights=(0.0, 2.0, 3.0, 0.5))
        schedule = synchronous_schedule(2, 100)
        with pytest.raises(ValidationError, match="outside the target support") as got:
            replay(kernel, schedule, 0)
        with pytest.raises(ValidationError) as want:
            reference_replay_samples(kernel, schedule, 0)
        assert str(got.value) == str(want.value)

    def test_zero_weight_state_is_never_entered(self):
        kernel = uniform_kernel(weights=(1.0, 0.0, 3.0, 0.0))
        for label, schedule in replay_schedules(3, 5, 900, 4).items():
            states = self.assert_matches(kernel, schedule, 4)
            assert {1, 3}.isdisjoint(states), label

    @pytest.mark.parametrize("table,visited", [
        ((1.0, 0.0, 2.0, 0.0), {0, 2}),
        ((0.0, 3.0, 2.0, 0.0), {0}),  # no way back to the initial state: no move is accepted
    ])
    def test_table_with_zero_and_trailing_zero_weights(self, table, visited):
        kernel = table_kernel(table)
        for schedule in replay_schedules(2, 4, 700, 5).values():
            assert set(self.assert_matches(kernel, schedule, 5)) == visited

    def test_draw_past_trailing_zero_weight_is_refused(self):
        # the table's cumulative sum stops short of 1, so a uniform past it
        # is clipped onto the last state, whose weight is 0
        kernel = table_kernel((1.0, 3.0, 2.0, 0.0))
        kernel.proposal._cum = kernel.proposal._cum / 2
        schedule = synchronous_schedule(1, 5)
        with pytest.raises(ProposalInconsistencyError):
            reference_replay_samples(kernel, schedule, 6)
        with pytest.raises(ProposalInconsistencyError):
            replay(kernel, schedule, 6)

    @pytest.mark.parametrize("length", [7, 2501])
    def test_one_state_target(self, length):
        kernel = uniform_kernel(weights=(2.0,))
        states = self.assert_matches(kernel, random_schedule(3, 4, length, np.random.default_rng(1)), 2)
        assert set(states) == {0}

    def test_stream_lengths_around_the_switches(self):
        # one worker's stream drawn one step at a time, in one chunk and over
        # several chunks, at odd and even lengths either side of each switch
        kernel = uniform_kernel()
        least, chunk = kernels._MIN_BULK_STEPS, kernels._BULK_STEPS
        for length in (1, least - 1, least, least + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            self.assert_matches(kernel, synchronous_schedule(1, length), length)
        # three workers whose stream lengths fall on both sides of the switch
        for length in (3 * least - 2, 3 * chunk + 5):
            self.assert_matches(kernel, synchronous_schedule(3, length), length)
        self.assert_matches(kernel, adversarial_schedules(3, 40, 4000)["single_worker_dominant"], 8)

    @pytest.mark.parametrize("step", [1, 2, 3, kernels._BULK_STEPS + 6, kernels._BULK_STEPS + 9])
    def test_rejected_half_word_falls_back(self, monkeypatch, step):
        # at 3 states Lemire rejects only the half-word 0; put it where the
        # uniform proposal of ``step`` (0-based) reads its half-word: the
        # low half of output 3 * (step // 2) at an even step, its high half
        # at an odd one.  The replay must redraw from the chunk's start.
        kernel = uniform_kernel(weights=(1.0, 2.0, 3.0))
        position, word = 3 * (step // 2), 0x1234_5678 << 32 if step % 2 == 0 else 0x1234_5678
        assert pcg64_with_output(3, position, word).bit_generator.random_raw(position + 1)[-1] == word
        crafted = lambda: [pcg64_with_output(3, position, word), *worker_streams(3, 2)[1:]]  # noqa: E731
        rejected, bulk_uniform = [], kernels._bulk_uniform

        def spy(*args):
            pairs = bulk_uniform(*args)
            rejected.append(pairs is None)
            return pairs

        monkeypatch.setattr(kernels, "_bulk_uniform", spy)
        schedule = random_schedule(2, 3, 2 * kernels._BULK_STEPS + 501, np.random.default_rng(3))
        got, want = replay_on(monkeypatch, kernel, schedule, crafted)
        assert repr(got) == repr(want)
        assert rejected.count(True) == 1

    def test_stream_entered_with_buffered_half_word(self, monkeypatch):
        def buffered():
            rngs = worker_streams(9, 2)
            state = rngs[0].bit_generator.state
            state.update(has_uint32=1, uinteger=0x89AB_CDEF)
            rngs[0].bit_generator.state = state
            return rngs

        schedule = random_schedule(2, 3, 600, np.random.default_rng(9))
        got, want = replay_on(monkeypatch, uniform_kernel(), schedule, buffered)
        assert repr(got) == repr(want)


def _rewrite(events, k, **fields):
    ev = events[k]
    events[k] = Event(*(fields.get(f, getattr(ev, f)) for f in Event._fields))


def _silence(events, worker, start, stop, m):
    """Hand ``worker``'s writes in ``[start, stop)`` to the next worker."""
    for k in range(max(start, 0), min(stop, len(events))):
        if events[k].worker == worker:
            _rewrite(events, k, worker=(worker + 1) % m)


def mutate(schedule, rng):
    """A copy of ``schedule`` with one randomly chosen invariant attacked."""
    events = list(schedule.events)
    n, m, b = len(events), schedule.workers, schedule.staleness_bound
    k = int(rng.integers(n))
    kind = int(rng.integers(8))
    if kind == 0:  # wrong seq
        _rewrite(events, k, seq=k + int(rng.choice([-2, -1, 1, 3])))
    elif kind == 1:  # worker out of range
        _rewrite(events, k, worker=int(rng.choice([-1, m, m + 2])))
    elif kind == 2:  # read too stale, or outside [-1, seq)
        _rewrite(events, k, read_from=k - b - int(rng.integers(1, 3)) if rng.random() < 0.8 else k)
    elif kind == 3:  # another worker falls silent
        w = int(rng.integers(m))
        _silence(events, w, k, k + b + int(rng.integers(1, 4)), m)
    elif kind == 4:  # the writer of event k had been silent too long
        w = events[k].worker
        _silence(events, w, k - b - int(rng.integers(0, 3)), k, m)
    elif kind == 5:  # a worker missing from the final window
        _silence(events, int(rng.integers(m)), n - b - int(rng.integers(0, 3)), n, m)
    elif kind == 6 and m >= 3 and n > b:  # two workers miss the opening window, one writes at b
        low, high = sorted(int(w) for w in rng.choice(m, 2, replace=False))
        other = next(w for w in range(m) if w not in (low, high))
        for j in range(b):
            if events[j].worker in (low, high):
                _rewrite(events, j, worker=other)
        _rewrite(events, b, worker=low if rng.random() < 0.5 else high)
    else:  # several random fields at once
        for _ in range(int(rng.integers(1, 4))):
            j = int(rng.integers(n))
            _rewrite(
                events, j,
                worker=int(rng.integers(-1, m + 1)),
                read_from=j - int(rng.integers(0, b + 3)),
            )
    return Schedule(tuple(events), m, b)


def report_kind(report, schedule):
    if report.invariant != "no_worker_dies":
        for kind in ("expected seq", "out of range", "outside", "exceeds bound"):
            if kind in report.detail:
                return kind
    if "final window" in report.detail:
        return "final"
    writer = schedule.events[report.seq].worker
    return "silent_writer" if report.detail.startswith(f"worker {writer} ") else "silent_other"


class TestValidateAgainstFullLoop:
    def test_mutated_schedules(self):
        rng = np.random.default_rng(23)
        seen = set()
        for trial in range(6000):
            m = int(rng.integers(1, 6))
            b = int(rng.integers(m, m + 6))
            base = random_schedule(m, b, int(rng.integers(b, 4 * b + 10)), rng)
            schedule = base if trial % 10 == 0 else mutate(base, rng)
            got = validate(schedule)
            assert got == reference_validate(schedule), (trial, schedule)
            if got is not None:
                seen.add(report_kind(got, schedule))
        # every report the full loop can make was produced and matched
        assert seen == {
            "expected seq", "out of range", "outside", "exceeds bound",
            "silent_other", "silent_writer", "final",
        }, seen


class TestEvent:
    def test_immutable(self):
        ev = Event(seq=3, worker=1, read_from=2)
        with pytest.raises(AttributeError):
            ev.seq = 4
        with pytest.raises(AttributeError):
            ev.extra = 1
        assert ev == Event(3, 1, 2, "write") and ev.kind == "write"
        assert ev._replace(kind="server_commit").kind == "server_commit"


def reference_detailed_balance_error(kernel):
    """The largest ``|pi_i P_ij - pi_j P_ji|``, one pair at a time."""
    rows = kernels.render_matrix(kernel).rows
    pi = kernels.target_distribution(kernel.target).probs.astype(float)
    n = len(pi)
    return float(max(abs(pi[i] * rows[i][j] - pi[j] * rows[j][i]) for i in range(n) for j in range(n)))


@pytest.mark.parametrize(
    "proposal",
    [{"type": "uniform_independence"}, {"type": "table_independence", "weights": [1.0, 3.0, 2.0, 0.5]}],
)
def test_detailed_balance_error_matches_pairwise_loop(proposal, tmp_path):
    doc = {
        "name": "db", "mode": "pserver", "seed": 3, "m": 1, "horizon": 100,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0, 0.5]},
        "kernel": {"kind": "metropolis_hastings", "proposal": proposal},
        "correction": "mh_corrected", "out_dir": str(tmp_path),
        "delay": {"kind": "fifo_fixed", "params": {"latency": 0.0}, "staleness_cap": 0},
    }
    code, summary = cli.run_experiment(cli.ExperimentConfig.from_dict(doc))
    target = cli.build_target(doc["target"])
    kernel = cli.build_kernel(doc["kernel"], target)
    assert code == 0
    assert summary["detailed_balance_error"] == reference_detailed_balance_error(kernel)

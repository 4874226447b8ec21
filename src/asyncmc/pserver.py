"""Simulated parameter-server execution with server-side MH correction.

Workers read the server's state, compute a proposal from that possibly stale
read, and send it in; the server accepts each incoming proposal against its
CURRENT state with probability ``min{1, pi(x*) f(x_s|x) / (pi(x_s) f(x*|x))}``
where ``x`` is the state the worker read and ``x_s`` the server's state at
receipt.  A switchable naive mode accepts everything, reproducing the known
divergence of uncorrected asynchronous Gibbs.

How a proposal lands depends on its scope:

* full-state proposals replace the whole server state on accept, and the
  server trusts the worker-shipped density of the proposed state;
  :func:`run_pserver` takes only those whose law ignores the current state
  (``SERVER_PROPOSALS``), and rejects a random walk;
* site proposals (Gibbs conditionals) and slot proposals (coupled replicas)
  apply their one updated component to the server's current state, which is
  the componentwise reading of the coupled-operator picture; the density of
  that merged candidate is evaluated server-side since no worker can know it.

The simulation is a deterministic discrete-event loop: worker sends and
message deliveries live in one priority queue keyed by virtual time; workers
re-read the server at each send (except explicitly frozen workers, which
keep re-serving their first read forever, the aggressive-staleness regime);
the delay model sets per-message latency, per-worker send cadence, and the
staleness cap enforced by backpressure.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LivenessError,
    NumericError,
    ParameterError,
    ProtocolError,
    UnsupportedTargetError,
    ValidationError,
)
from .kernels import (
    GaussianIndependenceProposal,
    GibbsSiteProposal,
    KernelSpec,
    TableIndependenceProposal,
    TargetDensity,
    UniformIndependenceProposal,
    _PCG64Draws,
    default_init,
    worker_streams,
)
from .measures import StateSpace
from .schedules import Event, Schedule, minimal_valid_bound, trace_lines

NEG_INF = float("-inf")
POS_INF = float("inf")
MODES = ("mh_corrected", "naive_accept")
DELAY_KINDS = ("fifo_fixed", "fifo_random", "reorder_random")
# The full-state proposals whose law ignores the state they move from.  Only
# for those is the reverse density f(x_s | x) of a stale read x the valid
# MH ratio; a random walk's law moves with x, and its corrected server chain
# is not pi-invariant.
SERVER_PROPOSALS = (UniformIndependenceProposal, TableIndependenceProposal, GaussianIndependenceProposal)
SERVER_KERNELS = ("metropolis_hastings", "gibbs_single_site")
# Latencies are drawn from [0, span] as int64, so the top of the range is
# numpy's int64 limit.
MAX_SPAN = 2**63 - 1


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


def _check_number(name: str, value, *, integer: bool = False) -> None:
    if integer:
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and math.isfinite(value) and value >= 0
    if not ok:
        kind = "an integer >= 0" if integer else "a finite number >= 0"
        raise ParameterError(f"{name}: must be {kind}, got {value!r}")


@dataclass(frozen=True)
class DelayModel:
    """Latency law, per-worker send cadence, and the staleness cap.

    ``params`` per kind: ``latency`` (fifo_fixed), ``mean`` (fifo_random,
    geometric), ``span`` (reorder_random, uniform integer).  Optional keys
    for any kind: ``periods`` (scalar or per-worker list of send cadences)
    and ``jitter``.  Every number must be finite and non-negative, and
    ``span`` an integer.
    """

    kind: str
    params: dict = field(default_factory=dict)
    staleness_cap: int = 64

    def __post_init__(self):
        if self.kind not in DELAY_KINDS:
            raise ParameterError(f"delay.kind: unknown delay kind {self.kind!r}")
        cap = self.staleness_cap
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise ParameterError(f"delay.staleness_cap: must be an integer >= 0, got {cap!r}")
        params = self.params
        if not isinstance(params, dict):
            raise ParameterError(f"delay.params: must be an object, got {params!r}")
        for key in ("latency", "mean", "jitter"):
            if key in params:
                _check_number(f"delay.params.{key}", params[key])
        if "span" in params:
            _check_number("delay.params.span", params["span"], integer=True)
            if params["span"] > MAX_SPAN:
                raise ParameterError(
                    f"delay.params.span: must be at most 2**63 - 1, got {params['span']!r}"
                )
        periods = params.get("periods", 1.0)
        if isinstance(periods, (list, tuple)):
            for i, period in enumerate(periods):
                _check_number(f"delay.params.periods[{i}]", period)
        else:
            _check_number("delay.params.periods", periods)

    def latency_sampler(self, rng: np.random.Generator):
        """A no-argument function drawing one message latency from ``rng``."""
        if self.kind == "fifo_fixed":
            latency = float(self.params.get("latency", 0.0))
            return lambda: latency
        if self.kind == "fifo_random":
            p = 1.0 / (1.0 + float(self.params.get("mean", 2.0)))
            geometric = rng.geometric
            return lambda: float(geometric(p) - 1)
        high = self.params.get("span", 8) + 1
        integers = rng.integers
        return lambda: float(integers(0, high))

    def periods(self, m: int) -> list[float]:
        """Send cadence of each of ``m`` workers."""
        periods = self.params.get("periods", 1.0)
        if not isinstance(periods, (list, tuple)):
            return [float(periods)] * m
        if len(periods) != m:
            raise ParameterError(
                f"delay.params.periods: has {len(periods)} entries, need one per worker (m={m})"
            )
        return [float(p) for p in periods]

    @property
    def jitter(self) -> float:
        return float(self.params.get("jitter", 0.25))


def coupled_embed(target: TargetDensity, m: int) -> TargetDensity:
    """Product target over ``m`` replicas; marginal ``i`` is the original.

    States are tuples of base states.  For finite base targets the result is
    itself finite with the product space enumerated explicitly.
    """
    if m < 1:
        raise ParameterError("need at least one replica")

    def log_unnorm(xs):
        return sum(target.log_unnorm(x) for x in xs)

    support = None
    if target.is_finite:
        labels = tuple(itertools.product(*([target.support.labels] * m)))
        support = StateSpace(labels)
    return TargetDensity(dim=m, log_unnorm=log_unnorm, support=support)


class SlotProposal:
    """Propose a new value for one replica slot of a coupled state."""

    symmetric = False

    def __init__(self, base, slot: int):
        self.base = base
        self.slot = int(slot)
        self.proposal_id = f"slot{slot}:{base.proposal_id}"

    def sample(self, xs, rng: np.random.Generator):
        value, base_params = self.base.sample(xs[self.slot], rng)
        out = list(xs)
        out[self.slot] = value
        return tuple(out), {"slot": self.slot, **base_params}

    def logpdf(self, ys, xs, params) -> float:
        return self.base.logpdf(ys[self.slot], xs[self.slot], params)


def _candidate(current, x_star, log_pi_x_star: float, params: dict):
    """The proposed next server state and, when known, its shipped density."""
    component = params.get("slot")
    if component is None:
        component = params.get("site")
    if component is None:
        return x_star, log_pi_x_star
    out = list(current)
    out[component] = x_star[component]
    return tuple(out), None


def _log_accept_ratio(num: float, den: float) -> float:
    """``num - den``; a zero-density numerator wins over a zero denominator."""
    if num == NEG_INF:
        return NEG_INF
    if den == NEG_INF:
        return POS_INF
    log_ratio = num - den
    if math.isnan(log_ratio):
        raise NumericError(f"non-finite acceptance arithmetic: num={num}, den={den}")
    return log_ratio


def server_receive(
    st: ServerState,
    msg: ServerMessage,
    target: TargetDensity,
    proposals: dict,
    rng: np.random.Generator,
    *,
    mode: str = "mh_corrected",
    debug_revalidate: bool = False,
) -> tuple[ServerState, bool, float]:
    """Process one message; returns (new state, accepted, log accept ratio).

    Exactly one uniform is drawn per message in either mode, so corrected
    and naive runs with the same seed consume identical randomness.  This is
    the one-message reference for the loop in :func:`run_pserver`.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    family = proposals.get(msg.proposal_id)
    if family is None:
        raise ProtocolError(f"proposal id {msg.proposal_id!r} is not registered")
    if msg.read_version > st.version:
        raise ProtocolError(
            f"message read version {msg.read_version} is ahead of the server ({st.version})"
        )
    if debug_revalidate:
        actual = target.log_unnorm(msg.x_star)
        if not math.isclose(actual, msg.log_pi_x_star, rel_tol=0, abs_tol=1e-10):
            raise ValidationError(
                f"worker-shipped density {msg.log_pi_x_star} disagrees with target ({actual})"
            )
        cached = target.log_unnorm(st.tagged.value)
        if not math.isclose(cached, st.tagged.log_pi, rel_tol=0, abs_tol=1e-10):
            raise ValidationError(
                f"server cached density {st.tagged.log_pi} disagrees with target ({cached})"
            )

    cand_value, cand_lp = _candidate(st.tagged.value, msg.x_star, msg.log_pi_x_star, msg.params)
    if cand_lp is None:
        cand_lp = target.log_unnorm(cand_value)
    log_f_reverse = family.logpdf(st.tagged.value, msg.x, msg.params)
    log_ratio = _log_accept_ratio(cand_lp + log_f_reverse, st.tagged.log_pi + msg.log_f_forward)

    u = rng.random()
    accepted = mode == "naive_accept" or log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        new = ServerState(TaggedState(cand_value, cand_lp), st.version + 1, st.commit_count + 1)
    else:
        new = ServerState(st.tagged, st.version + 1, st.commit_count)
    return new, accepted, log_ratio


@dataclass(frozen=True)
class PServerRecord:
    """What a parameter-server run did, one array entry per processed message.

    Message ``i`` produced server version ``i + 1`` from a read of version
    ``read_versions[i]``; as a schedule event it is ``seq = i`` reading
    ``read_from = read_versions[i] - 1``.
    """

    workers: np.ndarray
    read_versions: np.ndarray
    accepted: np.ndarray
    log_ratios: np.ndarray
    states: np.ndarray  # (horizon, dim) floats, (horizon, m, dim) if coupled, or (horizon,) label indices
    config: dict
    target: TargetDensity

    @property
    def accept_rate(self) -> float:
        return float(self.accepted.mean())

    @property
    def staleness_bound(self) -> int:
        triples = np.column_stack(
            (np.arange(len(self.workers)), self.workers, self.read_versions - 1)
        )
        return minimal_valid_bound(triples, self.config["m"])

    @property
    def trace(self) -> Schedule:
        """The run as a ``server_commit`` schedule, built from the arrays on each access."""
        reads = (self.read_versions - 1).tolist()
        events = tuple(
            Event(seq, worker, read_from, "server_commit")
            for seq, (worker, read_from) in enumerate(zip(self.workers.tolist(), reads))
        )
        return Schedule(events, self.config["m"], self.staleness_bound)

    def state_labels(self) -> list:
        if not self.target.is_finite:
            raise UnsupportedTargetError("continuous runs store coordinates, not labels")
        labels = self.target.support.labels
        return [labels[i] for i in self.states]


def _worker_proposal(kernel: KernelSpec):
    if kernel.kind == "metropolis_hastings":
        if not isinstance(kernel.proposal, SERVER_PROPOSALS):
            raise UnsupportedTargetError(
                f"kernel.proposal.type: the server's correction needs a proposal that ignores "
                f"the current state ({', '.join(p.__name__ for p in SERVER_PROPOSALS)}), "
                f"got {type(kernel.proposal).__name__}"
            )
        return kernel.proposal
    if kernel.kind == "gibbs_single_site":
        return GibbsSiteProposal(kernel.target)
    raise UnsupportedTargetError(
        f"kernel.kind: {kernel.kind!r} has no parameter-server form; use one of {SERVER_KERNELS}"
    )


def run_pserver(
    kernel: KernelSpec,
    m: int,
    horizon: int,
    delay: DelayModel,
    mode: str,
    seed: int,
    *,
    init=None,
    frozen_workers: tuple = (),
    coupled: bool = False,
    max_resends: int = 1000,
) -> PServerRecord:
    """Drive ``m`` workers against one simulated server for ``horizon`` messages.

    Every processed message, accepted or rejected, increments the server
    version and lands in the record; the recorded state row is the server
    state right after processing.  With ``coupled=True`` the server holds
    ``m`` replica slots of the target and worker ``i`` only ever updates
    slot ``i``.  A message staler than the delay model's cap is dropped and
    its worker re-reads and resends; :class:`LivenessError` is raised when
    one worker's message is dropped more than ``max_resends`` times in a row
    (the count restarts each time one of its messages lands).

    The loop does per message what :func:`server_receive` does, on plain
    tuples: a heap entry is ``(time, tiebreak, worker, message)`` with
    ``message`` None for a send, and a message in flight is ``(read_version,
    x, x_star, log_pi_x_star, log_f_forward, params)``.  For
    ``metropolis_hastings`` the reverse density ``f(x_s | x)`` is ``q(x_s)``,
    since every proposal in ``SERVER_PROPOSALS`` ignores ``x``: it is taken
    once from ``logpdf`` of the initial state and replaced by the accepted
    message's ``log_f_forward``, one value per slot when coupled.  A
    ``gibbs_single_site`` message's reverse density depends on its read and
    is evaluated per message.

    Each worker's stream gives its proposal draws when it sends (dropped
    stale messages included) and one uniform per processed message; the
    infra stream gives one start offset per non-frozen worker, then a
    latency per send and a jitter per processed message, in the order they
    happen.  Except under ``fifo_random``, whose geometric latency needs
    numpy, the infra stream is read as PCG64 raw outputs fetched in bulk,
    giving the same numbers in the same order as the scalar calls.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if m < 1 or horizon < 1:
        raise ParameterError("m and horizon must be positive")
    periods = delay.periods(m)

    base_target = kernel.target
    if coupled:
        target = coupled_embed(base_target, m)
        base_proposal = _worker_proposal(kernel)
        worker_props = [SlotProposal(base_proposal, w) for w in range(m)]
        if init is None:
            init = tuple(default_init(base_target) for _ in range(m))
    else:
        target = base_target
        prop = _worker_proposal(kernel)
        worker_props = [prop] * m
        if init is None:
            init = default_init(base_target)

    # labels are compared, not hashed: a given init may hold any JSON value
    is_state = init in target.support.labels if target.is_finite else len(init) == target.dim
    if not is_state:
        raise ValidationError(f"params.init: {init!r} is not a state of the target")
    log_unnorm = target.log_unnorm
    init_lp = log_unnorm(init)
    if init_lp == NEG_INF:
        raise ValidationError("initial state lies outside the target support")

    rngs = worker_streams(seed, m, extra=1)
    # numpy's geometric draw cannot be rerun on raw words
    infra = rngs[m] if delay.kind == "fifo_random" else _PCG64Draws(rngs[m])
    latency = delay.latency_sampler(infra)
    jitter, infra_random = delay.jitter, infra.random
    samplers = [p.sample for p in worker_props]
    logpdfs = [p.logpdf for p in worker_props]
    cached_reverse = kernel.kind == "metropolis_hastings"
    slot_of = list(range(m)) if coupled else [0] * m
    if cached_reverse:
        reverse = [logpdfs[w](init, init, {}) for w in range(m if coupled else 1)]
    uniforms = [r.random for r in rngs[:m]]
    frozen = set(frozen_workers)

    heap: list = []
    for w in range(m):
        start = 0.0 if w in frozen else (jitter + 1e-9) * infra_random()
        heapq.heappush(heap, (start, w, w, None))
    tiebreak = m

    is_finite = target.is_finite
    if is_finite:
        index = {lab: i for i, lab in enumerate(target.support.labels)}
        states = np.empty(horizon, dtype=np.int64)
    else:
        states = np.empty((horizon, m, base_target.dim) if coupled else (horizon, target.dim))
    workers_arr = np.empty(horizon, dtype=np.int32)
    reads_arr = np.empty(horizon, dtype=np.int64)
    accepted_arr = np.empty(horizon, dtype=bool)
    ratios_arr = np.empty(horizon, dtype=float)

    naive = mode == "naive_accept"
    cap = delay.staleness_cap
    heappush, heappop, exp = heapq.heappush, heapq.heappop, math.exp
    value, log_pi = init, init_lp
    frozen_reads: dict = {}
    stalled = [0] * m  # consecutive stale resends of each worker's current message
    resends = sends = 0
    processed = 0  # also the server version
    while processed < horizon:
        t, _, w, msg = heappop(heap)
        if msg is not None:
            read_version, x, x_star, lp_star, log_f_forward, params = msg
            if processed - read_version <= cap:
                cand, cand_lp = _candidate(value, x_star, lp_star, params)
                if cand_lp is None:
                    cand_lp = log_unnorm(cand)
                if cached_reverse:
                    log_f_reverse = reverse[slot_of[w]]
                else:
                    log_f_reverse = logpdfs[w](value, x, params)
                log_ratio = _log_accept_ratio(cand_lp + log_f_reverse, log_pi + log_f_forward)
                u = uniforms[w]()
                accepted = naive or log_ratio >= 0.0 or u < exp(log_ratio)
                if accepted:
                    value, log_pi = cand, cand_lp
                    if cached_reverse:
                        reverse[slot_of[w]] = log_f_forward
                workers_arr[processed] = w
                reads_arr[processed] = read_version
                accepted_arr[processed] = accepted
                ratios_arr[processed] = log_ratio
                states[processed] = index[value] if is_finite else value
                processed += 1
                stalled[w] = 0
                heappush(heap, (t + periods[w] + jitter * infra_random(), tiebreak, w, None))
                tiebreak += 1
                continue
            # backpressure: re-read now and resend rather than apply a read
            # staler than the model allows
            resends += 1
            stalled[w] += 1
            if stalled[w] > max_resends:
                raise LivenessError(
                    f"worker {w} exceeded {max_resends} stale resends (cap {cap})"
                )
            frozen_reads.pop(w, None)  # a resend reads afresh, frozen or not
        if w in frozen_reads:
            x, read_version = frozen_reads[w]
        else:
            x, read_version = value, processed
            if w in frozen:
                frozen_reads[w] = (x, read_version)
        sends += 1
        x_star, params = samplers[w](x, rngs[w])
        msg = (read_version, x, x_star, log_unnorm(x_star), logpdfs[w](x_star, x, params), params)
        heappush(heap, (t + latency(), tiebreak, w, msg))
        tiebreak += 1

    config = {
        "mode": f"pserver:{mode}",
        "kernel": kernel.describe(),
        "m": m,
        "horizon": horizon,
        "seed": seed,
        "delay": {"kind": delay.kind, "params": delay.params, "staleness_cap": cap},
        "coupled": coupled,
        "frozen_workers": sorted(frozen),
        "messages_sent": sends,
        "resends": resends,
        "pending_at_exit": sum(1 for item in heap if item[3] is not None),
    }
    return PServerRecord(workers_arr, reads_arr, accepted_arr, ratios_arr, states, config, target)


def replica_marginal_indices(record: PServerRecord, slot: int, base: TargetDensity) -> np.ndarray:
    """Map a coupled finite run's states to one replica's label indices."""
    if not record.target.is_finite:
        raise UnsupportedTargetError("marginals by label need a finite target")
    base_index = {lab: i for i, lab in enumerate(base.support.labels)}
    coupled_labels = record.target.support.labels
    lookup = np.array([base_index[lab[slot]] for lab in coupled_labels], dtype=np.int64)
    return lookup[record.states]


def trace_jsonl_lines(record: PServerRecord):
    """The shared JSONL trace format plus each message's accepted flag, line by line.

    Nothing is computed before the first line is asked for, so a caller may
    hold this next to other writers without their row lists overlapping.
    """
    bound = record.staleness_bound  # before the row lists, so its temporaries are gone
    events = zip(
        itertools.count(),
        record.workers.tolist(),
        (record.read_versions - 1).tolist(),
        itertools.repeat("server_commit"),
    )
    flags = [', "accepted": false', ', "accepted": true']
    extras = map(flags.__getitem__, record.accepted.tolist())
    yield from trace_lines(record.config["m"], bound, events, extras)


# The log_ratio column has always been written as ``repr`` of a numpy
# float64, which numpy 2 spells ``np.float64(-1.25)``; wrapping the repr of
# a plain float in this prefix and suffix keeps those bytes.
_LOG_RATIO_PREFIX, _LOG_RATIO_SUFFIX = repr(np.float64(0.5)).split("0.5")


def messages_csv_lines(record: PServerRecord):
    """One CSV row per processed message, after a header row."""
    yield "seq,worker,read_version,accepted,log_ratio"
    prefix, suffix = _LOG_RATIO_PREFIX, _LOG_RATIO_SUFFIX
    rows = zip(
        record.workers.tolist(),
        record.read_versions.tolist(),
        record.accepted.view(np.int8).tolist(),
        record.log_ratios.tolist(),
    )
    for seq, (worker, read_version, accepted, log_ratio) in enumerate(rows):
        yield f"{seq},{worker},{read_version},{accepted},{prefix}{log_ratio!r}{suffix}"

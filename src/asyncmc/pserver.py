"""Simulated parameter-server execution with server-side MH correction.

Workers read the server's state, compute a proposal from that possibly stale
read, and send it in; the server accepts each incoming proposal against its
CURRENT state with probability ``min{1, pi(x*) f(x_s|x) / (pi(x_s) f(x*|x))}``
where ``x`` is the state the worker read and ``x_s`` the server's state at
receipt.  A switchable naive mode accepts everything, reproducing the known
divergence of uncorrected asynchronous Gibbs.

What the correction makes exact: a message from a proposal in
``SERVER_PROPOSALS`` ignores the state the worker read, so the corrected
server chain is independence MH at any staleness and leaves pi invariant.
A stale ``gibbs_single_site`` server chain does not: on two binary sites
with weights 00:10, 01:1, 10:1, 11:10, with every message reading one
version back, its stationary law is at TV 2.8e-2 from pi (computed on the
augmented chain of the last two server states).  Acceptance criterion 6
runs an independence proposal, so it cannot fail because of staleness.

How a proposal lands depends on its scope:

* full-state proposals replace the whole server state on accept;
  :func:`run_pserver` takes only those whose law ignores the current state
  (``SERVER_PROPOSALS``), and rejects a random walk;
* site proposals (Gibbs conditionals) and slot proposals (coupled replicas)
  apply their one updated component to the server's current state, which is
  the componentwise reading of the coupled-operator picture.  A coupled
  ``gibbs_single_site`` message would draw one site of one slot, so the
  rest of that slot would come from the stale read; :func:`run_pserver`
  refuses it unless the base target has one site, the whole slot.

Either way the server evaluates the density of the candidate itself: a
message carries the worker's read, its proposal and the forward proposal
density, and nothing else the decision reads.

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

from .errors import LivenessError, NumericError, UnsupportedTargetError, ValidationError, _only, _read
from .kernels import (
    GaussianIndependenceProposal,
    GibbsSiteProposal,
    KernelSpec,
    TableIndependenceProposal,
    TargetDensity,
    UniformIndependenceProposal,
    _DOUBLE_UNIT,
    _PCG64Draws,
    _finite_array,
    default_init,
    worker_streams,
)
from .schedules import minimal_valid_bound, trace_lines

NEG_INF = float("-inf")
POS_INF = float("inf")
MODES = ("mh_corrected", "naive_accept")
# each delay kind and the ``params`` key of its latency law
DELAY_KINDS = {"fifo_fixed": "latency", "fifo_random": "mean", "reorder_random": "span"}
# The full-state proposals whose law ignores the state they move from.  Only
# for those is the reverse density f(x_s | x) of a stale read x the valid
# MH ratio; a random walk's law moves with x, and its corrected server chain
# is not pi-invariant.
SERVER_PROPOSALS = (UniformIndependenceProposal, TableIndependenceProposal, GaussianIndependenceProposal)
SERVER_KERNELS = ("metropolis_hastings", "gibbs_single_site")
# Latencies are drawn from [0, span] as int64, so the top of the range is
# numpy's int64 limit.
MAX_SPAN = 2**63 - 1
# Processed messages whose densities and accept decisions the block path
# resolves at once (see run_pserver).
_BLOCK = 1024
# Stale resends of one message in a row after which a run is not live.
MAX_RESENDS = 1000


@dataclass(frozen=True)
class DelayModel:
    """Latency law, per-worker send cadence, and the staleness cap.

    ``params`` per kind: ``latency`` (fifo_fixed), ``mean`` (fifo_random,
    geometric; the default kind), ``span`` (reorder_random, uniform
    integer).  Optional keys for any kind: ``periods`` (scalar or per-worker
    list of send cadences) and ``jitter``.  Every field passes the config
    reader (``errors._read``): each number must be finite and >= 0, ``span``
    an integer below 2**63, and any other key, or a null, is refused by path.
    """

    kind: str = "fifo_random"
    params: dict = field(default_factory=dict)
    staleness_cap: int = 64

    def __post_init__(self):
        doc = vars(self)
        kind = _read(doc, "delay.kind", str)
        if kind not in DELAY_KINDS:
            raise ValidationError(f"delay.kind: unknown delay kind {kind!r}")
        _read(doc, "delay.staleness_cap", int, least=0)
        params = _read(doc, "delay.params", dict)
        _only(params, "delay.params", (DELAY_KINDS[kind], "periods", "jitter"))
        # a default that is not None, so a null is refused rather than read as absent
        for key in ("latency", "mean", "jitter"):
            _read(params, f"delay.params.{key}", float, 0.0, least=0)
        _read(params, "delay.params.span", int, 0, least=0, below=MAX_SPAN + 1)
        periods = params.get("periods")
        if isinstance(periods, (list, tuple)):  # each entry, named by its index
            entries = {f"periods[{i}]": period for i, period in enumerate(periods)}
            for name in entries:
                _read(entries, f"delay.params.{name}", float, least=0)
        else:
            _read(params, "delay.params.periods", float, 0.0, least=0)

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
            raise ValidationError(
                f"delay.params.periods: has {len(periods)} entries, need one per worker (m={m})"
            )
        return [float(p) for p in periods]

    @property
    def jitter(self) -> float:
        return float(self.params.get("jitter", 0.25))


def coupled_embed(target: TargetDensity, m: int) -> TargetDensity:
    """Product target over ``m`` replicas; marginal ``i`` is the original.

    States are tuples of base states; the product space is never enumerated.
    """
    if m < 1:
        raise ValidationError("need at least one replica")

    def log_unnorm(xs):
        return sum(target.log_unnorm(x) for x in xs)

    return TargetDensity(dim=m, log_unnorm=log_unnorm)


class SlotProposal:
    """Propose a new value for one replica slot of a coupled state."""

    def __init__(self, base, slot: int):
        self.base = base
        self.slot = int(slot)

    def sample(self, xs, rng: np.random.Generator):
        value, base_params = self.base.sample(xs[self.slot], rng)
        out = list(xs)
        out[self.slot] = value
        return tuple(out), {"slot": self.slot, **base_params}

    def logpdf(self, ys, xs, params) -> float:
        return self.base.logpdf(ys[self.slot], xs[self.slot], params)


def _candidate(current, x_star, params: dict, sites: int):
    """The proposed next server state.

    A site or slot proposal moves one component of ``current``, unless the
    state has one site (``sites``), when the proposal is the whole state.
    """
    component = params.get("slot")
    if component is None:
        component = params.get("site")
    if component is None or sites == 1:
        return x_star
    out = list(current)
    out[component] = x_star[component]
    return tuple(out)


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


def server_receive(value, log_pi: float, message: tuple, log_f_reverse: float, u: float, naive: bool,
                   target: TargetDensity) -> tuple:
    """One delivered message against the server state ``value`` of log density ``log_pi``.

    ``message`` is ``(read_version, x, x_star, log_f_forward, params)``;
    ``log_f_reverse`` is ``f(value | x)`` and ``u`` the message's accept
    uniform, both supplied by the caller.  Returns the next server state, its
    log density, whether the message was accepted, and the log accept ratio.
    ``naive`` accepts every message.
    """
    _, _, x_star, log_f_forward, params = message
    # a full-state message has no params, and is its own candidate
    cand = _candidate(value, x_star, params, target.dim) if params else x_star
    cand_lp = target.log_unnorm(cand)
    log_ratio = _log_accept_ratio(cand_lp + log_f_reverse, log_pi + log_f_forward)
    if naive or log_ratio >= 0.0 or u < math.exp(log_ratio):
        return cand, cand_lp, True, log_ratio
    return value, log_pi, False, log_ratio


@dataclass(frozen=True)
class PServerRecord:
    """What a parameter-server run did, one array entry per processed message.

    Message ``i`` produced server version ``i + 1`` from a read of version
    ``read_versions[i]``; as a schedule event it is ``seq = i`` reading
    ``read_from = read_versions[i] - 1``.

    ``states[i]`` is the server state after message ``i``: a ``(dim,)`` float
    row on a Gaussian target, the index of a label of a finite one.  A
    coupled run adds a replica axis after the message axis, so its states
    are ``(horizon, m, dim)`` floats or ``(horizon, m)`` label indices, and
    ``states[:, i]`` is replica ``i``'s chain.
    """

    workers: np.ndarray
    read_versions: np.ndarray
    accepted: np.ndarray
    log_ratios: np.ndarray
    states: np.ndarray
    config: dict

    @property
    def accept_rate(self) -> float:
        return float(self.accepted.mean())

    @property
    def staleness_bound(self) -> int:
        triples = np.column_stack(
            (np.arange(len(self.workers)), self.workers, self.read_versions - 1)
        )
        return minimal_valid_bound(triples, self.config["m"])


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


def _event_loop(horizon, periods, delay, infra, frozen, value, send, receive) -> dict:
    """Deliver messages in virtual-time order until ``horizon`` are processed.

    This is the timing, backpressure and liveness of every run.  A heap entry
    is ``(time, tiebreak, worker, message)`` with ``message`` None for a
    send.  ``send(w, x, read_version)`` composes worker ``w``'s message from
    its read of state ``x`` at ``read_version``, which must be the message's
    first element; ``receive(w, message)`` processes a delivery within the
    staleness cap and returns the state that later fresh reads see
    (``value`` before the first).  ``infra`` gives one start offset per
    non-frozen worker, then a latency per send and a jitter per processed
    message, in the order they happen.
    """
    m = len(periods)
    latency = delay.latency_sampler(infra)
    jitter, infra_random, cap = delay.jitter, infra.random, delay.staleness_cap
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: list = []
    for w in range(m):
        start = 0.0 if w in frozen else (jitter + 1e-9) * infra_random()
        heappush(heap, (start, w, w, None))
    tiebreak = m
    frozen_reads: dict = {}
    stalled = [0] * m  # consecutive stale resends of each worker's current message
    resends = sends = 0
    processed = 0  # also the server version
    while processed < horizon:
        t, _, w, msg = heappop(heap)
        if msg is not None:
            if processed - msg[0] <= cap:
                value = receive(w, msg)
                processed += 1
                stalled[w] = 0
                heappush(heap, (t + periods[w] + jitter * infra_random(), tiebreak, w, None))
                tiebreak += 1
                continue
            # backpressure: re-read now and resend rather than apply a read
            # staler than the model allows
            resends += 1
            stalled[w] += 1
            if stalled[w] > MAX_RESENDS:
                raise LivenessError(
                    f"worker {w} exceeded {MAX_RESENDS} stale resends (cap {cap})"
                )
            frozen_reads.pop(w, None)  # a resend reads afresh, frozen or not
        if w in frozen_reads:
            x, read_version = frozen_reads[w]
        else:
            x, read_version = value, processed
            if w in frozen:
                frozen_reads[w] = (x, read_version)
        sends += 1
        msg = send(w, x, read_version)
        heappush(heap, (t + latency(), tiebreak, w, msg))
        tiebreak += 1
    pending = sum(1 for item in heap if item[3] is not None)
    return {"messages_sent": sends, "resends": resends, "pending_at_exit": pending}


def _message_path(kernel, target, props, rngs, init, init_lp, naive, coupled, out):
    """``send`` and ``receive`` deciding each delivery against the server at once.

    A message is ``(read_version, x, x_star, log_f_forward, params)``.
    ``receive`` supplies the reverse density and the accept uniform, lets
    :func:`server_receive` decide, and writes the record rows.
    """
    workers_arr, reads_arr, accepted_arr, ratios_arr, states = out
    samplers = [p.sample for p in props]
    logpdfs = [p.logpdf for p in props]
    raws = [r.bit_generator.random_raw for r in rngs]
    cached_reverse = kernel.kind == "metropolis_hastings"
    slot_of = list(range(len(props))) if coupled else [0] * len(props)
    if cached_reverse:
        reverse = [logpdfs[w](init, init, {}) for w in range(len(props) if coupled else 1)]
    row = None  # a state as its record row, where that is not the state itself
    if kernel.target.is_finite:
        index = kernel.target.support._index
        row = (lambda xs: [index[x] for x in xs]) if coupled else index.__getitem__
    value, log_pi, processed = init, init_lp, 0

    def send(w, x, read_version):
        x_star, params = samplers[w](x, rngs[w])
        return read_version, x, x_star, logpdfs[w](x_star, x, params), params

    def receive(w, msg):
        nonlocal value, log_pi, processed
        read_version, x, _, log_f_forward, params = msg
        if cached_reverse:
            log_f_reverse = reverse[slot_of[w]]
        else:
            log_f_reverse = logpdfs[w](value, x, params)
        u = (raws[w]() >> 11) * _DOUBLE_UNIT
        # a global lookup per call, so a wrapper bound to pserver.server_receive sees every message
        value, log_pi, accepted, log_ratio = server_receive(
            value, log_pi, msg, log_f_reverse, u, naive, target
        )
        if accepted and cached_reverse:
            reverse[slot_of[w]] = log_f_forward
        workers_arr[processed] = w
        reads_arr[processed] = read_version
        accepted_arr[processed] = accepted
        ratios_arr[processed] = log_ratio
        states[processed] = value if row is None else row(value)
        processed += 1
        return value

    return send, receive


def _block_path(target, proposal, rngs, init, init_lp, naive, out):
    """``send``, ``receive`` and ``flush`` resolving up to ``_BLOCK`` deliveries at once.

    A message is ``(read_version, z)``, ``z`` the worker's ``dim`` standard
    normals from one sized ``standard_normal`` call, which reads the stream
    as ``dim`` scalar calls do and gives their values.  ``receive`` keeps
    ``(worker, read_version, z, word)``, ``word`` the raw output the accept
    uniform is made of.  ``flush`` maps the kept normals to proposals with
    ``proposal.from_normals`` and the words to uniforms as numpy's
    ``random()`` does, ``(word >> 11) * 2**-53``; it takes the densities of
    the proposals in one ``log_unnorm`` and one ``logpdf`` call on their
    coordinate columns, whose elementwise float operations give the bits of
    the scalar calls, then decides them in order in plain floats and writes
    the record's slices.  Every step matches ``server_receive`` bit for bit.
    """
    workers_arr, reads_arr, accepted_arr, ratios_arr, states = out
    dim, logpdf, log_unnorm, exp = target.dim, proposal.logpdf, target.log_unnorm, math.exp
    normals = [r.standard_normal for r in rngs]
    raws = [r.bit_generator.random_raw for r in rngs]
    block: list = []
    rows = np.empty((_BLOCK + 1, dim))  # row 0: the server state before the block
    rows[0] = init
    log_pi, reverse, done = init_lp, logpdf(init, init, {}), 0

    def send(w, x, read_version):
        return read_version, normals[w](dim)

    def receive(w, msg):
        block.append((w, *msg, raws[w]()))
        if len(block) == _BLOCK:
            flush()

    def flush():
        nonlocal log_pi, reverse, done
        n = len(block)
        if n == 0:
            return
        workers, read_versions, zs, words = zip(*block)
        block.clear()
        rows[1 : n + 1] = proposal.from_normals(np.concatenate(zs).reshape(n, dim))
        uniforms = ((np.array(words, dtype=np.uint64) >> 11) * _DOUBLE_UNIT).tolist()
        columns = tuple(rows[1 : n + 1].T)
        lps = log_unnorm(columns).tolist()
        lfs = logpdf(columns, None, {}).tolist()
        accepted, ratios, source = [], [], []
        current = 0  # the row holding the server state
        for i, lp_star, log_f_forward, u in zip(range(1, n + 1), lps, lfs, uniforms):
            num, den = lp_star + reverse, log_pi + log_f_forward
            log_ratio = num - den
            if not NEG_INF < log_ratio < POS_INF:  # the same value, or the same error
                log_ratio = _log_accept_ratio(num, den)
            ok = naive or log_ratio >= 0.0 or u < exp(log_ratio)
            if ok:
                log_pi, reverse, current = lp_star, log_f_forward, i
            accepted.append(ok)
            ratios.append(log_ratio)
            source.append(current)
        end = done + n
        workers_arr[done:end] = workers
        reads_arr[done:end] = read_versions
        accepted_arr[done:end] = accepted
        ratios_arr[done:end] = ratios
        states[done:end] = rows[source]
        rows[0] = rows[current]
        done = end

    return send, receive, flush


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
) -> PServerRecord:
    """Drive ``m`` workers against one simulated server for ``horizon`` messages.

    Every processed message, accepted or rejected, increments the server
    version and lands in the record; the recorded state row is the server
    state right after processing.  With ``coupled=True`` the server holds
    ``m`` replica slots of the target and worker ``i`` only ever updates
    slot ``i``.  A message staler than the delay model's cap is dropped and
    its worker re-reads and resends; :class:`LivenessError` is raised when
    one worker's message is dropped more than ``MAX_RESENDS`` times in a row
    (the count restarts each time one of its messages lands).

    One event loop (:func:`_event_loop`) owns the heap, backpressure and
    liveness of every run; two paths plug into it.  For
    ``metropolis_hastings`` the reverse density ``f(x_s | x)`` is ``q(x_s)``,
    since every proposal in ``SERVER_PROPOSALS`` ignores ``x``: it is taken
    once from ``logpdf`` of the initial state and replaced by the accepted
    message's ``log_f_forward``, one value per slot when coupled.

    * Block path: an uncoupled ``metropolis_hastings`` run on a Gaussian
      target.  There no worker draw, message time, drop, resend or liveness
      decision depends on the server's state, only the accept decisions do,
      so the loop runs without the state and the densities and decisions of
      up to ``_BLOCK`` processed messages are resolved at once
      (:func:`_block_path`); dropped messages get no density at all.
    * Per-message path: everything else (``gibbs_single_site``, whose
      reverse density depends on the read and is evaluated per message;
      coupled runs; finite targets, whose densities are table lookups).

    Both paths give the same arrays bit for bit.  Each worker's stream gives
    its proposal draws when it sends (dropped stale messages included; on the
    block path one ``standard_normal(dim)`` call, which reads the stream as
    ``dim`` scalar calls do) and one raw output per processed message, made
    into the accept uniform as numpy's ``random()`` does,
    ``(random_raw() >> 11) * 2**-53`` (on the block path at flush).  The
    infra stream gives one start offset per non-frozen worker, then a latency
    per send and a jitter per processed message, in the order they happen.
    Except under ``fifo_random``, whose geometric latency needs numpy, the
    infra stream is read as PCG64 raw outputs fetched 64 at a time
    (:class:`kernels._PCG64Draws`), giving the same numbers in the same
    order as the scalar calls.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if m < 1 or horizon < 1:
        raise ValidationError("m and horizon must be positive")
    periods = delay.periods(m)
    frozen = set(frozen_workers)
    if not frozen <= set(range(m)):
        raise ValidationError(
            f"params.frozen_workers: worker ids must lie in [0, {m}), got {list(frozen_workers)!r}"
        )

    base_target = kernel.target

    def is_state(x) -> bool:
        if base_target.is_finite:
            return base_target.support.holds(x)
        try:  # finite numbers, one per dimension
            return _finite_array(x, "params.init").shape == (base_target.dim,)
        except ValidationError:
            return False

    if coupled:
        if kernel.kind == "gibbs_single_site" and base_target.dim > 1:
            raise UnsupportedTargetError(
                f"kernel.kind: a coupled gibbs_single_site run needs a one-site target, not {base_target.dim} sites"
            )
        target = coupled_embed(base_target, m)
        base_proposal = _worker_proposal(kernel)
        worker_props = [SlotProposal(base_proposal, w) for w in range(m)]
        if init is None:
            init = tuple(default_init(base_target) for _ in range(m))
        ok = isinstance(init, (tuple, list)) and len(init) == m and all(map(is_state, init))
    else:
        target = base_target
        worker_props = [_worker_proposal(kernel)] * m
        if init is None:
            init = default_init(base_target)
        ok = is_state(init)
    if not ok:
        raise ValidationError(f"params.init: {init!r} is not a state of the target")
    init_lp = target.log_unnorm(init)
    if init_lp == NEG_INF:
        raise ValidationError("initial state lies outside the target support")

    rngs = worker_streams(seed, m, extra=1)
    # numpy's geometric draw cannot be rerun on raw words
    infra = rngs[m] if delay.kind == "fifo_random" else _PCG64Draws(rngs[m])
    shape = (horizon, m) if coupled else (horizon,)
    if base_target.is_finite:
        states = np.empty(shape, dtype=np.int64)
    else:
        states = np.empty((*shape, base_target.dim))
    out = (
        np.empty(horizon, dtype=np.int32),  # workers
        np.empty(horizon, dtype=np.int64),  # read versions
        np.empty(horizon, dtype=bool),  # accepted
        np.empty(horizon, dtype=float),  # log ratios
        states,
    )
    naive = mode == "naive_accept"
    loop = (horizon, periods, delay, infra, frozen)
    if kernel.kind == "metropolis_hastings" and not coupled and target.gaussian is not None:
        send, receive, flush = _block_path(target, worker_props[0], rngs[:m], init, init_lp, naive, out)
        counts = _event_loop(*loop, None, send, receive)
        flush()
    else:
        send, receive = _message_path(kernel, target, worker_props, rngs[:m], init, init_lp, naive, coupled, out)
        counts = _event_loop(*loop, init, send, receive)

    config = {
        "mode": f"pserver:{mode}",
        "kernel": kernel.describe(),
        "m": m,
        "horizon": horizon,
        "seed": seed,
        "delay": {"kind": delay.kind, "params": delay.params, "staleness_cap": delay.staleness_cap},
        "coupled": coupled,
        "frozen_workers": sorted(frozen),
        "messages_sent": counts["messages_sent"],
        "resends": counts["resends"],
        "pending_at_exit": counts["pending_at_exit"],
    }
    return PServerRecord(*out, config)


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

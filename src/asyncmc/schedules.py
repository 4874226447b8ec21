"""Asynchronous execution order as data.

A schedule is a totally ordered list of write events.  Event ``seq`` (0-based,
consecutive) writes state version ``seq``; ``read_from`` names the version the
writer read, with ``-1`` standing for the initial state.  Staleness of an
event is ``seq - read_from``, so a fully synchronous chain has
``read_from == seq - 1`` everywhere.

Two invariants define validity:

* bounded staleness: ``seq - read_from <= staleness_bound`` for every event;
* no worker dies: every worker writes at least once in every window of
  ``staleness_bound`` consecutive events (equivalently, per-worker gaps
  between writes, counted with virtual writes at -1 and at the end of the
  schedule, never exceed the bound).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParameterError, ValidationError

EVENT_KINDS = ("write", "server_commit")
_VALIDATED = "_validated"  # instance mark of a schedule random_schedule checked
_WORD = 0xFFFFFFFF


class _EventFields(NamedTuple):
    seq: int
    worker: int
    read_from: int
    kind: str = "write"


class Event(_EventFields):
    """One write: an immutable ``(seq, worker, read_from, kind)`` tuple."""

    __slots__ = ()

    def __new__(cls, seq: int, worker: int, read_from: int, kind: str = "write"):
        if kind not in EVENT_KINDS:
            raise ValidationError(f"unknown event kind {kind!r}")
        return tuple.__new__(cls, (seq, worker, read_from, kind))

    @classmethod
    def _make(cls, iterable):  # keeps ``_replace`` behind the kind check
        return cls(*iterable)


@dataclass(frozen=True)
class Schedule:
    events: tuple
    workers: int
    staleness_bound: int

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if self.workers < 1:
            raise ParameterError("need at least one worker")
        if self.staleness_bound < 1:
            raise ParameterError("staleness bound must be positive")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class ScheduleViolation:
    seq: int
    invariant: str  # "sequence" | "staleness" | "no_worker_dies"
    detail: str

    def __str__(self) -> str:
        return f"schedule invalid at seq {self.seq}: {self.invariant} ({self.detail})"


def validate(s: Schedule) -> ScheduleViolation | None:
    """Return ``None`` when valid, else a report naming the first bad seq.

    A schedule that :func:`random_schedule` built and checked carries a
    private mark and passes at once: a ``Schedule`` is frozen and its events
    are immutable tuples of ints, so it cannot have changed since.  The mark
    is no dataclass field, so equality, ``repr`` and ``dataclasses.replace``
    ignore it, and every other schedule is walked in full.
    """
    if getattr(s, _VALIDATED, False):
        return None
    b, m = s.staleness_bound, s.workers
    events = s.events
    last_write = [-1] * m
    for k, (seq, worker, read_from, _) in enumerate(events):
        if seq != k:
            return ScheduleViolation(seq, "sequence", f"expected seq {k}")
        if not 0 <= worker < m:
            return ScheduleViolation(k, "sequence", f"worker {worker} out of range")
        if not -1 <= read_from < seq:
            return ScheduleViolation(
                k, "sequence", f"read_from {read_from} outside [-1, {seq})"
            )
        if seq - read_from > b:
            return ScheduleViolation(
                k, "staleness", f"staleness {seq - read_from} exceeds bound {b}"
            )
        # A worker last writing at t first breaks a window at k = t + b + 1,
        # and earlier events found every earlier break, so only the writer
        # of event k - b - 1 (or, at k == b, a worker yet to write) can be
        # silent too long here.
        t = k - b - 1
        if t >= 0 and last_write[events[t].worker] == t or t == -1 and -1 in last_write:
            return _silent_worker(last_write, k, worker, b)
        last_write[worker] = k
    n = len(events)
    for w in range(m):
        if n - last_write[w] > b:
            return ScheduleViolation(
                max(n - 1, 0), "no_worker_dies", f"worker {w} absent from the final window"
            )
    return None


def _silent_worker(last_write: list, k: int, writer: int, b: int) -> ScheduleViolation:
    # other workers first, in order, then the writer of event k itself
    order = [w for w in range(len(last_write)) if w != writer] + [writer]
    silent = next(w for w in order if k - last_write[w] > b)
    return ScheduleViolation(
        k, "no_worker_dies", f"worker {silent} silent through window ending at {k}"
    )


def _check_feasible(m: int, b: int, length: int) -> None:
    if m < 1:
        raise ParameterError("m: need at least one worker")
    if b < m:
        raise ParameterError(f"b: b={b} < m={m}: some window of {b} events cannot hold all workers")
    if length < b:
        raise ParameterError(f"horizon: length {length} shorter than staleness bound {b}")


def random_schedule(m: int, b: int, length: int, rng: np.random.Generator) -> Schedule:
    """A uniformly scrambled valid schedule.

    Worker choice is random among options that keep the liveness deadlines
    satisfiable; staleness is uniform over the legal range, so both the
    fully fresh read (``read_from == seq - 1``) and the maximally stale one
    (``seq - read_from == b``) occur with positive probability.

    The draws are those of two scalar ``rng.integers`` calls per event, one
    for the worker and one for the staleness, bit for bit.  numpy draws a
    bounded scalar in ``[0, k)`` by Lemire's multiply-and-reject on 32-bit
    words, the words its uint32 fill returns too, and ``k == 1`` consumes
    none.  So one fetch takes the ``2 * length`` words that every accepted
    draw needs, each rejected word appends one more, and the loop runs
    Lemire on them inline.  At the end the generator is rewound to before
    the fetch and draws again only the words used, leaving it exactly where
    the scalar calls would have.  The schedule is checked once here and
    marked, so :func:`validate` passes it without a second walk.
    """
    _check_feasible(m, b, length)
    state = rng.bit_generator.state
    words = rng.integers(0, _WORD + 1, size=2 * length, dtype=np.uint32).tolist()
    pos = 0
    # The workers by (deadline, index) and their deadlines in the same
    # order; each worker must first write within the opening window.
    order = list(range(m))
    due = [b - 1] * m
    last = m - 1
    new_event = tuple.__new__
    events = []
    for seq in range(length):
        # Earliest-deadline-first: after serving the rank-r worker at seq,
        # rank i < r keeps slot seq+1+i and rank i > r moves to slot seq+i,
        # so r is safe iff no rank below r has slack due[i] - seq - i of 0.
        # The loop keeps every slack >= 0, so the safe workers are the ranks
        # up to the first one with slack 0, and a worker due at seq has rank
        # 0 and slack 0 and so is the only one.
        hi = last
        for i in range(last):
            if due[i] - i == seq:
                hi = i
                break
        if hi:
            k = hi + 1
            x = words[pos] * k
            pos += 1
            if x & _WORD < k:
                threshold = (_WORD + 1) % k
                while x & _WORD < threshold:
                    words.append(int(rng.integers(0, _WORD + 1, dtype=np.uint32)))
                    x = words[pos] * k
                    pos += 1
            # the pool is the safe workers by index; all of them when k == m
            worker = x >> 32 if k == m else sorted(order[:k])[x >> 32]
            rank = order.index(worker)
        else:
            worker, rank = order[0], 0
        # The new deadline seq + b is strictly the largest, so the worker
        # moves to the end and `order` stays sorted by (deadline, index).
        del order[rank], due[rank]
        order.append(worker)
        due.append(seq + b)
        k = seq + 1 if seq < b else b
        if k == 1:
            read_from = seq - 1
        else:
            x = words[pos] * k
            pos += 1
            if x & _WORD < k:
                threshold = (_WORD + 1) % k
                while x & _WORD < threshold:
                    words.append(int(rng.integers(0, _WORD + 1, dtype=np.uint32)))
                    x = words[pos] * k
                    pos += 1
            read_from = seq - 1 - (x >> 32)
        events.append(new_event(Event, (seq, worker, read_from, "write")))
    rng.bit_generator.state = state
    rng.integers(0, _WORD + 1, size=pos, dtype=np.uint32)
    sched = Schedule(tuple(events), m, b)
    violation = validate(sched)
    if violation is not None:  # pragma: no cover - generator soundness guard
        raise ParameterError(f"generator produced invalid schedule: {violation}")
    object.__setattr__(sched, _VALIDATED, True)
    return sched


def synchronous_schedule(m: int, length: int, b: int | None = None) -> Schedule:
    """Round-robin workers, every read perfectly fresh."""
    if b is None:
        b = max(m, 1)
    _check_feasible(m, b, length)
    events = tuple(Event(seq, seq % m, seq - 1, "write") for seq in range(length))
    return Schedule(events, m, b)


def adversarial_schedules(m: int, b: int, length: int) -> dict[str, Schedule]:
    """Named extreme-but-valid schedules for stress testing.

    ``always_max_stale`` reads the oldest legal version everywhere;
    ``single_worker_dominant`` gives worker 0 every slot not needed for
    liveness; ``alternating_window`` alternates fresh and maximally stale
    reads in a crossing pattern.  The dominant pattern needs whole windows,
    so its length is rounded down to a multiple of ``b``.
    """
    _check_feasible(m, b, length)
    out = {}

    events = tuple(
        Event(seq, seq % m, max(-1, seq - b), "write") for seq in range(length)
    )
    out["always_max_stale"] = Schedule(events, m, b)

    blocks = length // b
    dominant = []
    for seq in range(blocks * b):
        pos = seq % b
        worker = pos - (b - m) if pos > b - m else 0
        dominant.append(Event(seq, worker, seq - 1, "write"))
    out["single_worker_dominant"] = Schedule(tuple(dominant), m, b)

    events = tuple(
        Event(seq, seq % m, seq - 1 if seq % 2 == 0 else max(-1, seq - b), "write")
        for seq in range(length)
    )
    out["alternating_window"] = Schedule(events, m, b)

    for name, sched in out.items():
        violation = validate(sched)
        if violation is not None:  # pragma: no cover - construction soundness guard
            raise ParameterError(f"{name}: {violation}")
    return out


def minimal_valid_bound(events, workers: int) -> int:
    """Smallest staleness bound under which these event triples validate.

    ``events`` holds ``(seq, worker, read_from)`` triples in seq order, as a
    sequence or an ``(n, 3)`` array; the result covers both read staleness
    and every worker's write gaps (including the virtual writes at -1 and at
    the end).
    """
    seq, worker, read_from = np.asarray(events, dtype=np.int64).reshape(-1, 3).T
    n = int(seq[-1]) + 1 if len(seq) else 0
    # each worker's writes, bracketed by its virtual writes at -1 and n
    every = np.arange(workers)
    owners = np.concatenate((worker, every, every))
    times = np.concatenate((seq, np.full(workers, -1), np.full(workers, n)))
    order = np.lexsort((times, owners))
    gaps = np.diff(times[order])[np.diff(owners[order]) == 0]
    return max(1, int((seq - read_from).max(initial=1)), int(gaps.max(initial=1)))


# ---------------------------------------------------------------------------
# JSONL trace format, shared with the executors' emitted traces
# ---------------------------------------------------------------------------


_KIND_JSON = {kind: json.dumps(kind) for kind in EVENT_KINDS}


def trace_lines(workers: int, staleness_bound: int, events, extras=None):
    """The meta line, then one line per ``(seq, worker, read_from, kind)`` row.

    Each line is the ``json.dumps`` text of its object, formatted directly
    from the integers.  ``extras``, when given, yields per event a string of
    further ``, "key": value`` members placed before the closing brace.
    """
    yield json.dumps({"kind": "meta", "workers": workers, "staleness_bound": staleness_bound})
    kinds = _KIND_JSON
    for (seq, worker, read_from, kind), extra in zip(events, extras or itertools.repeat("")):
        yield (
            f'{{"seq": {seq}, "worker": {worker}, "read_from": {read_from}, '
            f'"kind": {kinds[kind]}{extra}}}'
        )


def schedule_to_jsonl(s: Schedule) -> str:
    """One event per line; a leading meta line carries workers and bound."""
    return "\n".join(trace_lines(s.workers, s.staleness_bound, s.events)) + "\n"


def _int_field(doc: dict, field: str, line: int) -> int:
    if field not in doc:
        raise ValidationError(f"trace line {line}: missing field {field!r}")
    value = doc[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"trace line {line}: field {field!r} must be an integer, got {value!r}")
    return value


def _lines(text: str):
    """The lines of ``text``, split at newlines, one at a time: a long trace is
    parsed without a list of all its lines beside the text."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def schedule_from_jsonl(text: str | Iterable[str]) -> Schedule:
    """Parse a JSONL trace; infers workers/bound when the meta line is absent."""
    if isinstance(text, str):
        text = _lines(text)
    workers = bound = None
    events = []
    for line, ln in enumerate(text, start=1):
        if not ln.strip():
            continue
        try:
            doc = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"trace line {line}: bad JSONL line: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"trace line {line}: expected a JSON object")
        if doc.get("kind") == "meta":
            workers = _int_field(doc, "workers", line)
            bound = _int_field(doc, "staleness_bound", line)
            continue
        seq, worker, read_from = (_int_field(doc, f, line) for f in ("seq", "worker", "read_from"))
        if worker < 0:
            raise ValidationError(f"trace line {line}: field 'worker' is negative ({worker})")
        events.append(Event(seq, worker, read_from, doc.get("kind", "write")))
    if not events and workers is None:
        raise ValidationError("trace contains no events")
    if workers is None:
        workers = max(ev.worker for ev in events) + 1
    if bound is None:
        bound = max(max((ev.seq - ev.read_from) for ev in events), 1)
    return Schedule(tuple(events), workers, bound)

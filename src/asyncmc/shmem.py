"""Shared-memory asynchronous execution of a sampling kernel.

Workers loop read -> step -> write against one shared cell holding the full
state; there is no other coordination.  The cell swaps the whole
``(state, version)`` pair in one linearizable operation, which is the weakest
mechanism that rules out torn reads.  Write order defines the global sequence
numbering; a watchdog turns the bounded-staleness liveness assumption into an
enforced runtime contract instead of a silent hypothesis.

Two modes share the read/step/write semantics: ``run_async`` races real
threads and records the schedule it happened to execute, while ``replay``
deterministically executes a prescribed schedule so the sample-level and
measure-level views of the same schedule can be compared.
"""
from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass
from typing import Sequence

from .errors import LivenessError, ScheduleError
from .kernels import KernelSpec, _PCG64Draws, default_init, kernel_step, worker_streams
from .schedules import Event, Schedule, minimal_valid_bound, validate


class SharedCell:
    """A lock-guarded cell swapping an immutable (state, version) snapshot.

    Readers always observe a pair written together by a single writer; there
    is no way to observe half of one write and half of another.
    """

    def __init__(self, state, version: int = -1):
        self._lock = threading.Lock()
        self._state = state
        self._version = version

    def read(self):
        with self._lock:
            return self._state, self._version

    def swap(self, state, version: int):
        with self._lock:
            old = (self._state, self._version)
            self._state = state
            self._version = version
            return old


@dataclass(frozen=True)
class ChecksumState:
    """A state value carrying a checksum over its payload.

    Used to detect torn reads: any mixture of two distinct writes fails
    verification.
    """

    payload: tuple
    checksum: int

    @classmethod
    def make(cls, payload: Sequence) -> "ChecksumState":
        payload = tuple(payload)
        return cls(payload, zlib.crc32(repr(payload).encode()))

    def verify(self) -> bool:
        return zlib.crc32(repr(self.payload).encode()) == self.checksum


@dataclass(frozen=True)
class RunRecord:
    """What an execution did: its schedule, the state written at each seq, and
    its settings.

    ``states[seq]`` is the state written by event ``trace.events[seq]``, whose
    worker and read version the trace holds.
    """

    trace: Schedule
    states: list
    config: dict


class _AsyncCoordinator(SharedCell):
    """The shared cell of a threaded run, whose writes also assign the seq,
    check the watchdog and log the event, all under the cell's lock."""

    def __init__(self, init_state, m: int, horizon: int, watchdog_b: int):
        super().__init__(init_state)
        self.next_seq = 0
        self.last_write = [-1] * m
        self.horizon = horizon
        self.watchdog_b = watchdog_b
        self.m = m
        self.stop = False
        self.liveness_failure = None
        self.events = []  # (seq, worker, read_version) in seq order
        self.states = []  # the state written at each seq

    def commit(self, worker: int, read_version: int, state) -> bool:
        """Returns False when the worker should stop (horizon or abort)."""
        with self._lock:
            if self.stop:
                return False
            if self.next_seq >= self.horizon:
                self.stop = True
                return False
            seq = self.next_seq
            for w in range(self.m):
                if seq - self.last_write[w] > self.watchdog_b:
                    self.stop = True
                    self.liveness_failure = (
                        w,
                        f"worker {w} wrote nothing in window ({seq - self.watchdog_b}, {seq}]",
                    )
                    return False
            self.next_seq = seq + 1
            self.last_write[worker] = seq
            self._state = state
            self._version = seq
            self.events.append((seq, worker, read_version))
            self.states.append(state)
            return True


def _run_threads(work, m: int) -> None:
    """Run ``work(w)`` for each worker ``w < m`` on its own thread and join them
    all; then re-raise the first exception a worker raised, if any."""
    errors = []

    def guarded(worker: int):
        try:
            work(worker)
        except Exception as exc:  # re-raised below, in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,), daemon=True) for w in range(m)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_async(
    kernel: KernelSpec,
    m: int,
    horizon: int,
    seed: int,
    watchdog_b: int,
) -> RunRecord:
    """Race ``m`` worker threads against one shared cell for ``horizon`` writes.

    The watchdog aborts with :class:`LivenessError` if any worker stays
    silent for more than ``watchdog_b`` consecutive writes, since all
    convergence guarantees are conditional on that bound.
    """
    if m < 1 or horizon < 1 or watchdog_b < 1:
        raise ScheduleError("m, horizon, and watchdog_b must all be positive")
    coord = _AsyncCoordinator(default_init(kernel.target), m, horizon, watchdog_b)
    rngs = worker_streams(seed, m)

    def work(worker: int):
        rng = rngs[worker]
        while True:
            state, version = coord.read()
            step = kernel_step(kernel, state, rng)
            if not coord.commit(worker, version, step.state):
                return

    _run_threads(work, m)
    if coord.liveness_failure is not None:
        worker, detail = coord.liveness_failure
        raise LivenessError(f"liveness watchdog fired: {detail}")

    events = coord.events
    trace = Schedule(tuple(Event(*ev) for ev in events), m, minimal_valid_bound(events, m))
    config = {
        "mode": "shmem_real",
        "kernel": kernel.describe(),
        "m": m,
        "horizon": horizon,
        "seed": seed,
        "watchdog_b": watchdog_b,
    }
    return RunRecord(trace, coord.states, config)


def replay(kernel: KernelSpec, schedule: Schedule, seed: int) -> RunRecord:
    """Deterministically execute the read/step/write loop under a schedule.

    Worker ``w`` draws from stream ``w`` of :func:`worker_streams`.  A kernel
    on a finite target draws only doubles and bounded integers, so its
    streams are read as raw PCG64 outputs fetched in bulk, which give the
    values of the ``Generator`` calls in the same order; a Gaussian kernel
    needs normal draws and keeps the ``Generator``.  This only makes replay
    cheaper: a replay runs one thread and says nothing about concurrency.
    """
    violation = validate(schedule)
    if violation is not None:
        raise ScheduleError(str(violation))
    rngs = worker_streams(seed, schedule.workers)
    if kernel.target.is_finite:
        rngs = [_PCG64Draws(rng) for rng in rngs]
    events = schedule.events
    # version v lives at index v; the initial state, version -1, at the end
    versions = [None] * len(events) + [default_init(kernel.target)]
    for seq, worker, read_from, _ in events:
        versions[seq] = kernel_step(kernel, versions[read_from], rngs[worker]).state
    versions.pop()
    config = {
        "mode": "shmem_replay",
        "kernel": kernel.describe(),
        "m": schedule.workers,
        "horizon": len(schedule.events),
        "seed": seed,
        "watchdog_b": schedule.staleness_bound,
    }
    return RunRecord(schedule, versions, config)


def torn_state_stress(m: int, total_ops: int, seed: int) -> dict:
    """Hammer one cell from ``m`` threads with checksummed states.

    Every read verifies the checksum of the snapshot it got; every write
    installs a freshly checksummed payload.  Returns op and failure counts;
    any failure means the atomic-swap contract is broken.
    """
    cell = SharedCell(ChecksumState.make((0, 0, 0.0)), 0)
    counter = {"ops": 0}
    counter_lock = threading.Lock()
    failures = [0] * m
    rngs = worker_streams(seed, m)

    def work(worker: int):
        rng = rngs[worker]
        local = 0
        while True:
            with counter_lock:
                if counter["ops"] >= total_ops:
                    break
                counter["ops"] += 2
            state, version = cell.read()
            if not state.verify():
                failures[worker] += 1
            local += 1
            payload = (worker, local, float(rng.random()))
            cell.swap(ChecksumState.make(payload), version + 1)

    _run_threads(work, m)
    return {"ops": counter["ops"], "failures": sum(failures)}


def _state_str(state) -> str:
    if isinstance(state, tuple):
        return json.dumps(list(state))
    return json.dumps(state)


def samples_csv(record: RunRecord) -> str:
    lines = ["seq,worker,state"]
    # Keyed by identity, not equality: equal states such as 0.0 and -0.0
    # print differently.  Every key stays alive in ``record.states``.
    texts = {}
    for (seq, worker, _, _), state in zip(record.trace.events, record.states):
        text = texts.get(id(state))
        if text is None:
            text = texts[id(state)] = _state_str(state)
        lines.append(f'{seq},{worker},"{text}"')
    return "\n".join(lines) + "\n"

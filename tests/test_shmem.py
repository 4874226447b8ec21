from collections import Counter

import numpy as np
import pytest

from asyncmc.errors import LivenessError, ScheduleError, ValidationError
from asyncmc.kernels import (
    KernelSpec,
    UniformIndependenceProposal,
    default_init,
    finite_target,
    kernel_step,
    render_matrix,
    worker_streams,
)
from asyncmc.measure_sim import propagate
from asyncmc.measures import FiniteDistribution, stationary_distribution
from asyncmc.schedules import random_schedule, synchronous_schedule, validate
from asyncmc.shmem import (
    ChecksumState,
    SharedCell,
    replay,
    run_async,
    samples_csv,
    torn_state_stress,
)


def mh_spec():
    t = finite_target([1.0, 2.0, 3.0])
    return KernelSpec("metropolis_hastings", t, UniformIndependenceProposal(t.support))


class TestSharedCell:
    def test_swap_returns_previous_pair(self):
        cell = SharedCell("a", -1)
        assert cell.read() == ("a", -1)
        assert cell.swap("b", 0) == ("a", -1)
        assert cell.read() == ("b", 0)

    def test_checksum_state_detects_mutation(self):
        good = ChecksumState.make((1, 2, 3.5))
        assert good.verify()
        torn = ChecksumState(payload=(1, 2, 9.9), checksum=good.checksum)
        assert not torn.verify()


class TestRunAsync:
    def test_single_worker_matches_sequential(self):
        spec = mh_spec()
        record = run_async(spec, m=1, horizon=300, seed=9, watchdog_b=10)
        rng = worker_streams(9, 1)[0]
        x = default_init(spec.target)
        expected = []
        for _ in range(300):
            x = kernel_step(spec, x, rng).state
            expected.append(x)
        assert record.states == expected
        assert all(e.read_from == e.seq - 1 for e in record.trace.events)

    def test_recorded_trace_validates_with_observed_bound(self):
        record = run_async(mh_spec(), m=3, horizon=5000, seed=2, watchdog_b=5000)
        assert validate(record.trace) is None
        assert len(record.states) == 5000

    def test_record_states_follow_trace_seq_order(self):
        record = run_async(mh_spec(), m=3, horizon=2000, seed=4, watchdog_b=2000)
        events = record.trace.events
        assert [ev.seq for ev in events] == list(range(2000))
        assert len(record.states) == len(events)
        rows = samples_csv(record).splitlines()[1:]
        assert [tuple(map(int, row.split(",")[:2])) for row in rows] == [
            (ev.seq, ev.worker) for ev in events
        ]

    def test_watchdog_fires_on_infeasible_bound(self):
        with pytest.raises(LivenessError):
            run_async(mh_spec(), m=2, horizon=100, seed=1, watchdog_b=1)

    def test_worker_exception_is_raised_after_join(self):
        # the default start label 0 has zero weight, so every worker's first step raises
        target = finite_target([0.0, 1.0, 2.0])
        spec = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        with pytest.raises(ValidationError, match="outside the target support"):
            run_async(spec, m=2, horizon=50, seed=1, watchdog_b=50)

    def test_statistical_agreement_with_stationary(self):
        spec = mh_spec()
        record = run_async(spec, m=4, horizon=30_000, seed=3, watchdog_b=30_000)
        pi = stationary_distribution(render_matrix(spec))
        late = record.states[15_000:]
        counts = Counter(late)
        emp = np.array([counts[l] for l in spec.target.support.labels], dtype=float)
        emp /= emp.sum()
        assert 0.5 * np.abs(emp - pi.probs).sum() <= 0.05


class TestReplay:
    def test_deterministic_and_trace_preserving(self):
        spec = mh_spec()
        schedule = random_schedule(3, 5, 200, np.random.default_rng(4))
        a = replay(spec, schedule, seed=7)
        b = replay(spec, schedule, seed=7)
        assert a.states == b.states
        assert a.trace == schedule

    def test_synchronous_replay_equals_sequential(self):
        spec = mh_spec()
        schedule = synchronous_schedule(1, 150)
        record = replay(spec, schedule, seed=5)
        rng = worker_streams(5, 1)[0]
        x = default_init(spec.target)
        expected = []
        for _ in range(150):
            x = kernel_step(spec, x, rng).state
            expected.append(x)
        assert record.states == expected

    def test_invalid_schedule_rejected(self):
        spec = mh_spec()
        schedule = random_schedule(2, 4, 50, np.random.default_rng(1))
        broken = type(schedule)(schedule.events, 2, 1)  # tighten b below observed staleness
        with pytest.raises(ScheduleError):
            replay(spec, broken, seed=0)

    def test_replay_distribution_matches_measure_trace(self):
        # distribution over replay outputs at a fixed write index matches the
        # propagated measure at that version
        spec = mh_spec()
        matrix = render_matrix(spec)
        schedule = random_schedule(2, 3, 25, np.random.default_rng(8))
        mu0 = FiniteDistribution.point_mass(matrix.space, default_init(spec.target))
        trace = propagate(matrix, mu0, schedule)
        k = 20
        counts = Counter()
        n_seeds = 10_000
        for seed in range(n_seeds):
            record = replay(spec, schedule, seed=seed)
            counts[record.states[k]] += 1
        emp = np.array([counts[l] for l in spec.target.support.labels], dtype=float) / n_seeds
        tv = 0.5 * np.abs(emp - trace.mus[k + 1].probs).sum()
        assert tv <= 0.03

    def test_pooled_late_states_near_stationary(self):
        spec = mh_spec()
        pi = stationary_distribution(render_matrix(spec))
        rng = np.random.default_rng(12)
        counts = Counter()
        n_replays = 100_000
        for i in range(n_replays):
            schedule = random_schedule(3, 5, 30, rng)
            record = replay(spec, schedule, seed=i)
            counts[record.states[-1]] += 1
        emp = np.array([counts[l] for l in spec.target.support.labels], dtype=float) / n_replays
        assert 0.5 * np.abs(emp - pi.probs).sum() <= 0.02


class TestTornState:
    def test_small_stress_is_clean(self):
        result = torn_state_stress(4, 100_000, seed=5)
        assert result["failures"] == 0
        assert result["ops"] >= 100_000

    def test_worker_exception_is_raised_after_join(self):
        with pytest.raises(TypeError):
            torn_state_stress(2, "x", seed=5)


class TestExport:
    def test_samples_csv_format(self):
        record = replay(mh_spec(), synchronous_schedule(1, 5), seed=1)
        lines = samples_csv(record).strip().splitlines()
        assert lines[0] == "seq,worker,state"
        assert len(lines) == 6

import math
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
    steps_on_indices,
    worker_streams,
)
from asyncmc.measure_sim import propagate
from asyncmc.measures import FiniteDistribution, stationary_distribution
from asyncmc.schedules import adversarial_schedules, random_schedule, synchronous_schedule, validate
from asyncmc.shmem import (
    ChecksumState,
    SharedCell,
    replay,
    run_async,
    samples_csv,
    torn_state_stress,
)
from test_reference_equivalence import product_finite_target


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
            x = kernel_step(spec, x, rng)
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
        rows = list(samples_csv(record))[1:]
        assert [tuple(map(int, row.split(",")[:2])) for row in rows] == [
            (ev.seq, ev.worker) for ev in events
        ]

    @pytest.mark.parametrize("m,horizon,watchdog_b", [(0, 10, 5), (-1, 10, 5), (2, 0, 5), (2, 10, 0), (2, 10, -3)])
    def test_non_positive_input_refused(self, m, horizon, watchdog_b):
        # refused as input before any thread starts
        with pytest.raises(ValidationError, match="^m, horizon, and watchdog_b must all be positive$"):
            run_async(mh_spec(), m, horizon, seed=0, watchdog_b=watchdog_b)

    def test_watchdog_fires_on_infeasible_bound(self):
        # seq 1 always finds a worker that has not yet written
        fired = r"^liveness watchdog fired: worker [01] wrote nothing in window \(0, 1\]$"
        with pytest.raises(LivenessError, match=fired):
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
            x = kernel_step(spec, x, rng)
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
        tv = 0.5 * np.abs(emp - trace.ladder[trace.p[k + 1]]).sum()
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


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with ``df`` degrees of freedom: the
    regularized upper gamma Q(df/2, x/2), stepped up from Q(1/2) or Q(1)
    by Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1)."""
    y = x / 2
    if y <= 0:
        return 1.0
    a, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    while a < df / 2:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return q


def goodness_of_fit(counts: np.ndarray, probs: np.ndarray) -> float:
    """The chi-square p-value of multinomial ``counts`` under ``probs``; 0.0
    if a count falls on a state of probability 0.  The cells expected below
    5 are pooled into one, joined by the next smallest cell while the pool
    expects less than 5; 1.0 if fewer than two cells remain."""
    if counts[probs == 0].any():
        return 0.0
    order = np.argsort(probs)[np.count_nonzero(probs == 0):]
    expected, observed = counts.sum() * probs[order], counts[order]
    small = int(np.searchsorted(expected, 5.0))
    if 0 < expected[:small].sum() < 5:
        small += 1
    if small:
        expected = np.append(expected[:small].sum(), expected[small:])
        observed = np.append(observed[:small].sum(), observed[small:])
    if len(expected) < 2:
        return 1.0
    return chi2_sf(float(((observed - expected) ** 2 / expected).sum()), len(expected) - 1)


def sticky_kernels():
    """A 5x5 product target whose states (0, 0) and (1, 1) weigh 100 times
    the rest, as uniform-independence MH (stepped on indices) and as
    random-scan Gibbs (stepped by ``kernel_step``); both leave a heavy state
    slowly."""
    target = product_finite_target([range(5)] * 2, lambda x: math.log(100.0 if x[0] == x[1] < 2 else 1.0))
    return {
        "uniform_mh": KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support)),
        "gibbs": KernelSpec("gibbs_single_site", target),
    }


class TestSampleMeasureIdentity:
    """The state replay writes at version v has the law mu_v = mu0 P^{p_v}
    that ``propagate`` computes, at every version.

    Each (kernel, schedule) case replays one 40-event schedule over seeds
    0..N-1 and tests the counts at each of the 40 versions by a chi-square
    goodness-of-fit test at level ALPHA / 40 (Bonferroni), so a correct
    replay fails a case with probability at most ALPHA = 1e-3 over the
    choice of seeds, and the six cases at most 6e-3.  The seeds are fixed,
    so the test is deterministic.  Both chains keep a state for many steps
    (Dobrushin coefficient above 0.9), so mu_v tells the depths p_v apart:
    a replay that read the newest version, or whose workers reused one
    stream, fails.
    """

    ALPHA = 1e-3
    SEEDS = 2000
    EVENTS = 40

    @pytest.mark.parametrize("kind", ["random", "always_max_stale", "synchronous"])
    @pytest.mark.parametrize("name", ["uniform_mh", "gibbs"])
    def test_counts_match_mu_v_at_every_version(self, name, kind):
        kernel = sticky_kernels()[name]
        assert steps_on_indices(kernel) == (name == "uniform_mh")
        matrix = render_matrix(kernel)
        rows = np.asarray(matrix.rows, dtype=float)
        n = len(rows)
        dobrushin = max(0.5 * np.abs(rows[i] - rows[j]).sum() for i in range(n) for j in range(n))
        assert dobrushin > 0.9
        m, b = 3, 6
        schedule = {
            "random": random_schedule(m, b, self.EVENTS, np.random.default_rng(40)),
            "always_max_stale": adversarial_schedules(m, b, self.EVENTS)["always_max_stale"],
            "synchronous": synchronous_schedule(m, self.EVENTS, b),
        }[kind]
        mu0 = FiniteDistribution.point_mass(matrix.space, default_init(kernel.target))
        trace = propagate(matrix, mu0, schedule)
        index = matrix.space.index
        counts = np.zeros((self.EVENTS, matrix.space.size), dtype=np.int64)
        for seed in range(self.SEEDS):
            for v, state in enumerate(replay(kernel, schedule, seed).states):
                counts[v, index(state)] += 1
        level = self.ALPHA / self.EVENTS
        p_values = [goodness_of_fit(counts[v], trace.ladder[trace.p[v + 1]]) for v in range(self.EVENTS)]
        assert min(p_values) >= level, (np.argmin(p_values), min(p_values))


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
        lines = list(samples_csv(record))
        assert lines[0] == "seq,worker,state"
        assert len(lines) == 6

"""The depth-ladder propagation and the one-sort EDF check against references.

The references below are the straightforward per-event implementations:
one operator application and one TV distance per event, and one sort per
candidate worker.  The fast paths must agree with them exactly (``==`` and
equal bytes, never approximately), because the canned experiments'
artifacts are required to stay byte-identical.
"""
import dataclasses

import numpy as np
import pytest

from asyncmc import schedules
from asyncmc.errors import ValidationError
from asyncmc.measure_sim import (
    frozen_worker_schedule,
    matrix_power_consistency,
    propagate,
    propagate_unbounded_counterexample,
)
from asyncmc.measures import (
    FiniteDistribution,
    StateSpace,
    StochasticMatrix,
    apply_operator,
    distribution_rows,
    random_distribution,
    random_rational_distribution,
    random_rational_matrix,
    random_stochastic_matrix,
    stationary_distribution,
    tv_distance,
)
from asyncmc.schedules import adversarial_schedules, random_schedule


def reference_propagate(m, mu0, schedule, pi):
    mus, p, d = [mu0], [0], [tv_distance(mu0, pi)]
    for ev in schedule.events:
        j = ev.read_from + 1
        nxt = apply_operator(m, mus[j])
        mus.append(nxt)
        p.append(p[j] + 1)
        d.append(tv_distance(nxt, pi))
    b = schedule.staleness_bound
    d_star = [max(d[max(0, k - b + 1) : k + 1]) for k in range(len(d))]
    p_star = [min(p[max(0, k - b + 1) : k + 1]) for k in range(len(p))]
    return mus, d, d_star, p, p_star


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
    assert list(trace.p) == p and list(trace.p_star) == p_star
    assert all(type(x) is int for x in trace.p + trace.p_star)
    for got, want in ((trace.d, d), (trace.d_star, d_star)):
        assert [type(x) for x in got] == [type(x) for x in want]
        assert list(got) == want
        if not trace.exact:
            assert np.array(got).tobytes() == np.array(want).tobytes()
    assert len(trace.mus) == len(mus)
    for got, want in zip(trace.mus, mus):
        assert got.probs.dtype == want.probs.dtype
        assert got.probs.tolist() == want.probs.tolist()


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
        first = {}
        for v, depth in enumerate(trace.p):
            assert trace.mus[v] is first.setdefault(depth, trace.mus[v])
            if depth > 0:
                assert not trace.mus[v].probs.flags.writeable


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


class TestLadderValidation:
    def test_rows_checked_like_single_distributions(self):
        space = StateSpace((0, 1))
        with pytest.raises(ValidationError, match="negative"):
            distribution_rows(space, np.array([[0.5, 0.5], [-0.5, 1.5]]))
        with pytest.raises(ValidationError, match="sum to"):
            distribution_rows(space, np.array([[0.5, 0.5], [0.5, 0.6]]))

    def test_rows_are_read_only_views(self):
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        dists = distribution_rows(StateSpace((0, 1)), rows)
        assert all(np.shares_memory(d.probs, rows) for d in dists)
        with pytest.raises(ValueError):
            dists[0].probs[0] = 1.0


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
        k = 5
        wrong = apply_operator(m, trace.mus[k])  # one operator application too many
        mus = trace.mus[:k] + (wrong,) + trace.mus[k + 1 :]
        assert not matrix_power_consistency(dataclasses.replace(trace, mus=mus), m)
        # a trace that is self-consistent but built from another kernel
        other = propagate(StochasticMatrix(m.space, m.rows[::-1]), mu0, schedule)
        assert not matrix_power_consistency(other, m)


class TestEdfSafeWorkers:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(20000):
            m = int(rng.integers(1, 8))
            seq = int(rng.integers(0, 30))
            deadlines = [int(x) for x in rng.integers(seq - 2, seq + m + 3, size=m)]
            assert schedules._edf_safe_workers(deadlines, seq) == reference_edf_safe_workers(
                deadlines, seq
            )

    @pytest.mark.parametrize("workers,b,seed", [(1, 1, 0), (2, 2, 1), (3, 5, 2), (5, 5, 3), (7, 12, 4)])
    def test_random_schedule_unchanged(self, monkeypatch, workers, b, seed):
        fast = random_schedule(workers, b, 400, np.random.default_rng(seed))
        monkeypatch.setattr(schedules, "_edf_safe_workers", reference_edf_safe_workers)
        assert random_schedule(workers, b, 400, np.random.default_rng(seed)) == fast

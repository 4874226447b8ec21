import numpy as np
import pytest

from asyncmc.errors import (
    DimensionError,
    InconclusiveCounterexampleError,
    ScheduleError,
    ValidationError,
)
from asyncmc.kernels import KernelSpec, UniformIndependenceProposal, finite_target, render_matrix
from asyncmc.measure_sim import (
    frozen_worker_schedule,
    measure_trace_csv,
    propagate,
    propagate_unbounded_counterexample,
    run_theorem4_campaign,
    verify_theorem4,
)
from asyncmc.measures import (
    FiniteDistribution,
    StateSpace,
    StochasticMatrix,
    apply_operator,
    half_l1,
    stationary_distribution,
)
from asyncmc.schedules import random_schedule, synchronous_schedule, validate
from test_reference_equivalence import matrix_power_consistency


def three_state_matrix():
    t = finite_target([1.0, 2.0, 3.0])
    return render_matrix(KernelSpec("metropolis_hastings", t, UniformIndependenceProposal(t.support)))


def two_state_matrix():
    return StochasticMatrix(StateSpace((0, 1)), [[0.7, 0.3], [0.4, 0.6]])


class TestPropagate:
    def test_synchronous_equals_iterated_operator(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate(m, mu0, synchronous_schedule(1, 60))
        current = mu0
        for k in range(61):
            assert half_l1(trace.ladder[trace.p[k]], current.probs) <= 1e-13
            current = apply_operator(m, current)

    def test_stationary_initial_stays_flat(self):
        m = three_state_matrix()
        pi = stationary_distribution(m)
        rng = np.random.default_rng(2)
        trace = propagate(m, pi, random_schedule(3, 4, 120, rng))
        assert max(trace.d) <= 1e-12

    def test_smoke_instance_converges_and_crosschecks(self):
        # 3-state kernel, m=3, b=4, seed 11, N=500
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        schedule = random_schedule(3, 4, 500, np.random.default_rng(11))
        trace = propagate(m, mu0, schedule)
        assert trace.d[-1] <= 1e-8
        assert matrix_power_consistency(trace, m)

    def test_invalid_schedule_refused(self):
        m = two_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        with pytest.raises(ScheduleError):
            propagate(m, mu0, frozen_worker_schedule(50))

    def test_space_mismatch(self):
        m = two_state_matrix()
        mu0 = FiniteDistribution.uniform(StateSpace((0, 1, 2)))
        with pytest.raises(DimensionError):
            propagate(m, mu0, synchronous_schedule(1, 10))


class TestVerify:
    def test_synchronous_trace_passes(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 2)
        trace = propagate(m, mu0, synchronous_schedule(2, 200, b=3))
        report = verify_theorem4(trace)
        assert report.passed and report.failures == ()

    def test_window_identity_max_max_split(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        rng = np.random.default_rng(5)
        trace = propagate(m, mu0, random_schedule(3, 5, 150, rng))
        b = trace.schedule.staleness_bound
        d = trace.d
        for k in range(len(trace.schedule.events)):
            left = max((d[j] for j in range(max(0, k - b + 2), k + 1)), default=d[k])
            assert trace.d_star[k + 1] == max(left, d[k + 1])

    def test_windowed_stats_respect_truncation(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate(m, mu0, synchronous_schedule(1, 30, b=7))
        for k in range(31):
            lo = max(0, k - 6)
            assert trace.d_star[k] == max(trace.d[lo : k + 1])
            assert trace.p_star[k] == min(trace.p[lo : k + 1])

    def test_depth_floor_reported(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        rng = np.random.default_rng(9)
        trace = propagate(m, mu0, random_schedule(2, 6, 120, rng))
        report = verify_theorem4(trace)
        assert report.depth_floor == (120 - 6) // 6 - 1
        assert report.p_star_final >= report.depth_floor

    def test_hundred_random_instances_zero_violations(self):
        report = run_theorem4_campaign(100, seed=33)
        assert report.violations == 0
        assert report.worst_final_d <= 1e-8

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"n_instances": 0}, "params.instances"),
            ({"n_instances": "x"}, "params.instances"),
            ({"n_instances": True}, "params.instances"),
            ({"n_states_max": 1}, "params.n_states_max"),
            ({"m_max": 0}, "params.m_max"),
            ({"m_max": 2.0}, "params.m_max"),
            ({"m_max": 5, "b_max": 4}, "params.b_max"),
            ({"b_max": 10, "length": 5}, "horizon"),
            ({"m_max": 2, "b_max": 4, "length": 26 * 4 - 1}, "horizon"),
        ],
    )
    def test_campaign_sizes_checked_first(self, kwargs, field):
        kwargs = {"n_instances": 3, "length": 30, **kwargs}
        with pytest.raises(ValidationError, match=f"^{field}: must be an integer"):
            run_theorem4_campaign(kwargs.pop("n_instances"), 0, **kwargs)

    def test_shortest_campaign_horizon_passes(self):
        # the uniform blend contracts by 0.45 or less, and 0.45**24 < 1e-8
        report = run_theorem4_campaign(30, 3, m_max=2, b_max=4, length=26 * 4)
        assert report.violations == 0 and report.worst_final_d <= 1e-8

    def test_failure_report_names_index(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate(m, mu0, synchronous_schedule(1, 20, b=2))
        report = verify_theorem4(trace, threshold=1e-30)
        assert not report.passed
        assert any("final version 20" in f for f in report.failures)


class TestCounterexample:
    def test_odd_versions_stay_far(self):
        m = two_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate_unbounded_counterexample(m, mu0, 1000)
        d1 = trace.d[1]
        assert d1 > 0
        odd = [trace.d[v] for v in range(1, len(trace.p), 2)]
        assert min(odd) >= d1 / 2
        assert any(trace.d[k] >= d1 / 2 for k in range(501, 1001))

    def test_schedule_is_invalid_but_live(self):
        trace = propagate_unbounded_counterexample(
            two_state_matrix(), FiniteDistribution.point_mass(two_state_matrix().space, 0), 100
        )
        report = validate(trace.schedule)
        assert report is not None
        assert report.invariant == "staleness"

    def test_even_lineage_still_converges(self):
        m = two_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate_unbounded_counterexample(m, mu0, 400)
        assert trace.d[400] <= 1e-8

    def test_stationary_initial_is_inconclusive(self):
        m = two_state_matrix()
        with pytest.raises(InconclusiveCounterexampleError):
            propagate_unbounded_counterexample(m, stationary_distribution(m), 100)

    def test_too_short_rejected(self):
        m = two_state_matrix()
        with pytest.raises(ValidationError):
            propagate_unbounded_counterexample(m, FiniteDistribution.point_mass(m.space, 0), 5)


class TestExport:
    def test_csv_shape_and_header(self):
        m = three_state_matrix()
        mu0 = FiniteDistribution.point_mass(m.space, 0)
        trace = propagate(m, mu0, synchronous_schedule(2, 40, b=3))
        lines = list(measure_trace_csv(trace))
        assert lines[0] == "seq,worker,read_from,d_k,d_star_k,p_k,p_star_k"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "-1"

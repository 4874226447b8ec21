import dataclasses

import numpy as np
import pytest

from asyncmc.errors import ScheduleError, ValidationError
from asyncmc.kernels import KernelSpec, UniformIndependenceProposal, finite_target, render_matrix
from asyncmc.measure_sim import propagate
from asyncmc.measures import FiniteDistribution
from asyncmc.schedules import (
    Event,
    Schedule,
    adversarial_schedules,
    minimal_valid_bound,
    random_schedule,
    schedule_from_jsonl,
    schedule_to_jsonl,
    synchronous_schedule,
    validate,
)
from asyncmc.shmem import replay


class TestValidate:
    def test_synchronous_round_robin_is_ok(self):
        for m in (1, 2, 4):
            assert validate(synchronous_schedule(m, 50, b=max(m, 3))) is None

    def test_single_worker_chain_any_b(self):
        assert validate(synchronous_schedule(1, 30, b=1)) is None

    def test_staleness_overflow_flagged_at_seq(self):
        events = list(synchronous_schedule(3, 30, b=3).events)
        events[10] = Event(10, events[10].worker, 10 - 4)
        report = validate(Schedule(tuple(events), 3, 3))
        assert report is not None
        assert report.invariant == "staleness"
        assert report.seq == 10

    def test_silent_worker_flagged(self):
        events = [Event(k, 0 if k < 20 else k % 3, k - 1) for k in range(30)]
        report = validate(Schedule(tuple(events), 3, 5))
        assert report is not None
        assert report.invariant == "no_worker_dies"
        assert report.seq == 5  # worker 1 missing from the window ending there

    def test_absent_from_final_window(self):
        # worker 2 never appears after seq 10 in a 30-event schedule
        events = [Event(k, k % 3 if k <= 10 else k % 2, k - 1) for k in range(30)]
        report = validate(Schedule(tuple(events), 3, 12))
        assert report is not None
        assert report.invariant == "no_worker_dies"

    def test_sequence_gaps_flagged(self):
        events = (Event(0, 0, -1), Event(2, 0, 1))
        report = validate(Schedule(events, 1, 2))
        assert report.invariant == "sequence"

    def test_read_from_below_initial_flagged(self):
        report = validate(Schedule((Event(0, 0, -2),), 1, 5))
        assert report.invariant == "sequence"


class TestRandomSchedule:
    def test_unique_single_worker_schedule(self):
        rng = np.random.default_rng(0)
        s = random_schedule(1, 1, 10, rng)
        assert [(e.worker, e.read_from) for e in s.events] == [(0, k - 1) for k in range(10)]

    def test_infeasible_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            random_schedule(2, 1, 10, rng)
        with pytest.raises(ValidationError):
            random_schedule(0, 1, 10, rng)
        with pytest.raises(ValidationError):
            random_schedule(2, 3, 2, rng)

    def test_generator_soundness_ten_thousand(self):
        rng = np.random.default_rng(7)
        produced = 0
        while produced < 10_000:
            for m in range(1, 6):
                for b in range(m, 11):
                    s = random_schedule(m, b, 40, rng)
                    assert validate(s) is None
                    produced += 1

    def test_extreme_staleness_both_reached(self):
        rng = np.random.default_rng(11)
        s = random_schedule(3, 6, 400, rng)
        staleness = [e.seq - e.read_from for e in s.events]
        assert 1 in staleness
        assert 6 in staleness


class TestAdversarial:
    def test_three_named_patterns_present_and_valid(self):
        named = adversarial_schedules(3, 5, 100)
        assert {"always_max_stale", "single_worker_dominant", "alternating_window"} <= set(named)
        for s in named.values():
            assert validate(s) is None

    def test_always_max_stale_structure(self):
        s = adversarial_schedules(3, 5, 60)["always_max_stale"]
        for e in s.events:
            assert e.seq - e.read_from == min(e.seq + 1, 5)

    def test_round_robin_b_equals_m(self):
        s = adversarial_schedules(3, 3, 60)["always_max_stale"]
        assert validate(s) is None
        assert all(e.read_from == e.seq - 3 for e in s.events if e.seq >= 2)

    def test_dominant_worker_share(self):
        m, b = 2, 6
        s = adversarial_schedules(m, b, 60)["single_worker_dominant"]
        first_block = [e.worker for e in s.events[:b]]
        assert first_block.count(0) == b - 1

    def test_infeasible_rejected(self):
        with pytest.raises(ValidationError):
            adversarial_schedules(4, 2, 50)


class TestSerialization:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        s = random_schedule(3, 5, 80, rng)
        assert schedule_from_jsonl("\n".join(schedule_to_jsonl(s))) == s

    def test_meta_free_traces_infer_shape(self):
        s = synchronous_schedule(2, 20, b=4)
        text = "\n".join(list(schedule_to_jsonl(s))[1:])
        recovered = schedule_from_jsonl(text)
        assert recovered.workers == 2
        assert [e.seq for e in recovered.events] == list(range(20))

    def test_bad_lines_rejected(self):
        with pytest.raises(ValidationError):
            schedule_from_jsonl("not json at all")
        with pytest.raises(ValidationError):
            schedule_from_jsonl('{"seq": 0, "worker": 0}')
        with pytest.raises(ValidationError):
            schedule_from_jsonl("")

    @pytest.mark.parametrize(
        "line,field",
        [
            ('{"seq": "0", "worker": 0, "read_from": -1}', "seq"),
            ('{"seq": 0, "worker": 0.5, "read_from": -1}', "worker"),
            ('{"seq": 0, "worker": 0, "read_from": true}', "read_from"),
            ('{"seq": 0, "worker": -1, "read_from": -1}', "worker"),
            ('{"kind": "meta", "workers": "2", "staleness_bound": 3}', "workers"),
            ('{"kind": "meta", "workers": 0, "staleness_bound": 3}', "workers"),
            ('{"kind": "meta", "workers": 2, "staleness_bound": 0}', "staleness_bound"),
            ('{"seq": 0, "worker": 0, "read_from": -1, "kind": "commit"}', "kind"),
        ],
    )
    def test_wrong_type_or_range_names_field_and_line(self, line, field):
        text = '{"seq": 0, "worker": 0, "read_from": -1}\n\n' + line
        with pytest.raises(ValidationError, match=f"trace line 3: field '{field}'"):
            schedule_from_jsonl(text)


class TestMinimalBound:
    def test_matches_validate_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_schedule(3, 7, 50, rng)
            triples = [(e.seq, e.worker, e.read_from) for e in s.events]
            b = minimal_valid_bound(triples, 3)
            assert validate(Schedule(s.events, 3, b)) is None
            if b > 1:
                assert validate(Schedule(s.events, 3, b - 1)) is not None


class TestValidateOnce:
    """A schedule is checked once, where it enters ``propagate`` or ``replay``,
    and ``validate`` walks every schedule in full, however it was built."""

    @pytest.fixture
    def setting(self):
        target = finite_target([1.0, 2.0, 3.0])
        kernel = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        matrix = render_matrix(kernel)
        return kernel, matrix, FiniteDistribution.uniform(matrix.space)

    @staticmethod
    def assert_refused(setting, schedule):
        kernel, matrix, mu0 = setting
        assert validate(schedule) is not None
        with pytest.raises(ScheduleError):
            propagate(matrix, mu0, schedule)
        with pytest.raises(ScheduleError):
            replay(kernel, schedule, seed=0)

    def test_replaced_copy_is_checked(self, setting):
        generated = random_schedule(3, 5, 60, np.random.default_rng(0))
        assert validate(generated) is None
        self.assert_refused(setting, dataclasses.replace(generated, staleness_bound=1))

    def test_hand_built_schedule_is_checked(self, setting):
        events = [Event(k, k % 2, k - 1) for k in range(20)]
        events[12] = Event(12, 0, 5)  # staleness 7 over bound 4
        self.assert_refused(setting, Schedule(tuple(events), 2, 4))

    def test_mutated_jsonl_round_trip_is_checked(self, setting):
        generated = random_schedule(3, 5, 60, np.random.default_rng(1))
        lines = list(schedule_to_jsonl(generated))
        lines[31] = '{"seq": 30, "worker": 0, "read_from": 10, "kind": "write"}'
        self.assert_refused(setting, schedule_from_jsonl("\n".join(lines)))

    def test_generated_schedule_changed_in_place_is_checked(self, setting):
        generated = random_schedule(3, 5, 60, np.random.default_rng(2))
        assert validate(generated) is None
        object.__setattr__(generated, "staleness_bound", 1)
        self.assert_refused(setting, generated)

"""Property tests of the schedule generator, the validity threshold and the
JSONL round trip.

Run with the ``test`` extra installed (``hypothesis``); every test is
derandomized, so each run tries the same examples.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncmc.schedules import (
    EVENT_KINDS,
    Event,
    Schedule,
    minimal_valid_bound,
    random_schedule,
    schedule_from_jsonl,
    schedule_to_jsonl,
    validate,
)
from test_reference_equivalence import (
    BIT_GENERATORS,
    generator_pair,
    plain_state,
    reference_random_schedule,
    reference_validate,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@st.composite
def shapes(draw):
    """Feasible ``(m, b, length)``: ``1 <= m <= b <= length``."""
    m = draw(st.integers(1, 6))
    b = draw(st.integers(m, 3 * m + 6))
    length = draw(st.integers(b, 4 * b + 40))
    return m, b, length


@st.composite
def event_lists(draw):
    """``(workers, events)``: consecutive seqs, any worker, any legal read."""
    workers = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    events = []
    for seq in range(n):
        worker = draw(st.integers(0, workers - 1))
        read_from = draw(st.integers(-1, seq - 1))
        events.append(Event(seq, worker, read_from))
    return workers, tuple(events)


@SETTINGS
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
def test_generated_schedules_validate(shape, seed):
    m, b, length = shape
    s = random_schedule(m, b, length, np.random.default_rng(seed))
    assert reference_validate(s) is None
    assert validate(Schedule(s.events, m, b)) is None


@SETTINGS
@given(
    shape=shapes(),
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    lead=st.integers(0, 3),
)
def test_draws_and_end_state_match_scalar_calls(shape, bit_generator, seed, lead):
    m, b, length = shape
    fast_rng, ref_rng = generator_pair(bit_generator, seed, lead)
    assert random_schedule(m, b, length, fast_rng) == reference_random_schedule(m, b, length, ref_rng)
    assert plain_state(fast_rng) == plain_state(ref_rng)


@SETTINGS
@given(case=event_lists())
def test_minimal_valid_bound_is_the_threshold(case):
    workers, events = case
    bound = minimal_valid_bound([e[:3] for e in events], workers)
    for b in range(1, bound + 3):
        assert (validate(Schedule(events, workers, b)) is None) == (b >= bound)


@SETTINGS
@given(
    shape=shapes(),
    seed=st.integers(0, 2**32 - 1),
    case=event_lists(),
    kinds=st.lists(st.sampled_from(EVENT_KINDS), min_size=40, max_size=40),
    slack=st.integers(0, 3),
)
def test_jsonl_round_trip(shape, seed, case, kinds, slack):
    m, b, length = shape
    generated = random_schedule(m, b, length, np.random.default_rng(seed))
    workers, events = case
    events = tuple(ev._replace(kind=kind) for ev, kind in zip(events, kinds))
    # the declared bound is kept as written, also above the minimal one
    bound = minimal_valid_bound([e[:3] for e in events], workers) + slack
    for s in (generated, Schedule(events, workers, bound)):
        assert schedule_from_jsonl("\n".join(schedule_to_jsonl(s))) == s

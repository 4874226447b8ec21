import math

import numpy as np
import pytest

from asyncmc import pserver
from asyncmc.diagnostics import discard_burn_in
from asyncmc.errors import (
    LivenessError,
    NumericError,
    UnsupportedTargetError,
    ValidationError,
)
from asyncmc.kernels import (
    GaussianIndependenceProposal,
    GaussianRandomWalkProposal,
    GaussianTarget,
    KernelSpec,
    TableIndependenceProposal,
    UniformIndependenceProposal,
    default_init,
    finite_target,
    gaussian_target,
    mh_step,
    render_matrix,
    target_distribution,
    worker_streams,
)
from asyncmc.pserver import (
    DelayModel,
    coupled_embed,
    messages_csv_lines,
    run_pserver,
    server_receive,
    trace_jsonl_lines,
)
from asyncmc.schedules import schedule_from_jsonl, validate


def three_state():
    return finite_target([1.0, 2.0, 3.0])


def mh_uniform(target=None):
    target = target or three_state()
    return KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))


def zero_delay(cap=0):
    return DelayModel("fifo_fixed", {"latency": 0.0, "jitter": 0.0}, staleness_cap=cap)


def make_message(target, proposal, x, y, params=None):
    params = params or {}
    return 0, x, y, proposal.logpdf(y, x, params), params


def receive(target, proposal, x_s, msg, u, naive=False):
    """``server_receive`` of ``msg`` at server state ``x_s``, reverse density from ``logpdf``."""
    reverse = proposal.logpdf(x_s, msg[1], msg[4])
    return server_receive(x_s, target.log_unnorm(x_s), msg, reverse, u, naive, target)


LARGEST_UNIFORM = 1.0 - 2.0**-53


class TestServerReceive:
    def test_fresh_symmetric_uphill_always_accepted(self):
        target = gaussian_target([0.0, 0.0], ((1.0, 0.0), (0.0, 1.0)))
        prop = GaussianRandomWalkProposal(0.5)
        x_s = (1.0, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            y = (float(rng.uniform(-0.9, 0.9)), float(rng.uniform(-0.9, 0.9)))
            assert target.log_unnorm(y) >= target.log_unnorm(x_s)
            msg = make_message(target, prop, x_s, y)
            value, lp, accepted, _ = receive(target, prop, x_s, msg, LARGEST_UNIFORM)
            assert accepted and value == y and lp == target.log_unnorm(y)

    def test_zero_density_proposal_always_rejected(self):
        target = finite_target([1.0, 2.0, 0.0])
        prop = TableIndependenceProposal(target.support, [1.0, 1.0, 1.0])
        msg = make_message(target, prop, 0, 2)
        for u in (0.0, 0.5, LARGEST_UNIFORM):
            value, lp, accepted, lr = receive(target, prop, 0, msg, u)
            assert not accepted
            assert lr == float("-inf")
            assert (value, lp) == (0, target.log_unnorm(0))

    def test_decision_follows_the_uniform(self):
        target = three_state()
        prop = TableIndependenceProposal(target.support, [1.0, 0.001, 0.001])
        msg = make_message(target, prop, 2, 0)
        accepted = receive(target, prop, 2, msg, 0.0)
        rejected = receive(target, prop, 2, msg, LARGEST_UNIFORM)
        assert accepted[:3] == (0, target.log_unnorm(0), True)
        assert rejected[:3] == (2, target.log_unnorm(2), False)
        assert accepted[3] == rejected[3] < 0.0

    def test_nan_arithmetic_raises(self):
        target = three_state()
        prop = UniformIndependenceProposal(target.support)
        msg = (0, 0, 1, float("nan"), {})  # a NaN forward density
        with pytest.raises(NumericError):
            receive(target, prop, 0, msg, 0.5)

    def test_naive_accepts_a_zero_density_proposal(self):
        target = finite_target([1.0, 2.0, 0.0])
        prop = TableIndependenceProposal(target.support, [1.0, 1.0, 1.0])
        msg = make_message(target, prop, 0, 2)
        assert receive(target, prop, 0, msg, LARGEST_UNIFORM, naive=True) == (
            2, float("-inf"), True, float("-inf")
        )


class TestZeroDelay:
    def test_single_worker_matches_mh_step(self):
        spec = mh_uniform()
        record = run_pserver(spec, m=1, horizon=400, delay=zero_delay(), mode="mh_corrected", seed=21)
        rng = worker_streams(21, 1)[0]
        x = default_init(spec.target)
        expected = []
        for _ in range(400):
            x = mh_step(spec, x, rng)
            expected.append(x)
        assert [spec.target.support.labels[i] for i in record.states] == expected

    def test_server_kernel_detailed_balance(self):
        spec = mh_uniform()
        srv = render_matrix(spec)
        pi = target_distribution(spec.target).probs.astype(float)
        worst = max(
            abs(pi[i] * srv.rows[i][j] - pi[j] * srv.rows[j][i])
            for i in range(3)
            for j in range(3)
        )
        assert worst <= 1e-10

    def test_empirical_distribution_near_target(self):
        spec = mh_uniform()
        record = run_pserver(spec, m=1, horizon=100_000, delay=zero_delay(), mode="mh_corrected", seed=5)
        pi = target_distribution(spec.target).probs.astype(float)
        late = discard_burn_in(record.states, 0.2)
        emp = np.bincount(late, minlength=3) / len(late)
        assert 0.5 * np.abs(emp - pi).sum() <= 0.02

    def test_stale_proposals_still_target_pi(self):
        # correction repairs staleness: reordered delivery on a finite target
        spec = mh_uniform()
        delay = DelayModel("reorder_random", {"span": 10}, staleness_cap=64)
        record = run_pserver(spec, m=4, horizon=200_000, delay=delay, mode="mh_corrected", seed=14)
        staleness = np.arange(200_000) - (record.read_versions - 1)
        assert staleness.max() > 1  # messages really did arrive stale
        pi = target_distribution(spec.target).probs.astype(float)
        late = discard_burn_in(record.states, 0.2)
        emp = np.bincount(late, minlength=3) / len(late)
        assert 0.5 * np.abs(emp - pi).sum() <= 0.02


class TestRunPServer:
    def test_trace_validates_and_conserves_messages(self):
        spec = mh_uniform()
        delay = DelayModel("fifo_random", {"mean": 2.0}, staleness_cap=64)
        record = run_pserver(spec, m=4, horizon=4000, delay=delay, mode="mh_corrected", seed=5)
        assert validate(schedule_from_jsonl("\n".join(trace_jsonl_lines(record)))) is None
        cfg = record.config
        assert cfg["messages_sent"] == 4000 + cfg["resends"] + cfg["pending_at_exit"]
        assert record.accepted.sum() + (~record.accepted).sum() == 4000

    def test_staleness_cap_respected_in_trace(self):
        spec = mh_uniform()
        delay = DelayModel("reorder_random", {"span": 6}, staleness_cap=5)
        record = run_pserver(spec, m=3, horizon=3000, delay=delay, mode="mh_corrected", seed=8)
        staleness = np.arange(3000) - (record.read_versions - 1)
        assert staleness.max() <= 5 + 1  # read at version v is event v-1; cap counts versions

    def test_deterministic_given_seed(self):
        spec = mh_uniform()
        delay = DelayModel("reorder_random", {"span": 4}, staleness_cap=64)
        a = run_pserver(spec, m=3, horizon=2000, delay=delay, mode="mh_corrected", seed=13)
        b = run_pserver(spec, m=3, horizon=2000, delay=delay, mode="mh_corrected", seed=13)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.accepted, b.accepted)

    def test_backpressure_deadlock_raises_liveness(self, monkeypatch):
        # cap 0 and zero period: the worker that lands first re-sends at
        # once and lands again inside every other worker's flight
        spec = mh_uniform()
        delay = DelayModel(
            "fifo_fixed", {"latency": 1.0, "jitter": 0.0, "periods": 0.0}, staleness_cap=0
        )
        monkeypatch.setattr(pserver, "MAX_RESENDS", 50)
        with pytest.raises(LivenessError):
            run_pserver(spec, m=3, horizon=1000, delay=delay, mode="mh_corrected", seed=2)

    def test_max_resends_caps_a_stall_not_the_run(self, monkeypatch):
        # the frozen worker's stale message is dropped once, then its fresh
        # resend lands; over the run that adds up to more than MAX_RESENDS
        target = gaussian_target((0.0, 0.0), GaussianTarget.bivariate_correlated(0.9).precision)
        delay = DelayModel(
            "fifo_fixed", {"latency": 0.0, "periods": [1.0, 2.0, 2.0], "jitter": 0.5}, staleness_cap=6
        )
        record = run_pserver(
            KernelSpec("gibbs_single_site", target), 3, 20_000, delay, "mh_corrected", 202,
            init=(3.0, -3.0), frozen_workers=(0,),
        )
        assert record.config["resends"] > 1000
        assert validate(schedule_from_jsonl("\n".join(trace_jsonl_lines(record)))) is None
        # at cap 0 with unit periods the workers land in turn, two resends each
        delay = DelayModel("fifo_fixed", {"latency": 1.0, "jitter": 0.0}, staleness_cap=0)
        monkeypatch.setattr(pserver, "MAX_RESENDS", 50)
        record = run_pserver(mh_uniform(), 3, 1000, delay, "mh_corrected", 2)
        assert record.config["resends"] > 50

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            run_pserver(mh_uniform(), 1, 10, zero_delay(), "bogus", 1)
        with pytest.raises(ValidationError):
            DelayModel("warp", {}, 1)

    @pytest.mark.parametrize(
        "kind,params,field",
        [
            ("fifo_fixed", {"jitter": -0.1}, "jitter"),
            ("fifo_fixed", {"jitter": float("inf")}, "jitter"),
            ("fifo_fixed", {"jitter": "0.3"}, "jitter"),
            ("fifo_fixed", {"latency": float("nan")}, "latency"),
            ("fifo_random", {"mean": -2.0}, "mean"),
            ("reorder_random", {"span": 2.5}, "span"),
            ("reorder_random", {"span": -1}, "span"),
            ("reorder_random", {"span": 2**63}, "span"),
            ("fifo_fixed", {"periods": [1.0, -1.0]}, r"periods\[1\]"),
            ("fifo_fixed", {"mean": 2.0}, "mean"),  # the key of another kind's latency law
            # a 400-digit integer overflowed math.isfinite
            ("fifo_fixed", {"jitter": 10**400}, "jitter"),
            ("fifo_fixed", {"latency": 10**400}, "latency"),
            ("fifo_random", {"mean": 10**400}, "mean"),
            ("fifo_fixed", {"periods": 10**400}, "periods"),
            ("fifo_fixed", {"periods": [1.0, 10**400]}, r"periods\[1\]"),
            ("fifo_fixed", {"periods": (1.0, 10**400)}, r"periods\[1\]"),
            # a null is not an absent field
            ("fifo_fixed", {"jitter": None}, "jitter"),
            ("fifo_fixed", {"periods": [1.0, None]}, r"periods\[1\]"),
        ],
    )
    def test_delay_params_validated_at_construction(self, kind, params, field):
        with pytest.raises(ValidationError, match=f"delay.params.{field}:"):
            DelayModel(kind, params)

    @pytest.mark.parametrize("field,value", [("kind", None), ("params", None), ("staleness_cap", None),
                                             ("staleness_cap", True), ("staleness_cap", -1)])
    def test_delay_fields_checked_by_name(self, field, value):
        with pytest.raises(ValidationError, match=f"delay.{field}:"):
            DelayModel(**{field: value})

    def test_delay_kind_defaults_to_geometric_latency(self):
        delay = DelayModel(params={"mean": 3.0})
        assert (delay.kind, delay.staleness_cap) == ("fifo_random", 64)

    def test_span_up_to_the_int64_limit_accepted(self):
        # numpy draws latencies in [0, span] as int64, so 2**63 - 1 is the largest span
        assert DelayModel("reorder_random", {"span": 2**63 - 1}).params["span"] == 2**63 - 1

    def test_periods_list_must_match_m(self):
        delay = DelayModel("fifo_fixed", {"periods": [1.0, 2.0]})
        with pytest.raises(ValidationError, match="delay.params.periods: has 2 entries"):
            run_pserver(mh_uniform(), 3, 10, delay, "mh_corrected", 1)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_random_walk_rejected(self, coupled):
        # N(0, 1), one worker, zero delay: the corrected server should be
        # plain MH, but with this proposal its late variance came out 2.99
        # (200 000 messages, seed 1) instead of 1
        spec = KernelSpec(
            "metropolis_hastings", gaussian_target([0.0], ((1.0,),)), GaussianRandomWalkProposal(0.5)
        )
        with pytest.raises(UnsupportedTargetError, match="GaussianRandomWalkProposal"):
            run_pserver(spec, 1, 10_000, zero_delay(), "mh_corrected", 1, coupled=coupled)

    def test_systematic_kernel_unsupported(self):
        target = gaussian_target([0.0, 0.0], GaussianTarget.bivariate_correlated(0.2).precision)
        spec = KernelSpec("systematic_gibbs", target)
        with pytest.raises(UnsupportedTargetError):
            run_pserver(spec, 1, 10, zero_delay(), "mh_corrected", 1)

    def test_naive_and_corrected_share_message_schedule(self):
        target = gaussian_target([0.0, 0.0], GaussianTarget.bivariate_correlated(0.9).precision)
        spec = KernelSpec("gibbs_single_site", target)
        delay = DelayModel(
            "fifo_fixed", {"latency": 0.0, "periods": [1.0, 2.0], "jitter": 0.5}, staleness_cap=10**9
        )
        runs = {
            mode: run_pserver(spec, m=2, horizon=2000, delay=delay, mode=mode, seed=3,
                              init=(2.0, -2.0), frozen_workers=(0,))
            for mode in ("mh_corrected", "naive_accept")
        }
        # same delivery order and same read bookkeeping for the frozen worker
        a, b = runs["mh_corrected"], runs["naive_accept"]
        assert np.array_equal(a.workers, b.workers)
        frozen_a = a.read_versions[a.workers == 0]
        frozen_b = b.read_versions[b.workers == 0]
        assert np.array_equal(frozen_a, frozen_b)
        assert frozen_a.max() == 0  # frozen worker never refreshes its read


class TestCoupled:
    def test_m1_gaussian_run(self):
        # one replica is a product of 1-tuples, like any other m
        target = gaussian_target([0.0, 0.0], ((1.0, 0.0), (0.0, 1.0)))
        spec = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal((0.0, 0.0), 1.5))
        delay = DelayModel("fifo_random", {"mean": 2.0}, staleness_cap=64)
        record = run_pserver(spec, m=1, horizon=2000, delay=delay, mode="mh_corrected",
                             seed=3, coupled=True)
        assert record.states.shape == (2000, 1, 2)
        assert 0.3 < record.accept_rate < 0.9

    def test_gibbs_needs_a_one_site_base_target(self):
        # a slot message draws one site, so the slot's other sites would revert to the stale read
        delay = DelayModel("fifo_fixed", {"latency": 0.0, "jitter": 0.5}, staleness_cap=10**9)
        target = gaussian_target([0.0, 0.0], GaussianTarget.bivariate_correlated(0.9).precision)
        with pytest.raises(UnsupportedTargetError, match="^kernel.kind: .* one-site target, not 2 sites$"):
            run_pserver(KernelSpec("gibbs_single_site", target), 2, 100, delay, "mh_corrected", 1,
                        init=((3.0, -3.0), (3.0, -3.0)), frozen_workers=(0,), coupled=True)
        for one_site in (three_state(), gaussian_target([0.0], ((1.0,),))):
            record = run_pserver(KernelSpec("gibbs_single_site", one_site), 2, 100, delay, "mh_corrected", 1,
                                 coupled=True)
            assert len(record.states) == 100 and record.accept_rate > 0

    def test_embed_product_weights(self):
        t = three_state()
        coupled = coupled_embed(t, 2)
        assert coupled.support is None  # the product space is never enumerated
        assert math.exp(coupled.log_unnorm((1, 2))) == pytest.approx(2.0 * 3.0)
        assert coupled.dim == 2

    def test_finite_states_hold_one_label_index_per_slot(self):
        target = finite_target([1.0, 2.0, 3.0], ["a", "b", "c"])
        spec = mh_uniform(target)
        record = run_pserver(spec, m=3, horizon=500, delay=zero_delay(64), mode="mh_corrected",
                             seed=4, coupled=True, init=("c", "a", "b"))
        assert record.states.shape == (500, 3) and record.states.dtype == np.int64
        # the first message updates its worker's slot alone
        others = [slot for slot in range(3) if slot != record.workers[0]]
        assert record.states[0, others].tolist() == [[2, 0, 1][slot] for slot in others]

    def test_gaussian_init_slot_of_the_wrong_dimension_rejected(self):
        target = gaussian_target([0.0, 0.0], ((1.0, 0.0), (0.0, 1.0)))
        spec = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal((0.0, 0.0), 1.5))
        # a slot of one coordinate, or a bare number, or one slot too few or too many
        for init in (((0.0,), (0.0,)), (0.0, 0.0), ((0.0, 0.0),), ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))):
            with pytest.raises(ValidationError, match="^params.init: "):
                run_pserver(spec, 2, 10, zero_delay(), "mh_corrected", 1, coupled=True, init=init)

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("bad", [("a", "b"), (10**400, 0.0), (math.nan, 0.0), (0.0, math.inf)])
    def test_gaussian_init_of_other_than_finite_numbers_rejected(self, bad, coupled):
        # these raised TypeError, OverflowError and NumericError from the density
        target = gaussian_target([0.0, 0.0], ((1.0, 0.0), (0.0, 1.0)))
        spec = KernelSpec("metropolis_hastings", target, GaussianIndependenceProposal((0.0, 0.0), 1.5))
        init = ((0.0, 0.0), bad) if coupled else bad
        with pytest.raises(ValidationError, match="^params.init: "):
            run_pserver(spec, 2, 10, zero_delay(), "mh_corrected", 1, coupled=coupled, init=init)

    def test_replica_marginals_near_target(self):
        spec = mh_uniform()
        delay = DelayModel("fifo_random", {"mean": 2.0}, staleness_cap=64)
        record = run_pserver(spec, m=2, horizon=150_000, delay=delay, mode="mh_corrected",
                             seed=6, coupled=True)
        pi = target_distribution(spec.target).probs.astype(float)
        for idx in record.states.T:
            late = idx[len(idx) // 5:]
            emp = np.bincount(late, minlength=3) / len(late)
            assert 0.5 * np.abs(emp - pi).sum() <= 0.02

    def test_replicas_decorrelate_under_independent_proposals(self):
        spec = mh_uniform()
        delay = DelayModel("fifo_random", {"mean": 2.0}, staleness_cap=64)
        record = run_pserver(spec, m=2, horizon=150_000, delay=delay, mode="mh_corrected",
                             seed=9, coupled=True)
        a, b = record.states[30_000:].T
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 0.02


class TestExports:
    def test_trace_jsonl_has_accept_flags(self):
        record = run_pserver(mh_uniform(), 1, 50, zero_delay(), "mh_corrected", 3)
        lines = list(trace_jsonl_lines(record))
        assert len(lines) == 51
        assert '"accepted":' in lines[1]
        assert '"kind": "server_commit"' in lines[1] or '"kind":"server_commit"' in lines[1].replace(" ", "")

    def test_messages_csv_columns(self):
        record = run_pserver(mh_uniform(), 1, 20, zero_delay(), "mh_corrected", 3)
        lines = list(messages_csv_lines(record))
        assert lines[0] == "seq,worker,read_version,accepted,log_ratio"
        assert len(lines) == 21

import math
from collections import Counter

import numpy as np
import pytest

from asyncmc.errors import (
    ProposalInconsistencyError,
    UnsupportedTargetError,
    ValidationError,
)
from asyncmc.kernels import (
    gibbs_site_draw,
    GaussianIndependenceProposal,
    GaussianRandomWalkProposal,
    GaussianTarget,
    GibbsSiteProposal,
    IdentityProposal,
    KernelSpec,
    RENDER_CAP,
    TableIndependenceProposal,
    UniformIndependenceProposal,
    default_init,
    finite_target,
    gaussian_target,
    kernel_step,
    mh_step,
    render_matrix,
    target_distribution,
    worker_streams,
)
from asyncmc.measures import apply_operator, stationary_distribution, tv_distance
from test_reference_equivalence import product_finite_target


def three_state():
    return finite_target([1.0, 2.0, 3.0])


def mh_uniform_spec(target=None):
    target = target or three_state()
    return KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))


def binary_product(weights=((1.0, 2.0), (3.0, 4.0))):
    w = np.asarray(weights)
    return product_finite_target([(0, 1), (0, 1)], lambda x: math.log(w[x[0], x[1]]))


class TestTargets:
    def test_finite_target_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            finite_target([1.0, -0.5])
        with pytest.raises(ValidationError):
            finite_target([0.0, 0.0])

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: finite_target([10**400, 1.0]), "target.weights"),
            (lambda: gaussian_target([10**400], ((1.0,),)), "target.mean"),
            (lambda: gaussian_target([0.0], ((10**400,),)), "target.precision"),
            (lambda: TableIndependenceProposal(three_state().support, [10**400, 1.0, 1.0]),
             "kernel.proposal.weights"),
            (lambda: GaussianIndependenceProposal([10**400], 1.0), "kernel.proposal.center"),
            (lambda: GaussianRandomWalkProposal(10**400), "kernel.proposal.scale"),
            (lambda: GaussianIndependenceProposal([0.0], 10**400), "kernel.proposal.scale"),
        ],
    )
    def test_int_past_float_range_named(self, build, field):
        # numpy's float conversion of a 400-digit int raised OverflowError
        with pytest.raises(ValidationError, match=f"^{field}: "):
            build()

    def test_gaussian_requires_spd_precision(self):
        with pytest.raises(ValidationError):
            GaussianTarget((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(ValidationError):
            GaussianTarget((0.0, 0.0), ((1.0, 0.5), (0.4, 1.0)))

    def test_bivariate_conditional_formula(self):
        # precision [[1, r], [r, 1]] conditions site 0 at mean -r * x1
        r = 0.4
        gt = GaussianTarget((0.0, 0.0), ((1.0, r), (r, 1.0)))
        mean, var = gt.conditional(0, (0.0, 2.0))
        assert mean == pytest.approx(-r * 2.0)
        assert var == pytest.approx(1.0)

    def test_correlated_factory_conditional(self):
        gt = GaussianTarget.bivariate_correlated(0.5)
        mean, var = gt.conditional(0, (0.0, 2.0))
        assert mean == pytest.approx(0.5 * 2.0)
        assert var == pytest.approx(1 - 0.25)

    def test_target_distribution_normalizes(self):
        pi = target_distribution(three_state())
        assert np.allclose(pi.probs.astype(float), [1 / 6, 2 / 6, 3 / 6])


class TestMHStep:
    def test_identity_proposal_always_accepts(self):
        spec = KernelSpec("metropolis_hastings", three_state(), IdentityProposal())
        rng = np.random.default_rng(0)
        assert mh_step(spec, 1, rng) == 1

    def test_symmetric_uphill_always_accepted(self):
        target = gaussian_target([0.0], [[1.0]])

        class Recording(GaussianRandomWalkProposal):
            last = None

            def sample(self, x, rng):
                out = super().sample(x, rng)
                Recording.last = out[0]
                return out

        spec = KernelSpec("metropolis_hastings", target, Recording(0.5))
        rng = np.random.default_rng(1)
        uphill_seen = 0
        for _ in range(500):
            state = mh_step(spec, (2.0,), rng)
            if target.log_unnorm(Recording.last) >= target.log_unnorm((2.0,)):
                uphill_seen += 1
                assert state == Recording.last
        assert uphill_seen > 100

    def test_one_uniform_per_decision(self):
        # same proposal draws, so trajectories agree iff the accept decision
        # consumes exactly one uniform in a fixed position
        spec = mh_uniform_spec()
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        x1 = x2 = 0
        for _ in range(100):
            x1 = mh_step(spec, x1, r1)
            idx = int(r2.integers(3))
            u = r2.random()
            lr = spec.target.log_unnorm(spec.target.support.labels[idx]) - spec.target.log_unnorm(x2)
            x2 = spec.target.support.labels[idx] if (lr >= 0 or u < math.exp(lr)) else x2
        assert x1 == x2

    def test_proposal_inconsistency_detected(self):
        class BrokenProposal:
            symmetric = True
            proposal_id = "broken"
            targets = ("finite",)

            def sample(self, x, rng):
                return "not-a-state", {}

            def logpdf(self, y, x, params=None):
                return float("-inf")

        spec = KernelSpec("metropolis_hastings", three_state(), BrokenProposal())
        with pytest.raises(ProposalInconsistencyError):
            mh_step(spec, 0, np.random.default_rng(0))

    def test_outside_support_start_rejected(self):
        target = finite_target([1.0, 0.0, 3.0])
        spec = KernelSpec("metropolis_hastings", target, UniformIndependenceProposal(target.support))
        with pytest.raises(ValidationError):
            mh_step(spec, 1, np.random.default_rng(0))

    def test_determinism_bit_identical(self):
        gt = gaussian_target([0.0, 0.0], GaussianTarget.bivariate_correlated(0.3).precision)
        spec = KernelSpec("metropolis_hastings", gt, GaussianRandomWalkProposal(0.7))
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            x = (0.0, 0.0)
            traj = []
            for _ in range(300):
                x = mh_step(spec, x, rng)
                traj.append(x)
            out.append(traj)
        assert out[0] == out[1]


class TestGibbs:
    def test_independent_product_site_draw_leaves_others(self):
        target = binary_product(((1.0, 3.0), (1.0, 3.0)))
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert gibbs_site_draw(target, (0, 1), 0, rng)[1] == 1

    def test_independent_product_marginal_frequencies(self):
        # independent sites: conditional at a site equals its marginal
        target = product_finite_target(
            [(0, 1), (0, 1)], lambda x: math.log([1.0, 3.0][x[0]] * [2.0, 2.0][x[1]])
        )
        rng = np.random.default_rng(6)
        hits = Counter(gibbs_site_draw(target, (0, 0), 0, rng)[0] for _ in range(20000))
        assert hits[1] / 20000 == pytest.approx(0.75, abs=0.01)

    def test_gaussian_conditional_moment_check(self):
        r = 0.6
        target = gaussian_target([0.0, 0.0], ((1.0, r), (r, 1.0)))
        rng = np.random.default_rng(7)
        draws = np.array([gibbs_site_draw(target, (0.0, 2.0), 0, rng)[0] for _ in range(20000)])
        assert draws.mean() == pytest.approx(-r * 2.0, abs=0.02)
        assert draws.var() == pytest.approx(1.0, abs=0.03)

    def test_systematic_scan_matrix_is_stationary_for_target(self):
        target = binary_product()
        mat = render_matrix(KernelSpec("systematic_gibbs", target))
        pi = target_distribution(target)
        assert tv_distance(apply_operator(mat, pi), pi) <= 1e-10
        pi_hat = stationary_distribution(mat)
        assert tv_distance(pi_hat, pi) <= 1e-8

    def test_random_scan_matrix_is_stationary_for_target(self):
        target = binary_product(((2.0, 1.0), (1.0, 5.0)))
        mat = render_matrix(KernelSpec("gibbs_single_site", target))
        pi = target_distribution(target)
        assert tv_distance(apply_operator(mat, pi), pi) <= 1e-10

    def test_site_order_validated(self):
        with pytest.raises(ValidationError):
            KernelSpec("systematic_gibbs", binary_product(), site_order=(0, 0))

    def test_unsupported_target_for_gibbs(self):
        bare = gaussian_target([0.0], [[1.0]])
        no_structure = type(bare)(dim=1, log_unnorm=bare.log_unnorm)
        with pytest.raises(ValidationError):
            KernelSpec("gibbs_single_site", no_structure)
        with pytest.raises(UnsupportedTargetError):
            gibbs_site_draw(no_structure, (9.0,), 0, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            gibbs_site_draw(bare, (9.0,), 2, np.random.default_rng(0))


class TestRenderMatrix:
    def test_identity_proposal_renders_identity(self):
        mat = render_matrix(KernelSpec("metropolis_hastings", three_state(), IdentityProposal()))
        assert np.allclose(mat.rows, np.eye(3))

    def test_uniform_proposal_stationary_matches_weights(self):
        mat = render_matrix(mh_uniform_spec())
        pi = stationary_distribution(mat)
        assert np.allclose(pi.probs, [1 / 6, 2 / 6, 3 / 6], atol=1e-10)

    def test_detailed_balance_for_rendered_mh(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            weights = rng.uniform(0.2, 3.0, size=4)
            target = finite_target(weights)
            prop = TableIndependenceProposal(target.support, rng.uniform(0.2, 2.0, size=4))
            mat = render_matrix(KernelSpec("metropolis_hastings", target, prop))
            pi = target_distribution(target).probs.astype(float)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        assert abs(pi[i] * mat.rows[i][j] - pi[j] * mat.rows[j][i]) <= 1e-10

    def test_sample_measure_agreement_million_steps(self):
        spec = mh_uniform_spec()
        mat = render_matrix(spec)
        pi = stationary_distribution(mat)
        rng = np.random.default_rng(17)
        counts = Counter()
        x = default_init(spec.target)
        for _ in range(1_000_000):
            x = mh_step(spec, x, rng)
            counts[x] += 1
        emp = np.array([counts[l] for l in spec.target.support.labels], dtype=float)
        emp /= emp.sum()
        assert 0.5 * np.abs(emp - pi.probs).sum() <= 0.01

    def test_continuous_support_not_renderable(self):
        gt = gaussian_target([0.0], [[1.0]])
        with pytest.raises(UnsupportedTargetError):
            render_matrix(KernelSpec("metropolis_hastings", gt, GaussianRandomWalkProposal(1.0)))

    def test_cap_enforced(self):
        target = finite_target(np.ones(RENDER_CAP + 1))
        with pytest.raises(ValidationError):
            render_matrix(mh_uniform_spec(target))


class TestGaussianGibbsSampling:
    def test_systematic_scan_million_sample_moments(self):
        rho = 0.5
        gt = GaussianTarget.bivariate_correlated(rho)
        target = gaussian_target(gt.mean, gt.precision)
        spec = KernelSpec("systematic_gibbs", target)
        rng = np.random.default_rng(23)
        n = 1_000_000
        out = np.empty((n, 2))
        x = (0.0, 0.0)
        for i in range(n):
            x = kernel_step(spec, x, rng)
            out[i] = x
        mean = out.mean(axis=0)
        cov = np.cov(out, rowvar=False)
        assert np.abs(mean).max() <= 0.01
        assert abs(cov[0, 0] - 1.0) <= 0.02
        assert abs(cov[1, 1] - 1.0) <= 0.02
        assert abs(cov[0, 1] - rho) <= 0.02


class TestProposals:
    def test_gibbs_site_proposal_density_matches_conditional(self):
        target = gaussian_target([0.0, 0.0], GaussianTarget.bivariate_correlated(0.5).precision)
        prop = GibbsSiteProposal(target)
        rng = np.random.default_rng(29)
        y, params = prop.sample((1.0, -1.0), rng)
        mean, var = target.gaussian.conditional(params["site"], (1.0, -1.0))
        z = (y[params["site"]] - mean) / math.sqrt(var)
        expected = -0.5 * z * z - 0.5 * math.log(var) - 0.5 * math.log(2 * math.pi)
        assert prop.logpdf(y, (1.0, -1.0), params) == pytest.approx(expected)

    def test_independence_logpdf_ignores_current_state(self):
        prop = GaussianIndependenceProposal((0.0, 0.0), 2.0)
        y = (0.3, -0.7)
        assert prop.logpdf(y, (5.0, 5.0)) == prop.logpdf(y, (-2.0, 1.0))

    def test_independence_from_normals_matches_sample(self):
        # the block server path maps a sized standard_normal call's values
        # with from_normals; sample draws them one scalar call at a time
        prop = GaussianIndependenceProposal((0.3, -1.7, 2.0), 0.7)
        fast, ref = np.random.default_rng(41), np.random.default_rng(41)
        z = np.stack([fast.standard_normal(3) for _ in range(500)])
        want = [prop.sample(None, ref)[0] for _ in range(500)]
        assert prop.from_normals(z).tolist() == [list(y) for y in want]

    def test_describe_names_each_proposal_id(self):
        finite = finite_target([1.0, 2.0, 3.0])
        gauss = gaussian_target([0.0], [[1.0]])
        cases = [
            (UniformIndependenceProposal(finite.support), finite, "uniform_independence"),
            (TableIndependenceProposal(finite.support, [1.0, 1.0, 2.0]), finite, "table_independence"),
            (GaussianRandomWalkProposal(0.5), gauss, "gaussian_random_walk"),
            (GaussianIndependenceProposal([0.0], 1.5), gauss, "gaussian_independence"),
            (GibbsSiteProposal(gauss), gauss, "gibbs_site"),
        ]
        for proposal, target, proposal_id in cases:
            spec = KernelSpec("metropolis_hastings", target, proposal)
            assert spec.describe() == f"metropolis_hastings[{proposal_id}]"

    def test_kernel_spec_refuses_a_proposal_of_the_wrong_sort(self):
        finite = finite_target([1.0, 2.0, 3.0])
        gauss = gaussian_target([0.0], [[1.0]])
        cases = [
            (finite, GaussianIndependenceProposal([0.0], 1.0)),
            (finite, GaussianRandomWalkProposal(1.0)),
            (gauss, UniformIndependenceProposal(finite.support)),
            (gauss, TableIndependenceProposal(finite.support, [1.0, 1.0, 2.0])),
        ]
        for target, proposal in cases:
            with pytest.raises(ValidationError, match=f"{proposal.proposal_id}.*not a {target.sort}"):
                KernelSpec("metropolis_hastings", target, proposal)

    def test_kernel_spec_refuses_a_proposal_declaring_no_targets(self):
        class Undeclared(IdentityProposal):
            targets = ()

        with pytest.raises(ValidationError, match="serves no targets"):
            KernelSpec("metropolis_hastings", three_state(), Undeclared())

    def test_proposals_serving_both_sorts(self):
        finite = finite_target([1.0, 2.0, 3.0])
        gauss = gaussian_target([0.0], [[1.0]])
        for target in (finite, gauss):
            KernelSpec("metropolis_hastings", target, IdentityProposal())
            KernelSpec("metropolis_hastings", target, GibbsSiteProposal(target))

    def test_worker_streams_are_independent_and_reproducible(self):
        a = worker_streams(42, 3)
        b = worker_streams(42, 3)
        draws_a = [g.random() for g in a]
        draws_b = [g.random() for g in b]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 3

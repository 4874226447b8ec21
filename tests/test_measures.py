import json

import numpy as np
import pytest

from asyncmc.errors import (
    DimensionError,
    NonErgodicKernelError,
    StationarityError,
    ValidationError,
)
from asyncmc import measures
from asyncmc.kernels import KernelSpec, TableIndependenceProposal, finite_target, render_matrix
from asyncmc.measures import (
    ContractionCheck,
    FiniteDistribution,
    StateSpace,
    StochasticMatrix,
    apply_operator,
    check_contraction,
    random_distribution,
    random_stochastic_matrix,
    run_contraction_campaign,
    stationary_distribution,
    tv_distance,
)
from test_reference_equivalence import matrix_power


def space(n):
    return StateSpace(tuple(range(n)))


def dist(*probs):
    return FiniteDistribution(space(len(probs)), np.array(probs, dtype=float))


class TestConstruction:
    def test_space_labels_distinct(self):
        with pytest.raises(ValidationError):
            StateSpace((0, 0, 1))

    def test_space_nonempty(self):
        with pytest.raises(ValidationError):
            StateSpace(())

    def test_space_indices_match_index(self):
        sp = StateSpace(("a", (0, 1), 2.5))
        labels = [(0, 1), 2.5, "a", "a"]
        assert sp.indices(labels) == [sp.index(lab) for lab in labels] == [1, 2, 0, 0]
        for bad in ("b", (1, 0)):
            with pytest.raises(ValidationError) as got:
                sp.indices(["a", bad])
            with pytest.raises(ValidationError) as want:
                sp.index(bad)
            assert str(got.value) == str(want.value)

    def test_negative_prob_rejected(self):
        with pytest.raises(ValidationError):
            dist(1.2, -0.2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            dist(0.6, 0.5)

    def test_row_sum_rejected(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(space(2), [[0.5, 0.6], [0.5, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            FiniteDistribution(space(3), [0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            FiniteDistribution(space(3), [bad, 0.5, 0.5])
        with pytest.raises(ValidationError, match="non-finite"):
            StochasticMatrix(space(2), [[0.5, 0.5], [bad, 1.0]])

    def test_nan_from_json_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            FiniteDistribution(space(3), json.loads("[NaN, 0.5, 0.5]"))


class TestApplyOperator:
    def test_identity_fixes_everything(self):
        m = StochasticMatrix(space(3), np.eye(3))
        mu = dist(0.2, 0.3, 0.5)
        out = apply_operator(m, mu)
        assert np.allclose(out.probs, mu.probs)

    def test_rank_one_rows_jump_to_pi(self):
        pi = [0.1, 0.6, 0.3]
        m = StochasticMatrix(space(3), [pi, pi, pi])
        out = apply_operator(m, dist(1.0, 0.0, 0.0))
        assert np.allclose(out.probs, pi)

    def test_hand_matvec(self):
        m = StochasticMatrix(space(2), [[0.5, 0.5], [0.5, 0.5]])
        out = apply_operator(m, dist(1.0, 0.0))
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_space_mismatch(self):
        m = StochasticMatrix(space(2), [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DimensionError):
            apply_operator(m, dist(0.2, 0.3, 0.5))


class TestTVDistance:
    def test_identical_is_zero(self):
        a = dist(0.4, 0.6)
        assert tv_distance(a, a) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance(dist(1.0, 0.0), dist(0.0, 1.0)) == 1.0

    def test_direct_evaluation(self):
        assert tv_distance(dist(0.75, 0.25), dist(0.25, 0.75)) == pytest.approx(0.5, abs=1e-15)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            a, b, c = (random_distribution(rng, n) for _ in range(3))
            dab, dba = tv_distance(a, b), tv_distance(b, a)
            assert dab == dba
            assert 0.0 <= dab <= 1.0
            assert tv_distance(a, c) <= dab + tv_distance(b, c) + 1e-12
        assert tv_distance(a, a) == 0.0


class TestStationary:
    def test_doubly_stochastic_gives_uniform(self):
        m = StochasticMatrix(space(2), [[0.3, 0.7], [0.7, 0.3]])
        pi = stationary_distribution(m)
        assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-12)

    def test_identity_is_non_ergodic(self):
        with pytest.raises(NonErgodicKernelError):
            stationary_distribution(StochasticMatrix(space(2), np.eye(2)))

    def test_periodic_swap_is_non_ergodic(self):
        with pytest.raises(NonErgodicKernelError):
            stationary_distribution(StochasticMatrix(space(2), [[0.0, 1.0], [1.0, 0.0]]))

    def test_two_state_linear_solve_oracle(self):
        m = StochasticMatrix(space(2), [[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_distribution(m)
        assert np.allclose(pi.probs, [2 / 3, 1 / 3], atol=1e-10)

    def test_residual_postcondition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_stochastic_matrix(rng, int(rng.integers(2, 9)))
            pi = stationary_distribution(m)
            assert tv_distance(apply_operator(m, pi), pi) <= 1e-10

    def test_near_identity_kernel_reaches_pi(self):
        # one power-iteration step from uniform moves less than POWER_ITER_STEP_TOL
        # although uniform is 0.25 from pi = [0.25, 0.75] in TV
        t = finite_target([1.0, 3.0])
        m = render_matrix(KernelSpec("metropolis_hastings", t, TableIndependenceProposal(t.support, [1.0, 1e-13])))
        assert m.rows[0, 1] == pytest.approx(1e-13)
        assert np.allclose(stationary_distribution(m).probs, [0.25, 0.75], rtol=0, atol=1e-12)


def reference_is_primitive(pattern: np.ndarray) -> bool:
    """Whether the support pattern raised to exactly Wielandt's bound (n-1)^2 + 1 is positive."""
    n = len(pattern)
    base = (pattern > 0).astype(int)
    power = base
    for _ in range((n - 1) ** 2):
        power = ((power @ base) > 0).astype(int)
    return bool(power.all())


def wielandt_matrix(n: int) -> np.ndarray:
    """The n-cycle plus one chord: primitive with exponent exactly (n-1)^2 + 1."""
    pattern = np.zeros((n, n))
    for i in range(n):
        pattern[i, (i + 1) % n] = 1.0
    pattern[n - 1, 1] = 1.0
    return pattern


class TestIsPrimitive:
    def test_matches_exact_wielandt_power_on_random_patterns(self):
        rng = np.random.default_rng(31)
        for _ in range(5000):
            n = int(rng.integers(1, 9))
            pattern = (rng.random((n, n)) < rng.uniform(0.05, 0.7)).astype(float)
            assert measures._is_primitive(pattern) == reference_is_primitive(pattern)

    def test_cyclic_permutations_are_not_primitive(self):
        for n in range(2, 9):
            pattern = np.roll(np.eye(n), 1, axis=1)
            assert not reference_is_primitive(pattern)
            assert not measures._is_primitive(pattern)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_wielandt_extremal_matrices(self, n):
        pattern = wielandt_matrix(n)
        assert reference_is_primitive(pattern)
        assert measures._is_primitive(pattern)
        # one power short of the bound still has a zero entry
        power = np.linalg.matrix_power(pattern.astype(np.int64), (n - 1) ** 2 - 1) > 0
        assert not ((power.astype(int) @ pattern) > 0).all()

    def test_two_hundred_states(self):
        # far past the exact reference's reach: exponent 199^2 + 1 = 39 602
        assert measures._is_primitive(wielandt_matrix(200))
        assert not measures._is_primitive(np.roll(np.eye(200), 1, axis=1))


class TestContraction:
    def test_mu_equals_pi(self):
        m = StochasticMatrix(space(2), [[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_distribution(m)
        chk = check_contraction(m, pi, pi)
        assert chk.contracts
        assert chk.d_before <= 1e-12 and chk.d_after <= 1e-12

    def test_non_stationary_pi_rejected(self):
        m = StochasticMatrix(space(2), [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(StationarityError):
            check_contraction(m, dist(0.5, 0.5), dist(0.5, 0.5))

    def test_hundred_random_pairs_on_five_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_stochastic_matrix(rng, 5)
            mu = random_distribution(rng, 5)
            chk = check_contraction(m, mu, stationary_distribution(m))
            assert isinstance(chk, ContractionCheck)
            assert chk.contracts

    def test_campaign_runs_clean(self):
        report = run_contraction_campaign(100, seed=12)
        assert report.violations == 0
        assert report.worst_excess <= 1e-12


class TestComposition:
    def test_matrix_power_matches_iteration(self):
        rng = np.random.default_rng(8)
        m = random_stochastic_matrix(rng, 4)
        p3 = matrix_power(m, 3)
        expected = m.rows @ m.rows @ m.rows
        assert np.allclose(p3.rows, expected, atol=1e-14)

    def test_monotone_convergence_to_zero(self):
        rng = np.random.default_rng(9)
        m = random_stochastic_matrix(rng, 6)
        pi = stationary_distribution(m)
        mu = FiniteDistribution.point_mass(m.space, 0)
        last = tv_distance(mu, pi)
        below = False
        for _ in range(2000):
            mu = apply_operator(m, mu)
            d = tv_distance(mu, pi)
            assert d <= last + 1e-12
            last = d
            if d < 1e-8:
                below = True
                break
        assert below


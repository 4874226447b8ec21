"""Exact probability machinery on finite state spaces.

Distributions are probability vectors over an enumerated space and transition
kernels are row-stochastic matrices acting on them by right multiplication of
the row vector.  Two arithmetic modes coexist: float64 (default) and exact
rationals, held as numpy object arrays of ``fractions.Fraction`` on which
numpy's ``@``, ``abs``, ``sum`` and comparisons run exactly.
The rational mode exists so that the convergence-proof replication can run
with zero tolerance on small instances.  Each operation is one numpy
expression whose arithmetic follows its operands: exact when all of them are
exact, float64 when one is float (a product with mixed operands holds Python
floats, which the constructors turn into a float64 array).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionError, NonErgodicKernelError, StationarityError, ValidationError

SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
POWER_ITER_STEP_TOL = 1e-13
POWER_ITER_MAX = 10**6
CONTRACTION_SIZES = tuple(range(2, 11))  # state-space sizes of the contraction campaign


def _is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _as_prob_array(values: Sequence) -> np.ndarray:
    # Exact when every entry is rational (Fractions, or the integers of an
    # object identity), float64 when any entry is a float.
    arr = np.asarray(values)
    if _is_exact(arr) and all(isinstance(x, numbers.Rational) for x in arr.flat):
        return _to_fraction(arr)
    return np.asarray(arr, dtype=float)


@dataclass(frozen=True)
class StateSpace:
    """An ordered finite set of opaque, hashable state labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 1:
            raise ValidationError("state space needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("state labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"label {label!r} not in state space") from None

    def indices(self, labels) -> list:
        """``[self.index(label) for label in labels]``, in one C-level ``map``."""
        try:
            return list(map(self._index.__getitem__, labels))
        except KeyError as exc:
            raise ValidationError(f"label {exc.args[0]!r} not in state space") from None

    def holds(self, value) -> bool:
        """Whether ``value`` is one of the labels as JSON values compare: a
        bool matches only a bool, though in Python ``True == 1``.  Values
        are compared, not hashed, so any JSON value may be asked about."""
        labels = self.labels
        return value in labels and _same_bools(value, labels[labels.index(value)])


def _same_bools(a, b) -> bool:
    """For ``a == b``: whether each bool in one is a bool in the other, item by item in tuples."""
    if isinstance(a, tuple):
        return all(map(_same_bools, a, b))
    return isinstance(a, bool) == isinstance(b, bool)


def _require_same_space(a: StateSpace, b: StateSpace, what: str) -> None:
    if a != b:
        raise DimensionError(f"{what} live on different state spaces")


def _check_probs(probs: np.ndarray) -> None:
    # One pass over a vector or over every row of a 2-D array; exact sums
    # must be 1 exactly, float ones within SUM_TOL.  Fractions are always
    # finite; a float NaN would pass both comparisons below.
    if not _is_exact(probs) and not np.isfinite(probs).all():
        raise ValidationError("non-finite probability entry")
    if np.any(probs < 0):
        raise ValidationError("negative probability entry")
    sums = probs.sum(axis=-1, keepdims=True)
    bad = np.abs(sums - 1) > (0 if _is_exact(probs) else SUM_TOL)
    if np.any(bad):
        raise ValidationError(f"probabilities sum to {sums[bad][0]!r}, not 1")


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A probability vector over a :class:`StateSpace`.

    Entries must be non-negative and sum to 1 within ``SUM_TOL`` (exactly 1
    in rational mode).
    """

    space: StateSpace
    probs: np.ndarray

    def __post_init__(self):
        probs = _as_prob_array(self.probs)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.space.size,):
            raise DimensionError(
                f"distribution has {probs.shape[0] if probs.ndim == 1 else '?'} entries "
                f"for a space of size {self.space.size}"
            )
        _check_probs(probs)

    @property
    def exact(self) -> bool:
        return _is_exact(self.probs)

    @classmethod
    def point_mass(cls, space: StateSpace, label) -> "FiniteDistribution":
        probs = np.zeros(space.size)
        probs[space.index(label)] = 1.0
        return cls(space, probs)

    @classmethod
    def uniform(cls, space: StateSpace) -> "FiniteDistribution":
        return cls(space, np.full(space.size, 1.0 / space.size))

    @classmethod
    def from_weights(cls, space: StateSpace, weights: Sequence) -> "FiniteDistribution":
        w = _as_prob_array(weights)
        total = w.sum()
        if not np.all(w >= 0) or total <= 0:
            raise ValidationError("weights must be non-negative with positive total")
        return cls(space, w / total)


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A row-stochastic transition matrix over a :class:`StateSpace`.

    Entry ``rows[i][j]`` is the probability of moving from state ``i`` to
    state ``j``; every row sums to 1 within ``SUM_TOL`` (exactly 1 in
    rational mode).
    """

    space: StateSpace
    rows: np.ndarray

    def __post_init__(self):
        rows = _as_prob_array(self.rows)
        object.__setattr__(self, "rows", rows)
        n = self.space.size
        if rows.shape != (n, n):
            raise DimensionError(f"matrix shape {rows.shape} does not match space size {n}")
        _check_probs(rows)

    @property
    def exact(self) -> bool:
        return _is_exact(self.rows)


def apply_operator(m: StochasticMatrix, mu: FiniteDistribution) -> FiniteDistribution:
    """One step of the distribution-level dynamics: mu -> mu P."""
    _require_same_space(m.space, mu.space, "matrix and distribution")
    return FiniteDistribution(mu.space, mu.probs @ m.rows)


def half_l1(x: np.ndarray, y: np.ndarray):
    """Half the L1 distance between probability arrays along their last axis.

    Exact when both arrays are; otherwise both are compared in float64.
    """
    if not (_is_exact(x) and _is_exact(y)):
        x, y = x.astype(float, copy=False), y.astype(float, copy=False)
    return np.abs(x - y).sum(axis=-1) / 2


def tv_distance(a: FiniteDistribution, b: FiniteDistribution):
    """Total variation distance; on finite spaces half the L1 distance.

    Returns a float in float mode and a ``Fraction`` when both operands are
    exact.
    """
    _require_same_space(a.space, b.space, "distributions")
    d = half_l1(a.probs, b.probs)
    return d if a.exact and b.exact else float(d)


def _is_primitive(rows: np.ndarray) -> bool:
    # Wielandt: a primitive n x n matrix has every power from (n-1)^2 + 1 on
    # strictly positive, and no other nonnegative matrix has any positive
    # power.  Squaring ((n-1)^2).bit_length() times reaches a power 2^j at
    # or above that bound.
    n = rows.shape[0]
    reach = (rows > 0).astype(int)
    for _ in range(((n - 1) ** 2).bit_length()):
        reach = ((reach @ reach) > 0).astype(int)
    return bool(reach.all())


def _stationary_exact(m: StochasticMatrix) -> FiniteDistribution:
    # Solve x P = x with sum(x) = 1 over the rationals by Gauss-Jordan
    # elimination on the augmented system [P^T - I | 0], last row sum(x) = 1.
    n = m.space.size
    a = np.zeros((n, n + 1), dtype=object)
    a[:, :n] = m.rows.T - np.identity(n, dtype=object)
    a[n - 1] = Fraction(1)
    for col in range(n):
        pivot = col + int(np.argmax(a[col:, col] != 0))
        if a[pivot, col] == 0:
            raise NonErgodicKernelError("stationary system is singular")
        a[[col, pivot]] = a[[pivot, col]]
        a[col] /= a[col, col]
        factors = a[:, col].copy()
        factors[col] = 0
        a -= np.outer(factors, a[col])
    probs = a[:, n]
    if np.any(probs < 0):
        raise NonErgodicKernelError("stationary solve produced negative mass")
    return FiniteDistribution(m.space, probs)


def stationary_distribution(m: StochasticMatrix) -> FiniteDistribution:
    """The unique limiting distribution of an ergodic kernel.

    Ergodicity is checked operationally: the support pattern must be
    primitive (all entries of a high matrix power positive) and power
    iteration must converge.  Non-ergodic kernels, the identity included,
    raise :class:`NonErgodicKernelError`.
    """
    if not _is_primitive(m.rows):
        raise NonErgodicKernelError("kernel support pattern is not primitive")
    if m.exact:
        return _stationary_exact(m)
    n = m.space.size
    v = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_MAX):
        nxt = v @ m.rows
        if 0.5 * float(np.abs(nxt - v).sum()) <= POWER_ITER_STEP_TOL:
            return FiniteDistribution(m.space, nxt / nxt.sum())
        v = nxt
    raise NonErgodicKernelError(f"power iteration did not converge in {POWER_ITER_MAX} steps")


@dataclass(frozen=True)
class ContractionCheck:
    contracts: bool
    d_before: float
    d_after: float


def check_contraction(
    m: StochasticMatrix, mu: FiniteDistribution, pi: FiniteDistribution
) -> ContractionCheck:
    """Check that one kernel application does not increase TV distance to pi.

    ``pi`` must be stationary for ``m`` within ``STATIONARY_RESIDUAL_TOL``.
    """
    residual = tv_distance(apply_operator(m, pi), pi)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise StationarityError(f"pi is not stationary for m (residual {float(residual):.3e})")
    d_before = tv_distance(mu, pi)
    d_after = tv_distance(apply_operator(m, mu), pi)
    tol = 0 if (m.exact and mu.exact and pi.exact) else SUM_TOL
    return ContractionCheck(bool(d_after <= d_before + tol), d_before, d_after)


def random_stochastic_matrix(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Random ergodic kernel: Dirichlet rows, all entries positive a.s."""
    labels = StateSpace(tuple(range(n)))
    rows = rng.dirichlet(np.ones(n), size=n)
    return StochasticMatrix(labels, rows)


def random_distribution(rng: np.random.Generator, n: int) -> FiniteDistribution:
    return FiniteDistribution(StateSpace(tuple(range(n))), rng.dirichlet(np.ones(n)))


@dataclass(frozen=True)
class ContractionCampaignReport:
    instances: int
    violations: int
    worst_excess: float


def run_contraction_campaign(n_instances: int, seed: int) -> ContractionCampaignReport:
    """Randomized check of the TV-contraction property over many kernels."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(n_instances):
        n = int(rng.choice(CONTRACTION_SIZES))
        m = random_stochastic_matrix(rng, n)
        mu = random_distribution(rng, n)
        pi = stationary_distribution(m)
        chk = check_contraction(m, mu, pi)
        excess = chk.d_after - chk.d_before
        worst = max(worst, excess)
        if not chk.contracts:
            violations += 1
    return ContractionCampaignReport(n_instances, violations, float(worst))

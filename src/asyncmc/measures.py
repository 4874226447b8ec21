"""Exact probability machinery on finite state spaces.

Distributions are probability vectors over an enumerated space and transition
kernels are row-stochastic matrices acting on them by right multiplication of
the row vector.  Two arithmetic modes coexist: float64 (default) and exact
rationals (``fractions.Fraction`` entries in object arrays).  The rational
mode exists so that the convergence-proof replication can run with zero
tolerance on small instances; every operation picks the mode up from its
operands.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    NonErgodicKernelError,
    StationarityError,
    ValidationError,
)

SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
POWER_ITER_STEP_TOL = 1e-13
POWER_ITER_MAX = 10**6


def _is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def _as_prob_array(values: Sequence) -> np.ndarray:
    values = list(values)
    if any(isinstance(v, Fraction) for v in values):
        return np.array([Fraction(v) for v in values], dtype=object)
    return np.asarray(values, dtype=float)


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


def _require_same_space(a: StateSpace, b: StateSpace, what: str) -> None:
    if a != b:
        raise DimensionError(f"{what} live on different state spaces")


def _check_float_probs(probs: np.ndarray) -> None:
    # One pass over a vector or over every row of a 2-D array.
    if np.any(probs < 0):
        raise ValidationError("negative probability entry")
    sums = probs.sum(axis=-1)
    bad = np.abs(sums - 1.0) > SUM_TOL
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
        if _is_exact(probs):
            if any(p < 0 for p in probs):
                raise ValidationError("negative probability entry")
            if sum(probs) != 1:
                raise ValidationError("exact probabilities must sum to 1")
        else:
            _check_float_probs(probs)

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
        if _is_exact(w):
            total = sum(w)
            if total <= 0:
                raise ValidationError("weights must have positive total mass")
            return cls(space, np.array([x / total for x in w], dtype=object))
        total = float(w.sum())
        if not np.all(w >= 0) or total <= 0:
            raise ValidationError("weights must be non-negative with positive total")
        return cls(space, w / total)

    def to_float(self) -> "FiniteDistribution":
        if not self.exact:
            return self
        return FiniteDistribution(self.space, np.array([float(p) for p in self.probs]))

    def to_json(self) -> str:
        return json.dumps(
            {"labels": list(self.space.labels), "probs": [float(p) for p in self.probs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FiniteDistribution":
        doc = _load_json_object(text, {"labels", "probs"})
        return cls(StateSpace(tuple(doc["labels"])), np.asarray(doc["probs"], dtype=float))


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
        rows = self.rows
        if isinstance(rows, np.ndarray) and rows.dtype == object:
            rows = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
        elif any(isinstance(x, Fraction) for row in rows for x in row):
            rows = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
        else:
            rows = np.asarray(rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        n = self.space.size
        if rows.shape != (n, n):
            raise DimensionError(f"matrix shape {rows.shape} does not match space size {n}")
        if _is_exact(rows):
            for i in range(n):
                if any(x < 0 for x in rows[i]):
                    raise ValidationError(f"negative entry in row {i}")
                if sum(rows[i]) != 1:
                    raise ValidationError(f"exact row {i} does not sum to 1")
        else:
            if np.any(rows < 0):
                raise ValidationError("negative matrix entry")
            err = np.abs(rows.sum(axis=1) - 1.0).max()
            if err > SUM_TOL:
                raise ValidationError(f"row sums deviate from 1 by {err:.3e}")

    @property
    def exact(self) -> bool:
        return _is_exact(self.rows)

    def to_float(self) -> "StochasticMatrix":
        if not self.exact:
            return self
        return StochasticMatrix(
            self.space, np.array([[float(x) for x in row] for row in self.rows])
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "labels": list(self.space.labels),
                "rows": [[float(x) for x in row] for row in self.rows],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "StochasticMatrix":
        doc = _load_json_object(text, {"labels", "rows"})
        return cls(StateSpace(tuple(doc["labels"])), np.asarray(doc["rows"], dtype=float))


def _load_json_object(text: str, required: set) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not required.issubset(doc):
        raise ValidationError(f"JSON document must contain fields {sorted(required)}")
    return doc


def _vec_dot_mat(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    if _is_exact(vec) or _is_exact(rows):
        n = len(vec)
        out = [sum(vec[i] * rows[i][j] for i in range(n)) for j in range(n)]
        return np.array(out, dtype=object)
    return vec @ rows


def apply_operator(m: StochasticMatrix, mu: FiniteDistribution) -> FiniteDistribution:
    """One step of the distribution-level dynamics: mu -> mu P."""
    _require_same_space(m.space, mu.space, "matrix and distribution")
    return FiniteDistribution(mu.space, _vec_dot_mat(mu.probs, m.rows))


def compose(a: StochasticMatrix, b: StochasticMatrix) -> StochasticMatrix:
    """Matrix product a b, i.e. step a followed by step b."""
    _require_same_space(a.space, b.space, "matrices")
    if a.exact or b.exact:
        n = a.space.size
        rows = [
            [sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return StochasticMatrix(a.space, np.array(rows, dtype=object))
    return StochasticMatrix(a.space, a.rows @ b.rows)


def matrix_power(m: StochasticMatrix, k: int) -> StochasticMatrix:
    if k < 0:
        raise ValidationError("matrix power needs k >= 0")
    n = m.space.size
    if m.exact:
        ident = np.array(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)],
            dtype=object,
        )
        result = StochasticMatrix(m.space, ident)
        base = m
        while k:
            if k & 1:
                result = compose(result, base)
            k >>= 1
            if k:
                base = compose(base, base)
        return result
    return StochasticMatrix(m.space, np.linalg.matrix_power(m.rows, k))


def tv_distance(a: FiniteDistribution, b: FiniteDistribution):
    """Total variation distance; on finite spaces half the L1 distance.

    Returns a float in float mode and a ``Fraction`` when both operands are
    exact.
    """
    _require_same_space(a.space, b.space, "distributions")
    if a.exact and b.exact:
        return sum(abs(x - y) for x, y in zip(a.probs, b.probs)) / 2
    ap = a.to_float().probs
    bp = b.to_float().probs
    return 0.5 * float(np.abs(ap - bp).sum())


def distribution_rows(space: StateSpace, rows: np.ndarray) -> list:
    """One float distribution per row of ``rows``, validated in one pass.

    Runs the checks of :class:`FiniteDistribution` on all rows at once.  The
    array is made read-only and each result's ``probs`` is a view of its row,
    not a copy.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != space.size:
        raise DimensionError(f"rows of shape {rows.shape} for a space of size {space.size}")
    _check_float_probs(rows)
    rows.flags.writeable = False
    out = []
    for row in rows:
        dist = object.__new__(FiniteDistribution)
        object.__setattr__(dist, "space", space)
        object.__setattr__(dist, "probs", row)
        out.append(dist)
    return out


def _is_primitive(rows: np.ndarray) -> bool:
    # Wielandt: a primitive n x n matrix has strictly positive (n-1)^2 + 1 power.
    n = rows.shape[0]
    if _is_exact(rows):
        reach = np.array([[x > 0 for x in row] for row in rows], dtype=bool)
    else:
        reach = rows > 0
    target = (n - 1) ** 2 + 1
    power = np.eye(n, dtype=bool)
    base = reach
    k = target
    while k:
        if k & 1:
            power = (power.astype(int) @ base.astype(int)) > 0
        k >>= 1
        if k:
            base = (base.astype(int) @ base.astype(int)) > 0
    return bool(power.all())


def _stationary_exact(m: StochasticMatrix) -> FiniteDistribution:
    # Solve x P = x with sum(x) = 1 over the rationals by Gaussian elimination.
    n = m.space.size
    a = [
        [m.rows[j][i] - (Fraction(1) if i == j else Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    a[n - 1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise NonErgodicKernelError("stationary system is singular")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        rhs[col] = rhs[col] * inv
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    probs = np.array(rhs, dtype=object)
    if any(p < 0 for p in probs):
        raise NonErgodicKernelError("stationary solve produced negative mass")
    return FiniteDistribution(m.space, probs)


def stationary_distribution(
    m: StochasticMatrix,
    *,
    step_tol: float = POWER_ITER_STEP_TOL,
    max_iters: int = POWER_ITER_MAX,
) -> FiniteDistribution:
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
    for _ in range(max_iters):
        nxt = v @ m.rows
        if 0.5 * float(np.abs(nxt - v).sum()) <= step_tol:
            return FiniteDistribution(m.space, nxt / nxt.sum())
        v = nxt
    raise NonErgodicKernelError(f"power iteration did not converge in {max_iters} steps")


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


def random_stochastic_matrix(
    rng: np.random.Generator, n: int, *, concentration: float = 1.0
) -> StochasticMatrix:
    """Random ergodic kernel: Dirichlet rows, all entries positive a.s."""
    labels = StateSpace(tuple(range(n)))
    rows = rng.dirichlet(np.full(n, concentration), size=n)
    return StochasticMatrix(labels, rows)


def random_distribution(rng: np.random.Generator, n: int) -> FiniteDistribution:
    return FiniteDistribution(StateSpace(tuple(range(n))), rng.dirichlet(np.ones(n)))


def random_rational_matrix(
    rng: np.random.Generator, n: int, *, max_weight: int = 20
) -> StochasticMatrix:
    """Exact-mode analogue of :func:`random_stochastic_matrix`."""
    labels = StateSpace(tuple(range(n)))
    weights = rng.integers(1, max_weight + 1, size=(n, n))
    rows = [
        [Fraction(int(w), int(weights[i].sum())) for w in weights[i]] for i in range(n)
    ]
    return StochasticMatrix(labels, np.array(rows, dtype=object))


def random_rational_distribution(
    rng: np.random.Generator, n: int, *, max_weight: int = 20
) -> FiniteDistribution:
    weights = rng.integers(1, max_weight + 1, size=n)
    total = int(weights.sum())
    probs = np.array([Fraction(int(w), total) for w in weights], dtype=object)
    return FiniteDistribution(StateSpace(tuple(range(n))), probs)


@dataclass(frozen=True)
class ContractionCampaignReport:
    instances: int
    violations: int
    worst_excess: float


def run_contraction_campaign(
    n_instances: int, seed: int, *, sizes: tuple = tuple(range(2, 11))
) -> ContractionCampaignReport:
    """Randomized check of the TV-contraction property over many kernels."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(n_instances):
        n = int(rng.choice(sizes))
        m = random_stochastic_matrix(rng, n)
        mu = random_distribution(rng, n)
        pi = stationary_distribution(m)
        chk = check_contraction(m, mu, pi)
        excess = chk.d_after - chk.d_before
        worst = max(worst, excess)
        if not chk.contracts:
            violations += 1
    return ContractionCampaignReport(n_instances, violations, float(worst))

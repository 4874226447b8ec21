"""MCMC step functions over finite and Gaussian targets.

Two kernel families are implemented: random-proposal Metropolis-Hastings and
single-site Gibbs (random-scan or systematic-scan).  Every step works in log
space, returns the next state, and draws from an explicitly seeded stream in
a fixed order:

* ``mh_step``: the proposal's draws first, then exactly one uniform for the
  accept decision (drawn even when the ratio exceeds 1).
* finite Gibbs site draw: one uniform, inverted through the conditional CDF.
* Gaussian Gibbs site draw: one standard normal.
* ``gibbs_single_site`` kernel step: one integer draw for the site, then the
  site draw.

The stream is a ``numpy.random.Generator``.  Steps call only ``random()``,
``integers(low, high)`` and, on Gaussian targets, ``standard_normal()``.

A uniform independence proposal never looks at the state, so the draws of
its Metropolis-Hastings steps can be made ahead: :func:`index_draws`
gives a worker's (proposal index, accept uniform) pairs, the values of the
same ``Generator`` calls in the same order, computed in numpy chunks from raw
PCG64 outputs, with a fallback to :class:`_PCG64Draws` where numpy's bounded
draw would reject a half-word.  ``shmem.replay`` steps such kernels on state
indices (:func:`steps_on_indices`); every other kernel goes through
``kernel_step``.

For finite targets a kernel can also be rendered to an exact
:class:`~asyncmc.measures.StochasticMatrix`, which is what ties the sampling
view to the measure-level machinery.
"""
from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ProposalInconsistencyError, UnsupportedTargetError, ValidationError
from .measures import FiniteDistribution, StateSpace, StochasticMatrix

NEG_INF = float("-inf")
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _finite_array(values, name: str) -> np.ndarray:
    """``values`` as a float array of finite numbers, else a ValidationError naming ``name``."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ValidationError(f"{name}: must hold finite numbers, got {values!r}")
    return arr


def _positive_scale(scale) -> float:
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real) or not 0 < scale <= sys.float_info.max:
        raise ValidationError(f"kernel.proposal.scale: must be a finite number > 0, got {scale!r}")
    return float(scale)


@dataclass(frozen=True)
class GaussianTarget:
    """Multivariate Gaussian described by its mean and precision matrix."""

    mean: tuple
    precision: tuple

    def __post_init__(self):
        mean = _finite_array(self.mean, "target.mean")
        p = _finite_array(self.precision, "target.precision")
        if mean.ndim != 1 or p.shape != (len(mean), len(mean)):
            raise ValidationError("target.precision: shape does not match the mean's dimension")
        object.__setattr__(self, "mean", tuple(mean.tolist()))
        object.__setattr__(self, "precision", tuple(map(tuple, p.tolist())))
        if np.abs(p - p.T).max() > 1e-10:
            raise ValidationError("target.precision: matrix is not symmetric")
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("target.precision: matrix is not positive definite") from exc

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def covariance(self) -> np.ndarray:
        return np.linalg.inv(np.asarray(self.precision))

    def log_unnorm(self, x: Sequence[float]) -> float:
        # -(1/2) (x - mean)' P (x - mean), unrolled to avoid array churn in
        # the samplers' hot loops.
        d = [x[i] - self.mean[i] for i in range(len(self.mean))]
        quad = 0.0
        for i, row in enumerate(self.precision):
            di = d[i]
            for j, pij in enumerate(row):
                quad += di * pij * d[j]
        return -0.5 * quad

    def conditional(self, site: int, x: Sequence[float]) -> tuple[float, float]:
        """Mean and variance of coordinate ``site`` given the others."""
        row = self.precision[site]
        var = 1.0 / row[site]
        shift = 0.0
        for j, pij in enumerate(row):
            if j != site:
                shift += pij * (x[j] - self.mean[j])
        return self.mean[site] - var * shift, var

    @classmethod
    def bivariate_correlated(cls, rho: float) -> "GaussianTarget":
        """Standard bivariate Gaussian with correlation ``rho``."""
        if not -1.0 < rho < 1.0:
            raise ValidationError(f"target.rho: must lie strictly inside (-1, 1), got {rho!r}")
        s = 1.0 / (1.0 - rho * rho)
        return cls(mean=(0.0, 0.0), precision=((s, -rho * s), (-rho * s, s)))


@dataclass(frozen=True)
class TargetDensity:
    """An unnormalized target: a log density plus a support descriptor.

    ``support`` is a :class:`StateSpace` for finite targets and ``None`` for
    targets on R^dim.  ``site_domains`` (finite multi-site targets) and
    ``gaussian`` (continuous targets) carry the structure the Gibbs
    conditionals need; either may be absent for targets that only ever see
    Metropolis-Hastings steps.
    """

    dim: int
    log_unnorm: Callable
    support: StateSpace | None = None
    site_domains: tuple | None = None
    gaussian: GaussianTarget | None = None

    @property
    def is_finite(self) -> bool:
        return self.support is not None

    @property
    def sort(self) -> str:  # as proposal classes name it in their ``targets``
        return "finite" if self.support is not None else "continuous"


def finite_target(weights: Sequence[float], labels: Sequence | None = None) -> TargetDensity:
    """Target over an enumerated space with explicitly tabled weights."""
    w = _finite_array(weights, "target.weights")
    if np.any(w < 0) or w.sum() <= 0:
        raise ValidationError("target.weights: must be non-negative with positive mass")
    if labels is None:
        labels = tuple(range(len(w)))
    try:
        space = StateSpace(tuple(labels))
    except (TypeError, ValidationError) as exc:  # unhashable or repeated labels
        raise ValidationError(f"target.labels: {exc}") from exc
    if space.size != len(w):
        raise ValidationError("target.labels: labels and weights differ in length")
    logw = {lab: (math.log(x) if x > 0 else NEG_INF) for lab, x in zip(space.labels, w)}

    def log_unnorm(x):
        return logw.get(x, NEG_INF)

    return TargetDensity(
        dim=1, log_unnorm=log_unnorm, support=space, site_domains=(tuple(space.labels),)
    )


def gaussian_target(mean: Sequence[float], precision: Sequence[Sequence[float]]) -> TargetDensity:
    gt = GaussianTarget(mean, precision)
    return TargetDensity(dim=gt.dim, log_unnorm=gt.log_unnorm, gaussian=gt)


def target_distribution(target: TargetDensity) -> FiniteDistribution:
    """Normalized exp(log density) of a finite target, as an exact vector."""
    if not target.is_finite:
        raise UnsupportedTargetError("only finite targets have an enumerable distribution")
    weights = np.array([math.exp(target.log_unnorm(lab)) for lab in target.support.labels])
    return FiniteDistribution.from_weights(target.support, weights)


# ---------------------------------------------------------------------------
# Proposal families.  Each carries an id (the name ``KernelSpec.describe``
# and error messages give it), a symmetry flag, the sorts of target it serves
# (``targets``, checked by KernelSpec), sample/logpdf, and, when the family is
# enumerable over a finite space, a support_logpdfs method used for matrix
# rendering.
# ---------------------------------------------------------------------------


class UniformIndependenceProposal:
    """Propose a state uniformly from a finite space, ignoring the current one."""

    symmetric = True
    proposal_id = "uniform_independence"
    targets = ("finite",)

    def __init__(self, space: StateSpace):
        self.space = space
        self._size = space.size
        self._log_q = -math.log(space.size)

    def sample(self, x, rng: np.random.Generator):
        return self.space.labels[int(rng.integers(0, self._size))], {}

    def logpdf(self, y, x, params=None) -> float:
        return self._log_q if y in self.space._index else NEG_INF

    def support_logpdfs(self, x) -> np.ndarray:
        return np.full(self.space.size, self._log_q)


class TableIndependenceProposal:
    """Propose from a fixed categorical table over a finite space."""

    symmetric = False
    proposal_id = "table_independence"
    targets = ("finite",)

    def __init__(self, space: StateSpace, weights: Sequence[float]):
        w = _finite_array(weights, "kernel.proposal.weights")
        if w.shape != (space.size,):
            raise ValidationError(
                f"kernel.proposal.weights: need one weight per state ({space.size}), got {weights!r}"
            )
        if np.any(w < 0) or w.sum() <= 0:
            raise ValidationError("kernel.proposal.weights: must be non-negative with positive mass")
        self.space = space
        self._probs = w / w.sum()
        self._cum = np.cumsum(self._probs)
        self._logs = np.where(self._probs > 0, np.log(np.maximum(self._probs, 1e-300)), NEG_INF)

    def sample(self, x, rng: np.random.Generator):
        idx = int(np.searchsorted(self._cum, rng.random(), side="right"))
        return self.space.labels[min(idx, self.space.size - 1)], {}

    def logpdf(self, y, x, params=None) -> float:
        try:
            return float(self._logs[self.space.index(y)])
        except ValidationError:
            return NEG_INF

    def support_logpdfs(self, x) -> np.ndarray:
        return self._logs.copy()


class IdentityProposal:
    """Propose the current state itself (degenerate, for identity tests)."""

    symmetric = True
    proposal_id = "identity"
    targets = ("finite", "continuous")

    def sample(self, x, rng: np.random.Generator):
        return x, {}

    def logpdf(self, y, x, params=None) -> float:
        return 0.0 if y == x else NEG_INF


class GaussianRandomWalkProposal:
    """Symmetric random walk y = x + scale * N(0, I)."""

    symmetric = True
    proposal_id = "gaussian_random_walk"
    targets = ("continuous",)

    def __init__(self, scale: float):
        self.scale = _positive_scale(scale)
        self._log_scale = math.log(self.scale)

    def sample(self, x, rng: np.random.Generator):
        return tuple(xi + self.scale * rng.standard_normal() for xi in x), {}

    def logpdf(self, y, x, params=None) -> float:
        lp = 0.0
        for yi, xi in zip(y, x):
            z = (yi - xi) / self.scale
            lp += -0.5 * z * z - self._log_scale - _LOG_SQRT_2PI
        return lp


class GaussianIndependenceProposal:
    """Propose from a fixed spherical Gaussian, ignoring the current state."""

    symmetric = False
    proposal_id = "gaussian_independence"
    targets = ("continuous",)

    def __init__(self, center: Sequence[float], scale: float):
        c = _finite_array(center, "kernel.proposal.center")
        if c.ndim != 1:
            raise ValidationError(f"kernel.proposal.center: must be a list of numbers, got {center!r}")
        self.center = tuple(c.tolist())
        self.scale = _positive_scale(scale)
        self._log_scale = math.log(self.scale)

    def sample(self, x, rng: np.random.Generator):
        normal, scale = rng.standard_normal, self.scale
        return tuple(c + scale * normal() for c in self.center), {}

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """The proposals ``sample`` makes of standard normals ``z``, one row
        each: ``center + scale * z``, the same two float operations per
        coordinate, so the same bits."""
        return np.asarray(self.center) + self.scale * z

    def logpdf(self, y, x, params=None) -> float:
        lp = 0.0
        for yi, c in zip(y, self.center):
            z = (yi - c) / self.scale
            lp += -0.5 * z * z - self._log_scale - _LOG_SQRT_2PI
        return lp


class GibbsSiteProposal:
    """Exact full-conditional draw at one uniformly chosen site.

    The density is evaluated coordinate-wise: ``logpdf(y, x, {"site": i})``
    is the conditional density of ``y[i]`` given ``x`` at the other sites.
    Off-site coordinates of ``y`` do not enter; callers own the convention
    that a site proposal only ever moves one coordinate.
    """

    symmetric = False
    proposal_id = "gibbs_site"
    targets = ("finite", "continuous")

    def __init__(self, target: TargetDensity):
        if target.site_domains is None and target.gaussian is None:
            raise UnsupportedTargetError("target has no usable full conditionals")
        self.target = target

    def sample(self, x, rng: np.random.Generator):
        site = int(rng.integers(0, self.target.dim))
        return gibbs_site_draw(self.target, x, site, rng), {"site": site}

    def logpdf(self, y, x, params) -> float:
        site = params["site"]
        t = self.target
        if t.gaussian is not None:
            mean, var = t.gaussian.conditional(site, x)
            z = (y[site] - mean) / math.sqrt(var)
            return -0.5 * z * z - 0.5 * math.log(var) - _LOG_SQRT_2PI
        values, probs = _finite_conditional(t, x, site)
        yi = y[site] if t.dim > 1 else y
        for v, p in zip(values, probs):
            if v == yi:
                return math.log(p) if p > 0 else NEG_INF
        return NEG_INF


def _finite_conditional(target: TargetDensity, x, site: int):
    values = target.site_domains[site]
    logs = np.array([target.log_unnorm(_with_site(target, x, site, v)) for v in values])
    top = logs.max()
    if top == NEG_INF:
        raise UnsupportedTargetError("conditional has empty support at this state")
    w = np.exp(logs - top)
    return values, w / w.sum()


def _with_site(target: TargetDensity, x, site: int, value):
    if target.dim == 1:
        return value
    out = list(x)
    out[site] = value
    return tuple(out)


def gibbs_site_draw(target: TargetDensity, x, site: int, rng: np.random.Generator):
    """Draw coordinate ``site`` from its full conditional, others unchanged."""
    if site < 0 or site >= target.dim:
        raise ValidationError(f"site {site} out of range for dim {target.dim}")
    if target.gaussian is not None:
        mean, var = target.gaussian.conditional(site, x)
        value = mean + math.sqrt(var) * rng.standard_normal()
        out = list(x)
        out[site] = value
        return tuple(out)
    if target.site_domains is not None:
        values, probs = _finite_conditional(target, x, site)
        u = rng.random()
        acc = 0.0
        for v, p in zip(values, probs):
            acc += p
            if u < acc:
                return _with_site(target, x, site, v)
        return _with_site(target, x, site, values[-1])
    raise UnsupportedTargetError("target has no usable full conditionals")


# ---------------------------------------------------------------------------
# Kernel specifications and steps
# ---------------------------------------------------------------------------

KERNEL_KINDS = ("metropolis_hastings", "gibbs_single_site", "systematic_gibbs")


@dataclass(frozen=True)
class KernelSpec:
    """What one worker step does: kind, target, and optional proposal/order."""

    kind: str
    target: TargetDensity
    proposal: object | None = None
    site_order: tuple | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"kernel.kind: unknown kernel kind {self.kind!r}")
        if self.kind == "metropolis_hastings" and self.proposal is None:
            raise ValidationError("kernel.proposal: metropolis_hastings requires a proposal")
        targets = getattr(self.proposal, "targets", ())
        if self.proposal is not None and self.target.sort not in targets:
            raise ValidationError(
                f"kernel.proposal.type: {self.describe()} serves {' or '.join(targets) or 'no'} "
                f"targets, not a {self.target.sort} one"
            )
        if self.kind in ("gibbs_single_site", "systematic_gibbs"):
            t = self.target
            if t.site_domains is None and t.gaussian is None:
                raise ValidationError(
                    "kernel.kind: gibbs kinds need finite site domains or a Gaussian target"
                )
        if self.site_order is not None:
            order = tuple(int(s) for s in self.site_order)
            if sorted(order) != list(range(self.target.dim)):
                raise ValidationError("kernel.site_order: must be a permutation of the sites")
            object.__setattr__(self, "site_order", order)

    def describe(self) -> str:
        prop = getattr(self.proposal, "proposal_id", None)
        return f"{self.kind}" + (f"[{prop}]" if prop else "")


def mh_step(spec: KernelSpec, x, rng: np.random.Generator):
    """One Metropolis-Hastings transition from ``x``; returns the next state.

    The accept decision consumes exactly one uniform, drawn after the
    proposal's own draws; rejection returns ``x`` unchanged.
    """
    target, proposal = spec.target, spec.proposal
    lp_x = target.log_unnorm(x)
    if lp_x == NEG_INF:
        raise ValidationError("current state lies outside the target support")
    y, params = proposal.sample(x, rng)
    log_fwd = proposal.logpdf(y, x, params)
    if log_fwd == NEG_INF:
        raise ProposalInconsistencyError(
            "proposal produced a state with zero density under its own logpdf"
        )
    lp_y = target.log_unnorm(y)
    if proposal.symmetric:
        log_ratio = lp_y - lp_x
    else:
        log_ratio = (lp_y + proposal.logpdf(x, y, params)) - (lp_x + log_fwd)
    u = rng.random()
    return y if log_ratio >= 0.0 or u < math.exp(log_ratio) else x


def kernel_step(spec: KernelSpec, x, rng: np.random.Generator):
    """One full kernel application according to the spec's kind; returns the next state."""
    if spec.kind == "metropolis_hastings":
        return mh_step(spec, x, rng)
    if spec.kind == "gibbs_single_site":
        site = int(rng.integers(0, spec.target.dim))
        return gibbs_site_draw(spec.target, x, site, rng)
    for site in spec.site_order or range(spec.target.dim):
        x = gibbs_site_draw(spec.target, x, site, rng)
    return x


def default_init(target: TargetDensity):
    """Deterministic starting state: first label, or the Gaussian mean."""
    if target.is_finite:
        return target.support.labels[0]
    if target.gaussian is not None:
        return tuple(target.gaussian.mean)
    raise UnsupportedTargetError("no default initial state for this target")


# ---------------------------------------------------------------------------
# Exact matrix rendering for finite targets
# ---------------------------------------------------------------------------

RENDER_CAP = 4096


def _site_matrix(target: TargetDensity, site: int) -> np.ndarray:
    space = target.support
    n = space.size
    rows = np.zeros((n, n))
    for i, lab in enumerate(space.labels):
        values, probs = _finite_conditional(target, lab, site)
        for v, p in zip(values, probs):
            rows[i, space.index(_with_site(target, lab, site, v))] += p
    return rows


def render_matrix(spec: KernelSpec) -> StochasticMatrix:
    """Render a finite-target kernel as an exact transition matrix."""
    target = spec.target
    if not target.is_finite:
        raise UnsupportedTargetError("target.type: only finite-support kernels can be rendered")
    space = target.support
    n = space.size
    if n > RENDER_CAP:
        raise ValidationError(f"target.weights: state space size {n} exceeds render cap {RENDER_CAP}")

    if spec.kind == "gibbs_single_site":
        rows = sum(_site_matrix(target, s) for s in range(target.dim)) / target.dim
        return StochasticMatrix(space, rows)
    if spec.kind == "systematic_gibbs":
        order = spec.site_order or tuple(range(target.dim))
        rows = np.eye(n)
        for site in order:
            rows = rows @ _site_matrix(target, site)
        return StochasticMatrix(space, rows)

    proposal = spec.proposal
    if isinstance(proposal, IdentityProposal):
        return StochasticMatrix(space, np.eye(n))
    if not hasattr(proposal, "support_logpdfs"):
        raise UnsupportedTargetError(
            f"kernel.proposal.type: {getattr(proposal, 'proposal_id', proposal)!r} is not enumerable"
        )
    lp = np.array([target.log_unnorm(lab) for lab in space.labels])
    if np.any(lp == NEG_INF):
        raise UnsupportedTargetError("target.weights: rendering requires strictly positive weights")
    lq = np.vstack([proposal.support_logpdfs(lab) for lab in space.labels])  # lq[i, j] = log f(j|i)
    # a move never proposed has probability 0; its forward log read as 0 keeps -inf - -inf out of the ratio
    log_ratio = (lp[None, :] + lq.T) - (lp[:, None] + np.where(lq == NEG_INF, 0.0, lq))
    accept = np.exp(np.minimum(0.0, log_ratio))
    moves = np.exp(lq) * accept
    rows = moves.copy()
    stay = 1.0 - moves.sum(axis=1) + np.diag(moves)
    np.fill_diagonal(rows, np.maximum(stay, 0.0))
    return StochasticMatrix(space, rows)


def worker_streams(seed: int, n_workers: int, extra: int = 0) -> list[np.random.Generator]:
    """Independent per-worker generators derived from one root seed.

    Index ``i < n_workers`` is worker ``i``'s private stream; any ``extra``
    trailing streams are for infrastructure (delay models, recorders).
    """
    children = np.random.SeedSequence(seed).spawn(n_workers + extra)
    return [np.random.default_rng(c) for c in children]


_RAW_WORDS_PER_FETCH = 64  # 64-bit PCG64 outputs fetched at a time
_LOW32 = 0xFFFFFFFF
_LOW64 = 0xFFFFFFFFFFFFFFFF
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class _PCG64Draws:
    """``rng.random()`` and ``int(rng.integers(low, high))`` of a PCG64
    ``Generator``, bit for bit, from raw 64-bit outputs fetched
    ``_RAW_WORDS_PER_FETCH`` at a time.

    numpy makes a double of one output ``w`` as ``(w >> 11) * 2**-53``.  A
    bounded integer below ``k = high - low`` draws nothing at ``k == 1``; up
    to ``k == 2**32`` (one half-word, never rejected) it runs Lemire's
    multiply-and-reject on 32-bit half-words, where PCG64 hands out an
    output's low half and keeps the high half for the next half-word
    (doubles and 64-bit draws leave that buffer alone); above, Lemire's
    method runs on whole outputs.  The fetch size decides only where refills
    fall, never which values come out: 64 outputs waste little when a short
    replay reads a few, and cost one ``random_raw`` call per 64 when a long
    run reads many.  Outputs fetched and not used are left behind, so the
    generator is not to be drawn from again.
    """

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"raw-word draws need PCG64, got {type(bit_generator).__name__}")
        state = bit_generator.state
        self.half = state["uinteger"] if state["has_uint32"] else None
        random_raw = bit_generator.random_raw
        fetches = iter(lambda: random_raw(_RAW_WORDS_PER_FETCH).tolist(), None)
        self.next64 = itertools.chain.from_iterable(fetches).__next__

    def next32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & _LOW32

    def random(self) -> float:
        return (self.next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int) -> int:
        k = high - low
        if k == 1:
            return low
        if k <= 1 << 32:
            x = self.next32() * k
            if x & _LOW32 < k:
                threshold = (1 << 32) % k
                while x & _LOW32 < threshold:
                    x = self.next32() * k
            return low + (x >> 32)
        x = self.next64() * k
        if x & _LOW64 < k:
            threshold = (1 << 64) % k
            while x & _LOW64 < threshold:
                x = self.next64() * k
        return low + (x >> 64)


# ---------------------------------------------------------------------------
# Metropolis-Hastings draws on state indices
# ---------------------------------------------------------------------------

_MIN_BULK_STEPS = 20  # a shorter uniform-proposal stream costs less drawn one step at a time
_BULK_STEPS = 256  # steps per numpy chunk: even, so no half-word is left buffered; larger chunks raised peak memory


def steps_on_indices(spec: KernelSpec) -> bool:
    """Whether ``spec`` is Metropolis-Hastings with a uniform independence
    proposal over its target's own labels, so that a step needs only state
    indices and the pairs of :func:`index_draws`."""
    proposal = spec.proposal
    return (
        spec.kind == "metropolis_hastings"
        and isinstance(proposal, UniformIndependenceProposal)
        and proposal.space.labels is spec.target.support.labels
    )


def index_draws(k: int, rng: np.random.Generator, steps: int):
    """An iterator over the (proposal index, accept uniform) pairs that
    ``steps`` calls of ``mh_step`` with a uniform independence proposal over
    ``k`` states draw from ``rng``.

    The proposal does not look at the state, so the draws are made ahead, in
    numpy, in chunks of ``_BULK_STEPS`` steps, from raw PCG64 outputs: for
    ``k > 1``, 3 outputs per 2 steps.  Lemire's 32-bit method runs on the low
    half of the first output, then on its buffered high half, and the other
    two outputs ``w`` are the accept uniforms ``(w >> 11) * 2**-53``; at
    ``k == 1`` the index draws nothing.  Where Lemire rejects a half-word,
    every later draw shifts, so that chunk and the rest of the stream are
    drawn by :class:`_PCG64Draws` from the chunk's first output; so is a
    stream that starts with a buffered half-word, or is shorter than
    ``_MIN_BULK_STEPS``.  Either way every value is the one the
    ``Generator`` calls give, in their order.
    """
    return itertools.chain.from_iterable(_uniform_draws(k, rng, steps))


def _uniform_draws(k: int, rng: np.random.Generator, steps: int):
    bits = rng.bit_generator
    draws = _PCG64Draws(rng) if steps < _MIN_BULK_STEPS else None
    while steps > 0:
        size = min(steps, _BULK_STEPS)
        if draws is None:
            start = bits.state
            pairs = None if start["has_uint32"] else _bulk_uniform(k, bits.random_raw, size)
            if pairs is None:
                bits.state = start
                draws = _PCG64Draws(rng)
            else:
                yield zip(*pairs)
        if draws is not None:
            yield [(draws.integers(0, k), draws.random()) for _ in range(size)]
        steps -= size


def _bulk_uniform(k: int, random_raw, size: int):
    """``size`` uniform-proposal indices below ``k`` and accept uniforms, as
    two lists, or None where Lemire's method rejects a half-word."""
    if k == 1:  # integers(0, 1) draws nothing
        return [0] * size, ((random_raw(size) >> 11) * _DOUBLE_UNIT).tolist()
    words = random_raw(3 * ((size + 1) // 2)).reshape(-1, 3)
    halves = np.stack((words[:, 0] & _LOW32, words[:, 0] >> 32), axis=1).ravel()[:size]
    product = halves * k
    if (product & _LOW32 < (1 << 32) % k).any():
        return None
    return (product >> 32).tolist(), ((words[:, 1:].ravel()[:size] >> 11) * _DOUBLE_UNIT).tolist()

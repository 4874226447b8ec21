"""The server chain's stationary law, computed exactly on a window of its states.

When every message reads the server ``k`` versions back, the server state
alone is not a Markov chain, but the window ``(x_t, ..., x_{t-k})`` is: the
next state is decided against ``x_t`` for a proposal made from the read
``x_{t-k}``.  The window chain is built here as a dense row-stochastic matrix
from the server's own step, ``pserver._candidate`` and
``pserver._log_accept_ratio``: each proposal a worker can send is enumerated
with the probability its ``logpdf`` gives and accepted with probability
``min(1, exp(log_ratio))``; in a coupled run a message comes from each of the
``m`` workers with probability ``1/m``.  The server's stationary law is the
window chain's, marginalized on ``x_t``.

When messages come in rounds of ``m`` and each reads the state at its
round's start (``m`` round-robin workers), message ``j`` of a round reads
``j`` versions back.  There is one window matrix per lag on a window of
``m`` states; the stationary law of their product over a round, pushed
through each phase, gives the server's law averaged over the ``m`` phases.

A proposal that ignores the read keeps that law at pi at every lag.  A stale
``gibbs_single_site`` proposal does not: its server chain is biased, the
failure mode of asynchronous Gibbs sampling (Terenin, Simpson & Draper,
*Asynchronous Gibbs Sampling*, AISTATS 2020).
"""
import functools
import itertools
import math

import numpy as np
import pytest

from asyncmc.kernels import (
    GibbsSiteProposal,
    TableIndependenceProposal,
    UniformIndependenceProposal,
    finite_target,
)
from asyncmc.pserver import SlotProposal, _candidate, _log_accept_ratio, coupled_embed
from test_reference_equivalence import product_finite_target

LAGS = (0, 1, 2, 3)


def _replaced(x, i, value):
    return tuple(value if j == i else xj for j, xj in enumerate(x))


def _sends(prop, x):
    """Each ``(x_star, params, probability)`` that ``prop`` proposes from the read ``x``."""
    if isinstance(prop, SlotProposal):
        for value, _, _ in _sends(prop.base, x[prop.slot]):
            y, params = _replaced(x, prop.slot, value), {"slot": prop.slot}
            yield y, params, math.exp(prop.logpdf(y, x, params))
    elif isinstance(prop, GibbsSiteProposal):
        domains = prop.target.site_domains
        for site, domain in enumerate(domains):
            for value in domain:
                y, params = _replaced(x, site, value), {"site": site}
                # the site is uniform; logpdf is the conditional given it
                yield y, params, math.exp(prop.logpdf(y, x, params)) / len(domains)
    else:
        for y in prop.space.labels:
            yield y, {}, math.exp(prop.logpdf(y, x, {}))


def window_chain(target, states, props, size: int, lag: int):
    """The windows ``(x_t, ..., x_{t-size+1})`` of positions in ``states``,
    and the row-stochastic matrix of one message on them, the message
    reading ``x_{t-lag}`` from a worker drawn uniformly from ``props``."""
    n = len(states)
    position = {s: i for i, s in enumerate(states)}
    windows = list(itertools.product(range(n), repeat=size))
    code = {w: i for i, w in enumerate(windows)}
    log_unnorm = target.log_unnorm
    rows = np.zeros((len(windows), len(windows)))
    for i, window in enumerate(windows):
        current, read = states[window[0]], states[window[lag]]
        stay = code[(window[0], *window[:-1])]
        for prop in props:
            for x_star, params, p in _sends(prop, read):
                if p == 0.0:
                    continue
                cand = _candidate(current, x_star, params, target.dim)
                log_ratio = _log_accept_ratio(
                    log_unnorm(cand) + prop.logpdf(current, read, params),
                    log_unnorm(current) + prop.logpdf(x_star, read, params),
                )
                accept = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
                share = p / len(props)
                rows[i, code[(position[cand], *window[:-1])]] += share * accept
                rows[i, stay] += share * (1.0 - accept)
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    return windows, rows


def _stationary(rows) -> np.ndarray:
    """The law ``mu`` with ``mu rows = mu`` summing to 1; transient rows get mass 0."""
    n = len(rows)
    system = np.vstack([rows.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def _current(windows, law, n: int) -> np.ndarray:
    """The marginal on ``x_t`` of a law over windows."""
    marginal = np.zeros(n)
    np.add.at(marginal, [w[0] for w in windows], law)
    return marginal


def server_law(target, states, props, k: int) -> np.ndarray:
    """The stationary law of the server's state over ``states``, every message
    reading ``k`` versions back from a worker drawn uniformly from ``props``."""
    windows, rows = window_chain(target, states, props, k + 1, k)
    return _current(windows, _stationary(rows), len(states))


def round_robin_law(target, states, props, m: int) -> np.ndarray:
    """The server's state law over ``states`` averaged over the ``m`` phases
    of a round, when messages come in rounds of ``m`` and each reads the
    state at its round's start: message ``j`` of a round reads ``j``
    versions back."""
    chains = [window_chain(target, states, props, m, lag) for lag in range(m)]
    windows, steps = chains[0][0], [rows for _, rows in chains]
    phase = _stationary(functools.reduce(np.matmul, steps))  # at a round's start
    marginals = []
    for step in steps:
        marginals.append(_current(windows, phase, len(states)))
        phase = phase @ step
    return np.mean(marginals, axis=0)


def _pi(target, states) -> np.ndarray:
    weights = np.exp([target.log_unnorm(s) for s in states])
    return weights / weights.sum()


def _tv(p, q) -> float:
    return float(0.5 * np.abs(p - q).sum())


def _gibbs_two_sites():
    weights = {(0, 0): 10.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 10.0}
    return product_finite_target(((0, 1), (0, 1)), lambda lab: math.log(weights[lab]))


_BASE = finite_target([1.0, 2.0, 3.0])
_INDEPENDENCE = {
    "uniform": UniformIndependenceProposal(_BASE.support),
    "table": TableIndependenceProposal(_BASE.support, [1.0, 3.0, 2.0]),
}


@pytest.mark.parametrize("k", LAGS)
@pytest.mark.parametrize("name", sorted(_INDEPENDENCE))
def test_independence_proposal_keeps_pi(name, k):
    states = _BASE.support.labels
    law = server_law(_BASE, states, [_INDEPENDENCE[name]], k)
    assert _tv(law, _pi(_BASE, states)) <= 1e-10


@pytest.mark.parametrize("k", LAGS)
@pytest.mark.parametrize("name", ["uniform", "table"])
def test_coupled_slots_keep_pi(name, k):
    base = finite_target([1.0, 3.0])
    base_prop = {
        "uniform": UniformIndependenceProposal(base.support),
        "table": TableIndependenceProposal(base.support, [2.0, 1.0]),
    }[name]
    m = 2
    target = coupled_embed(base, m)
    states = list(itertools.product(base.support.labels, repeat=m))
    law = server_law(target, states, [SlotProposal(base_prop, w) for w in range(m)], k)
    assert _tv(law, _pi(target, states)) <= 1e-10


def test_fresh_gibbs_keeps_pi():
    target = _gibbs_two_sites()
    states = target.support.labels
    law = server_law(target, states, [GibbsSiteProposal(target)], 0)
    assert _tv(law, _pi(target, states)) <= 1e-10


@pytest.mark.parametrize("k,tv", [(1, 2.832e-2), (2, 4.001e-2), (3, 4.534e-2)])
def test_stale_gibbs_is_biased(k, tv):
    target = _gibbs_two_sites()
    states = target.support.labels
    law = server_law(target, states, [GibbsSiteProposal(target)], k)
    got = _tv(law, _pi(target, states))
    assert got >= 1e-2
    assert got == pytest.approx(tv, abs=5e-6)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", sorted(_INDEPENDENCE))
def test_independence_proposal_keeps_pi_round_robin(name, m):
    states = _BASE.support.labels
    law = round_robin_law(_BASE, states, [_INDEPENDENCE[name]], m)
    assert _tv(law, _pi(_BASE, states)) <= 1e-10


def test_one_round_robin_worker_gibbs_keeps_pi():
    target = _gibbs_two_sites()
    states = target.support.labels
    law = round_robin_law(target, states, [GibbsSiteProposal(target)], 1)
    assert _tv(law, _pi(target, states)) <= 1e-10


@pytest.mark.parametrize("m,tv", [(2, 1.416e-2), (3, 2.266e-2)])
def test_round_robin_gibbs_is_biased(m, tv):
    target = _gibbs_two_sites()
    states = target.support.labels
    law = round_robin_law(target, states, [GibbsSiteProposal(target)], m)
    got = _tv(law, _pi(target, states))
    assert got >= 1e-2
    assert got == pytest.approx(tv, abs=5e-6)

"""Constrained conditional maximum likelihood for rank-selected normal means.

The estimate maximizes the selection-conditioned log-likelihood

    l(mu) = -(1/(2 sigma^2)) sum (x_i - mu_i)^2 - log P_mu(X_1 > ... > X_p)

over the monotone cone {mu : mu_1 >= mu_2 >= ... >= mu_p}. Two populations
admit an exact solution: observations closer than 2 sigma / sqrt(pi) pool at
the grand mean, wider gaps shrink toward each other through a single
transcendental root, which ``ccmle_p2_rows`` finds for many samples at once.

The general case solves in standardized coordinates z = (x - xbar)/sigma,
nu = (mu - xbar)/sigma, where the objective is the same function with
sigma = 1, and maps back with mu = xbar + sigma nu; shifting or scaling the
input therefore leaves the solve unchanged. The objective is concave with
Hessian -Cov(X | order)/sigma^4, and a normal conditioned on the convex
order cone has Cov(X | order) <= sigma^2 I (Brascamp-Lieb). So the
gradient is 1/sigma^2-Lipschitz, and the projected step of length sigma^2
(unit length in nu) ascends from any point: neither a line search nor the
objective's value is needed. In nu the step is

    nu+ = project_monotone(z - grad log P_1(nu)),

started at nu = z, so the first step is the first-order Taylor step at the
observations. Pool-adjacent-violators sets each pooled block to one value,
so tie groups are the runs of exactly equal entries of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ordering import (
    SQRT_2,
    MeanConfig,
    grad_log_ordering_probability,
    inverse_mills,
    ordering_probability,
)

POOLING_THRESHOLD = 2.0 / math.sqrt(math.pi)  # times sigma
KKT_TOL = 1e-7  # bound on the last unit step ||mu+ - mu|| / sigma
MAX_ITERATIONS = 500  # steps, one gradient evaluation each
P2_XTOL = 1e-12  # last Newton step of the p = 2 root, relative to max(1, nu)
P2_MAX_STEPS = 100  # Newton steps of one p = 2 root


class MaxIterationsExceeded(RuntimeError):
    """Ascent hit the iteration cap.

    Carries the result at the last iterate. Every step ascends, so it is
    also the best iterate found.
    """

    def __init__(self, message: str, result: "CcmleResult"):
        super().__init__(message)
        self.result = result

    # pickles every field, so a pool worker's error reaches the parent intact
    def __reduce__(self):
        return type(self), (str(self), self.result)


@dataclass
class ObservedSample:
    """Observed values, canonicalized to descending order.

    The constructor sorts and remembers the permutation, so callers may pass
    observations in any order; results are reported back in original labels.
    Exact ties are broken by original index.
    """

    x: np.ndarray
    sigma: float
    permutation: np.ndarray = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need a 1-d vector of at least 2 observations")
        if not np.all(np.isfinite(x)):
            raise ValueError("observations must be finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        order = np.argsort(-x, kind="stable")
        self.permutation = order
        self.x = x[order]

    @property
    def p(self) -> int:
        return self.x.size

    @property
    def xbar(self) -> float:
        return float(self.x.mean())


@dataclass
class CcmleResult:
    """Estimate on the cone plus solver diagnostics.

    ``mu_hat`` is in rank (descending) order; ``in_original_order()`` maps it
    back to the caller's population labels. ``groups`` lists maximal runs of
    tied ranks (0-based rank indices).
    """

    mu_hat: np.ndarray
    groups: list[list[int]]
    path: str  # closed_form_pooled | closed_form_interior | numeric
    iterations: int
    kkt_residual: float
    permutation: np.ndarray
    converged: bool = True

    def in_original_order(self) -> np.ndarray:
        out = np.empty_like(self.mu_hat)
        out[self.permutation] = self.mu_hat
        return out


def conditional_log_likelihood(mu: np.ndarray, obs: ObservedSample) -> float:
    """Selection-conditioned log-likelihood, constant term dropped, in the
    standardized coordinates of ``ccmle``; log P comes from the checked
    ``ordering_probability``, which raises ConvergenceFailure off tolerance."""
    nu = (np.asarray(mu, dtype=float) - obs.xbar) / obs.sigma
    z = (obs.x - obs.xbar) / obs.sigma
    log_p = ordering_probability(MeanConfig(tuple(nu), 1.0)).log_value
    return -0.5 * float(np.sum((z - nu) ** 2)) - log_p


def project_monotone(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the nonincreasing cone (pool adjacent violators).

    Mean-preserving: pooled blocks are replaced by their averages.
    """
    v = np.asarray(v, dtype=float)
    sums: list[float] = []
    counts: list[int] = []
    for value in v:
        sums.append(float(value))
        counts.append(1)
        # merge while the last block's mean exceeds its predecessor's
        while len(sums) > 1 and sums[-2] * counts[-1] < sums[-1] * counts[-2]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    out = np.empty_like(v)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos : pos + c] = s / c
        pos += c
    return out


def ccmle_p2_rows(x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact p = 2 estimates of the descending rows of ``x``, and each |f(nu_1)|.

    Rows with gap <= POOLING_THRESHOLD sigma pool at their mean xbar. Others
    take x -+ sigma s, exactly x where the shrinkage s = d - nu_1 = g(-sqrt(2)
    nu_1) / sqrt(2) underflows; nu_1 is the root in [0, d = (x_1 - xbar) / sigma]
    of the increasing, convex f below (g' = g (g - u) is in (0, 1)): Newton's
    method from d, each row on its own steps, descends onto it.
    """

    def stationarity(nu, d):  # f(nu) = g(-sqrt(2) nu) - sqrt(2) (d - nu), and g
        g = inverse_mills(-SQRT_2 * nu)
        return g - SQRT_2 * (d - nu), g

    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    xbar = x.mean(axis=1)
    with np.errstate(over="ignore"):  # an overflow is caught here
        d = (x[:, 0] - xbar) / sigma
        if not np.all(np.isfinite(SQRT_2 * d)):
            raise ValueError("observations too far apart for sigma to standardize")
    interior = x[:, 0] - x[:, 1] > POOLING_THRESHOLD * sigma
    nu = np.where(interior, d, 0.0)
    todo = np.flatnonzero(interior)
    for _ in range(P2_MAX_STEPS):
        v = nu[todo]
        f, g = stationarity(v, d[todo])
        nu[todo] = np.clip(v - f / (SQRT_2 * (1.0 - g * (g + SQRT_2 * v))), 0.0, d[todo])
        todo = todo[~(np.abs(nu[todo] - v) <= P2_XTOL * np.maximum(1.0, v))]  # NaN stays
        if todo.size == 0:
            f, g = stationarity(nu, d)
            shrunk = x + sigma * (g / SQRT_2)[:, None] * np.array([-1.0, 1.0])
            mu_hat = np.where(interior[:, None], shrunk, xbar[:, None])
            return mu_hat, np.where(interior, np.abs(f), 0.0)
    raise RuntimeError(f"p = 2 root unconverged after {P2_MAX_STEPS} steps, d = {d[todo]}")


def ccmle_p2(obs: ObservedSample) -> CcmleResult:
    """``ccmle_p2_rows`` on one sample, its |f(nu_1)| as ``kkt_residual``."""
    if obs.p != 2:
        raise ValueError("ccmle_p2 requires exactly 2 observations")
    mu_hat, residual = ccmle_p2_rows(obs.x[None, :], obs.sigma)
    groups = _tie_groups(mu_hat[0])
    path = "closed_form_pooled" if len(groups) == 1 else "closed_form_interior"
    return CcmleResult(mu_hat[0], groups, path, 0, float(residual[0]), obs.permutation)


def _tie_groups(nu: np.ndarray) -> list[list[int]]:
    """Maximal runs of exactly equal entries (0-based rank indices)."""
    groups: list[list[int]] = [[0]]
    for i in range(1, nu.size):
        if nu[i] == nu[i - 1]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def ccmle(obs: ObservedSample, method: str = "auto") -> CcmleResult:
    """Constrained conditional MLE for any number of populations.

    Dispatches to the exact path for p = 2 (``method="numeric"`` forces the
    general optimizer). The general path standardizes the sample, starts at
    the observations and repeats the fixed unit projected-gradient step of
    the module docstring, the first of which is the Taylor step, until the
    step is shorter than ``KKT_TOL`` (in sigma units, reported as
    ``kkt_residual``). Each step ascends, by the Brascamp-Lieb bound
    Cov(X | order) <= sigma^2 I, so a step costs one gradient evaluation and
    no objective value (``conditional_log_likelihood`` gives it on request).
    Tie groups are the blocks that pool-adjacent-violators set to one value.
    Raises MaxIterationsExceeded, carrying the last iterate, if the
    tolerance is not reached within ``MAX_ITERATIONS`` steps.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric'")
    if obs.p == 2 and method == "auto":
        return ccmle_p2(obs)

    z = (obs.x - obs.xbar) / obs.sigma  # still in descending order
    nu = z
    kkt = math.inf
    iterations = 0
    while kkt > KKT_TOL and iterations < MAX_ITERATIONS:
        iterations += 1
        grad = grad_log_ordering_probability(MeanConfig(tuple(nu), 1.0))
        nu_next = project_monotone(z - grad)
        kkt = float(np.linalg.norm(nu_next - nu))
        nu = nu_next
    converged = kkt <= KKT_TOL

    result = CcmleResult(
        obs.xbar + obs.sigma * nu,
        _tie_groups(nu),
        "numeric",
        iterations,
        kkt,
        obs.permutation,
        converged,
    )
    if not converged:
        raise MaxIterationsExceeded(
            f"projected ascent did not reach kkt_tol={KKT_TOL} in "
            f"{MAX_ITERATIONS} iterations (residual {kkt:.3e} sigma)",
            result,
        )
    return result

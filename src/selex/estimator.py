"""Constrained conditional maximum likelihood for rank-selected normal means.

The estimate maximizes the selection-conditioned log-likelihood

    l(mu) = -(1/(2 sigma^2)) sum (x_i - mu_i)^2 - log P_mu(X_1 > ... > X_p)

over the monotone cone {mu : mu_1 >= mu_2 >= ... >= mu_p}. Two populations
admit an exact solution: observations closer than 2 sigma / sqrt(pi) pool at
the grand mean, wider gaps shrink toward each other through a single
transcendental root.

The general case solves in standardized coordinates z = (x - xbar)/sigma,
nu = (mu - xbar)/sigma, where the objective is the same function with
sigma = 1, and maps back with mu = xbar + sigma nu; shifting or scaling the
input therefore leaves the solve unchanged. The objective is concave with
Hessian -Cov(X | order)/sigma^4, and a normal conditioned on the convex
order cone has Cov(X | order) <= sigma^2 I (Brascamp-Lieb). So the
gradient is 1/sigma^2-Lipschitz, and the projected step of length sigma^2
(unit length in nu) ascends from any point: no line search is needed. In
nu the step is

    nu+ = project_monotone(z - grad log P_1(nu)),

started at nu = z, so the first step is the first-order Taylor step at the
observations. Pool-adjacent-violators sets each pooled block to one value,
so tie groups are the runs of exactly equal entries of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .ordering import (
    SQRT_2,
    MeanConfig,
    grad_log_ordering_probability,
    inverse_mills,
    log_ordering_probability,
    ordering_probability,  # noqa: F401  only the benchmark's tracer looks it up here
)

POOLING_THRESHOLD = 2.0 / math.sqrt(math.pi)  # times sigma
KKT_TOL = 1e-7  # bound on the last unit step ||mu+ - mu|| / sigma
MAX_ITERATIONS = 500  # steps, one gradient evaluation each


class RootBracketFailure(RuntimeError):
    """The p=2 stationarity equation lost its bracket; internal error."""


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
    log_likelihood: float
    permutation: np.ndarray
    converged: bool = True

    def in_original_order(self) -> np.ndarray:
        out = np.empty_like(self.mu_hat)
        out[self.permutation] = self.mu_hat
        return out


def conditional_log_likelihood(mu: np.ndarray, obs: ObservedSample) -> float:
    """Selection-conditioned log-likelihood, constant term dropped."""
    mu = np.asarray(mu, dtype=float)
    quad = -0.5 * float(np.sum((obs.x - mu) ** 2)) / (obs.sigma**2)
    return quad - log_ordering_probability(MeanConfig(tuple(mu), obs.sigma))


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


def ccmle_p2(obs: ObservedSample) -> CcmleResult:
    """Exact two-population solution.

    Pools at the grand mean when the gap is at most 2 sigma / sqrt(pi);
    otherwise solves g(sqrt(2)/sigma (xbar - m1)) = sqrt(2)/sigma (x1 - m1)
    for the unique interior stationary point.
    """
    if obs.p != 2:
        raise ValueError("ccmle_p2 requires exactly 2 observations")
    x1, x2 = float(obs.x[0]), float(obs.x[1])
    sigma = obs.sigma
    xbar = 0.5 * (x1 + x2)
    gap = x1 - x2

    if gap <= POOLING_THRESHOLD * sigma:
        mu_hat = np.array([xbar, xbar])
        ll = conditional_log_likelihood(mu_hat, obs)
        return CcmleResult(
            mu_hat, [[0, 1]], "closed_form_pooled", 0, 0.0, ll, obs.permutation
        )

    scale = SQRT_2 / sigma

    def stationarity(m1: float) -> float:
        return inverse_mills(scale * (xbar - m1)) - scale * (x1 - m1)

    lo, hi = xbar, x1
    if not (stationarity(lo) < 0 < stationarity(hi)):
        raise RootBracketFailure(
            f"no sign change on [{lo}, {hi}] for gap {gap}, sigma {sigma}"
        )
    m1 = brentq(stationarity, lo, hi, xtol=1e-15, rtol=8.9e-16)
    mu_hat = np.array([m1, x1 + x2 - m1])
    ll = conditional_log_likelihood(mu_hat, obs)
    return CcmleResult(
        mu_hat,
        [[0], [1]],
        "closed_form_interior",
        0,
        abs(stationarity(m1)),
        ll,
        obs.permutation,
    )


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
    Cov(X | order) <= sigma^2 I. Tie groups are the blocks that
    pool-adjacent-violators set to one value. Raises MaxIterationsExceeded,
    carrying the last iterate, if the tolerance is not reached within
    ``MAX_ITERATIONS`` steps.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric'")
    if obs.p == 2 and method == "auto":
        return ccmle_p2(obs)

    # shifting and scaling by sigma > 0 keep the order, so std.x lines up with obs.x
    std = ObservedSample((obs.x - obs.xbar) / obs.sigma, 1.0)
    nu = std.x
    kkt = math.inf
    iterations = 0
    while kkt > KKT_TOL and iterations < MAX_ITERATIONS:
        iterations += 1
        grad = grad_log_ordering_probability(MeanConfig(tuple(nu), 1.0))
        nu_next = project_monotone(std.x - grad)
        kkt = float(np.linalg.norm(nu_next - nu))
        nu = nu_next
    converged = kkt <= KKT_TOL

    result = CcmleResult(
        obs.xbar + obs.sigma * nu,
        _tie_groups(nu),
        "numeric",
        iterations,
        kkt,
        conditional_log_likelihood(nu, std),
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

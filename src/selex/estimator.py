"""Constrained conditional maximum likelihood for rank-selected normal means.

The estimate maximizes the selection-conditioned log-likelihood

    l(mu) = -(1/(2 sigma^2)) sum (x_i - mu_i)^2 - log P_mu(X_1 > ... > X_p)

over the monotone cone {mu : mu_1 >= mu_2 >= ... >= mu_p}. Two populations
admit an exact solution: observations closer than 2 sigma / sqrt(pi) pool at
the grand mean, wider gaps shrink toward each other through a single
transcendental root. The general case runs projected gradient ascent with
pool-adjacent-violators projection, started from a first-order Taylor step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .kernels import SQRT_2, QuadratureSpec, inverse_mills
from .ordering import (
    MeanConfig,
    grad_log_ordering_probability,
    ordering_probability,
)

POOLING_THRESHOLD = 2.0 / math.sqrt(math.pi)  # times sigma


class RootBracketFailure(RuntimeError):
    """The p=2 stationarity equation lost its bracket; internal error."""


class MaxIterationsExceeded(RuntimeError):
    """Ascent hit the iteration cap; carries the best iterate found."""

    def __init__(self, message: str, result: "CcmleResult"):
        super().__init__(message)
        self.result = result


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
    sorted: bool = field(init=False, default=True)

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


@dataclass(frozen=True)
class MonotoneCone:
    """The cone of nonincreasing mean vectors."""

    p: int

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=float)
        return v.size == self.p and bool(np.all(np.diff(v) <= 0))


@dataclass(frozen=True)
class OptimizerSettings:
    kkt_tol: float = 1e-7
    max_iterations: int = 500
    initial_step: float | None = None  # default sigma^2
    backtrack: float = 0.5
    tie_tol: float | None = None  # default 1e-6 * sigma


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


def conditional_log_likelihood(
    mu: np.ndarray, obs: ObservedSample, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Selection-conditioned log-likelihood, constant term dropped."""
    mu = np.asarray(mu, dtype=float)
    quad = -0.5 * float(np.sum((obs.x - mu) ** 2)) / (obs.sigma**2)
    prob = ordering_probability(MeanConfig(tuple(mu), obs.sigma), spec)
    return quad - prob.log_value


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


def ccmle_p2(obs: ObservedSample, spec: QuadratureSpec = QuadratureSpec()) -> CcmleResult:
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
        ll = conditional_log_likelihood(mu_hat, obs, spec)
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
    ll = conditional_log_likelihood(mu_hat, obs, spec)
    return CcmleResult(
        mu_hat,
        [[0], [1]],
        "closed_form_interior",
        0,
        abs(stationarity(m1)),
        ll,
        obs.permutation,
    )


def taylor_start(
    obs: ObservedSample, spec: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """First-order Taylor step from the observed values, projected onto the cone."""
    grad = grad_log_ordering_probability(MeanConfig(tuple(obs.x), obs.sigma), spec)
    return project_monotone(obs.x - obs.sigma**2 * grad)


def _tie_groups(mu: np.ndarray, tol: float) -> list[list[int]]:
    groups: list[list[int]] = [[0]]
    for i in range(1, mu.size):
        if mu[i - 1] - mu[i] < tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _snap_groups(mu: np.ndarray, groups: list[list[int]]) -> np.ndarray:
    out = mu.copy()
    for grp in groups:
        out[grp] = mu[grp].mean()
    return out


def ccmle(
    obs: ObservedSample,
    spec: QuadratureSpec = QuadratureSpec(),
    opt: OptimizerSettings = OptimizerSettings(),
    method: str = "auto",
) -> CcmleResult:
    """Constrained conditional MLE for any number of populations.

    Dispatches to the exact path for p = 2 (``method="numeric"`` forces the
    general optimizer). The general path runs projected gradient ascent with
    Armijo backtracking from the Taylor starting point, then snaps near-ties
    into exact groups. Raises MaxIterationsExceeded (carrying the best
    iterate) if the KKT tolerance is not reached.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric'")
    if obs.p == 2 and method == "auto":
        return ccmle_p2(obs, spec)

    sigma2 = obs.sigma**2
    step0 = opt.initial_step if opt.initial_step is not None else sigma2
    tie_tol = opt.tie_tol if opt.tie_tol is not None else 1e-6 * obs.sigma

    def objective(mu: np.ndarray) -> float:
        return conditional_log_likelihood(mu, obs, spec)

    def gradient(mu: np.ndarray) -> np.ndarray:
        g = grad_log_ordering_probability(MeanConfig(tuple(mu), obs.sigma), spec)
        return (obs.x - mu) / sigma2 - g

    def residual(mu: np.ndarray, grad: np.ndarray) -> float:
        return float(np.linalg.norm(project_monotone(mu + step0 * grad) - mu)) / step0

    mu = taylor_start(obs, spec)
    ll = objective(mu)
    kkt = math.inf
    iterations = 0
    converged = False
    local_phase = False
    local_step = step0
    best_mu, best_kkt = mu, math.inf
    while iterations < opt.max_iterations:
        iterations += 1
        grad = gradient(mu)
        kkt = residual(mu, grad)
        if kkt < best_kkt:
            best_mu, best_kkt = mu, kkt
        if kkt <= opt.kkt_tol:
            converged = True
            break

        if not local_phase:
            # globalization: Armijo backtracking on the projected step
            t = step0
            progressed = False
            while t >= 1e-10 * step0:
                cand = project_monotone(mu + t * grad)
                move = cand - mu
                cand_ll = objective(cand)
                if cand_ll >= ll + 1e-4 * float(grad @ move):
                    mu, ll = cand, cand_ll
                    progressed = True
                    break
                t *= opt.backtrack
            # near the optimum the objective is numerically flat and the
            # line search stalls; the (accurate) gradient alone still drives
            # fixed-step iterations down to the KKT tolerance
            if not progressed or kkt <= 1e-4:
                local_phase = True
            continue

        if kkt > 10.0 * best_kkt:  # fixed step too aggressive; back off
            local_step *= opt.backtrack
            mu = best_mu
            if local_step < 1e-10 * step0:
                break
            continue
        mu = project_monotone(mu + local_step * grad)

    if not converged:
        mu = best_mu
        kkt = best_kkt
        ll = objective(mu)
    else:
        ll = objective(mu)

    groups = _tie_groups(mu, tie_tol)
    snapped = _snap_groups(mu, groups)
    snapped_ll = objective(snapped)
    if snapped_ll >= ll - opt.kkt_tol:
        mu, ll = snapped, snapped_ll
    else:
        groups = [[i] for i in range(obs.p)]

    result = CcmleResult(
        mu, groups, "numeric", iterations, kkt, ll, obs.permutation, converged
    )
    if not converged:
        raise MaxIterationsExceeded(
            f"projected ascent did not reach kkt_tol={opt.kkt_tol} in "
            f"{opt.max_iterations} iterations (residual {kkt:.3e})",
            result,
        )
    return result

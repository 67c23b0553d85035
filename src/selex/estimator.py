"""Constrained conditional maximum likelihood for rank-selected normal means.

The estimate maximizes the selection-conditioned log-likelihood

    l(mu) = -(1/(2 sigma^2)) sum (x_i - mu_i)^2 - log P_mu(X_1 > ... > X_p)

over the monotone cone {mu : mu_1 >= mu_2 >= ... >= mu_p}. Two populations
admit an exact solution: observations closer than 2 sigma / sqrt(pi) pool at
the grand mean, wider gaps shrink toward each other through a single
transcendental root, which ``ccmle_p2_rows`` finds for many samples at once
(``ccmle`` takes one sample as one row, and alone raises at a step cap).

The general case (``_ascent``; ``ccmle`` at p >= 3) solves in standardized
coordinates z = (x - xbar)/sigma, nu = (mu - xbar)/sigma, where the
objective is the same function with sigma = 1, and maps back with
mu = xbar + sigma nu; shifting or scaling the input therefore leaves the
solve unchanged. The objective is concave with Hessian -C, C = Cov(X |
order) in these units, and C <= I for a normal conditioned on the convex
order cone (Brascamp-Lieb). So the unit step

    nu_pg = Pi(z - grad log P_1(nu)),

Pi the Euclidean projection onto the cone (pool-adjacent-violators), ascends
from any point, and ||nu_pg - nu|| is the stopping rule. The ascent starts
at the grand mean nu = 0, where the gradient is e_p, the expected order
statistics of p standard normals (Harter 1961; e_2 gives the p = 2
threshold), and C is C_0, both cached from one sweep per p. So its first
unit step is the grand-mean test, at no sweep: the sample pools at xbar iff
every top partial sum of z - e_p is <= 0 (nu_pg = 0). Else the first
candidate is SURROGATE_STEPS unit steps from z on the log P of independent
gaps, sum_k log Phi((nu_k - nu_{k+1}) / sqrt(2)), exact at p = 2, at no
sweep. Where C has small eigenvalues, as on clustered cones, the unit step
is slow, so each iteration also takes a Newton step on the face of the cone
that nu_pg lies on (projected Newton, Bertsekas 1982): with B the tie-group
matrix of nu_pg (the identity when no entries tie), and C and the gradient
at nu from one sweep, the candidate is Pi(B w) with

    (B^T C B) w = B^T (z - nu - grad log P_1(nu) + C nu),

the maximum of the objective's quadratic model over the span of B, solved
again on the face Pi(B w) lands on until that is the face it was solved
on. At 0 it is taken where nu_pg ties ranks, and replaces the surrogate if
no farther from that nu_pg. A candidate is kept if the log-likelihood,
which its own sweep gives, does not fall (at 0 it is -inf, so the start
always is); otherwise the iteration takes nu_pg (a proximal Newton
safeguard: Lee, Sun and Saunders 2014). A Newton step shorter than
LAST_STEP is almost always the last, so its sweep skips C where the rule
can (a light sweep); if the unit step then misses KKT_TOL, the next step
takes the last C, at no sweep. The tie groups are the blocks that pool-
adjacent-violators hands back with nu_pg, each set to one value (two that
meet at one value join): the runs of exactly equal entries of the estimate.

The rule, ``conditional_moments``, gives log P, its gradient and C at once.
At p = 3 and 4 it is exact, in closed form from the bivariate and the
trivariate normal orthant of the gaps; those forms hold their accuracy only
on the cone, where every iterate lies, so the checked
``ordering_probability`` and the public gradient keep the quadrature. For
p >= 5 it sweeps each block (ordering, Blocks). A sample whose z
(ObservedSample.z) overflows is rejected with a ValueError, as at p = 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ordering import (
    SQRT_2,
    MeanConfig,
    _real,
    _reals,
    conditional_moments,
    grad_log_ordering_probability,  # only the benchmark's tracer looks it up here
    inverse_mills,
    ordering_probability,
)

SQRT_PI = math.sqrt(math.pi)
POOLING_THRESHOLD = 2.0 / SQRT_PI  # times sigma
KKT_TOL = 1e-7  # bound on the last unit step ||mu+ - mu|| / sigma
LAST_STEP = 1e-3  # Newton steps shorter than this (sigma units) are swept without C
SURROGATE_STEPS = 2  # unit steps on the independent-gaps surrogate before the first sweep
MAX_ITERATIONS = 500  # sweeps of the solver's rule
P2_XTOL = 1e-12  # last step of the p = 2 root, relative to max(1, nu)
P2_MAX_STEPS = 100  # steps of one p = 2 root


class MaxIterationsExceeded(RuntimeError):
    """The ascent, or the p = 2 root, hit its iteration cap; raised by ``ccmle`` only.

    Carries the result at the last iterate (``converged`` False); each step of
    the ascent ascends, so there it is also the best iterate found. ``result``
    is None only where the error is rebuilt from its message, as unpickling does.
    """

    def __init__(self, message: str, result: "CcmleResult | None" = None):
        super().__init__(message)
        self.result = result


@dataclass
class ObservedSample:
    """Observed values, canonicalized to descending order, and standardized.

    The constructor sorts and remembers the permutation, so callers may pass
    observations in any order; results are reported back in original labels.
    Exact ties are broken by original index; ``z`` is (x - xbar) / sigma.
    """

    x: np.ndarray
    sigma: float
    permutation: np.ndarray = field(init=False)
    xbar: float = field(init=False)
    z: np.ndarray = field(init=False)

    def __post_init__(self):
        x = _reals(self.x, "observations")
        self.sigma = _real(self.sigma, "sigma")
        order = np.argsort(-x, kind="stable")
        self.permutation = order
        self.x = x[order]
        with np.errstate(over="ignore", invalid="ignore"):  # overflows caught here and in _ascent
            xbar = float(np.add.reduce(self.x)) / self.x.size  # x.mean(), bit for bit
            # x / p cannot overflow, so nor can its sum; a rounded mean may leave [x_p, x_1]
            xbar = xbar if math.isfinite(xbar) else float((self.x / self.x.size).sum())
            self.xbar = min(max(xbar, float(self.x[-1])), float(self.x[0]))
            self.z = (self.x - self.xbar) / self.sigma

    @property
    def p(self) -> int:
        return self.x.size


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
    fallbacks: int = 0  # Newton candidates that did not ascend (see ``ccmle``)

    def in_original_order(self) -> np.ndarray:
        out = np.empty_like(self.mu_hat)
        out[self.permutation] = self.mu_hat
        return out


def conditional_log_likelihood(mu: np.ndarray, obs: ObservedSample) -> float:
    """Selection-conditioned log-likelihood of ``mu`` in rank order, as ``CcmleResult.mu_hat``
    holds it (``in_original_order()`` gives another value), constant term dropped (0, not -0.0,
    where both terms are), in the standardized coordinates of ``ccmle``; log P comes from the
    checked ``ordering_probability``, which raises ConvergenceFailure off tolerance."""
    nu = (np.asarray(mu, dtype=float) - obs.xbar) / obs.sigma
    return _objective(obs.z, nu, ordering_probability(MeanConfig(nu, 1.0)).log_value) + 0.0


def _pava(v: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Euclidean projection of a float vector onto the nonincreasing cone by
    pool-adjacent-violators, each pooled block at its mean, and the sizes
    of its maximal runs of equal entries: its blocks, joined where two meet
    at one value."""
    values, counts = _pool(v.tolist())
    return np.array(values), counts


def _pool(v: list[float]) -> tuple[list[float], list[int]]:
    """``_pava`` on a list of floats, returning a list."""
    sums, counts = [], []
    for value in v:
        count = 1
        while sums and sums[-1] * count < value * counts[-1]:  # the last block's mean is larger
            value += sums.pop()
            count += counts.pop()
        sums.append(value)
        counts.append(count)
    if len(sums) == len(v):  # nothing pooled
        means = values = sums
    else:
        means = [s / c for s, c in zip(sums, counts)]
        values = [m for m, c in zip(means, counts) for _ in range(c)]
    if len(set(means)) < len(means):  # blocks that meet at one value join
        counts = [len(list(run)) for _, run in itertools.groupby(values)]
    return values, counts


def _surrogate_start(z: np.ndarray) -> np.ndarray:
    """SURROGATE_STEPS unit steps from z on psi(nu) = sum_k log Phi(h_k), h_k = (nu_k -
    nu_{k+1}) / sqrt(2): log P with the correlation of neighbouring gaps dropped, exact at
    p = 2. On the cone h >= 0, and gap k pulls nu_k down and nu_{k+1} up by phi(h_k) /
    Phi(h_k) / sqrt(2), here in Python floats, as one ``inverse_mills`` call costs more."""
    target = nu = z.tolist()
    for _ in range(SURROGATE_STEPS):
        gaps = [a - b for a, b in zip(nu, nu[1:])]  # sqrt(2) h; a square may be inf
        pull = [0.0, *(math.exp(-0.25 * d * d) / (SQRT_PI * math.erfc(-0.5 * d)) for d in gaps), 0.0]
        nu = _pool([t - down + up for t, up, down in zip(target, pull, pull[1:])])[0]
    return np.array(nu)


def ccmle_p2_rows(x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Exact p = 2 estimates of the descending rows of ``x``, each |f(nu_1)|, and the rows
    whose root still moves at P2_MAX_STEPS, in row order, estimated at their last step.

    Rows with gap <= POOLING_THRESHOLD sigma pool at their mean xbar. Others
    take x -+ sigma s, exactly x where the shrinkage s = d - nu_1 = g(-sqrt(2)
    nu_1) / sqrt(2) underflows; nu_1 is the root in [0, d = (x_1 - xbar) / sigma]
    of the increasing, convex f below (g' = g (g - u) is in (0, 1)): Halley's
    method from d, each row on its own steps, reaches it in about four (2 f'^2
    - f f'' stays above 0.48 on [0, d]). Input it cannot solve raises ValueError.
    """

    def stationarity(nu, d):  # f(nu) = g(-sqrt(2) nu) - sqrt(2) (d - nu), and g
        g = inverse_mills(-SQRT_2 * nu)
        return g - SQRT_2 * (d - nu), g

    sigma, x = _real(sigma, "sigma"), np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    if x.ndim != 2 or x.shape[1] != 2 or not np.all(x[:, 0] >= x[:, 1]):
        raise ValueError("observations must be rows of two, each in descending order")
    with np.errstate(over="ignore"):  # an overflow is caught here
        xbar = x.mean(axis=1)
        if not np.all(np.isfinite(xbar)):  # x / 2 cannot overflow, so nor can its sum
            xbar = np.where(np.isfinite(xbar), xbar, (x / 2.0).sum(axis=1))
        d = (x[:, 0] - xbar) / sigma
        if not np.all(np.isfinite(SQRT_2 * d)):
            raise ValueError("observations too far apart for sigma to standardize")
        interior = x[:, 0] - x[:, 1] > POOLING_THRESHOLD * sigma  # an infinite gap is interior
    nu = np.where(interior, d, 0.0)
    todo = np.flatnonzero(interior)
    for _ in range(P2_MAX_STEPS):
        v, top = nu[todo], d[todo]
        f, g = stationarity(v, top)
        slope = g * (g + SQRT_2 * v)  # g' at u = -sqrt(2) v; g'' = g' (2 g - u) - g
        f1, f2 = SQRT_2 * (1.0 - slope), 2.0 * (slope * (2.0 * g + SQRT_2 * v) - g)
        nu[todo] = step = np.clip(v - 2.0 * f * f1 / (2.0 * f1 * f1 - f * f2), 0.0, top)
        todo = todo[~(np.abs(step - v) <= P2_XTOL * np.maximum(1.0, v))]  # NaN stays
        if todo.size == 0:
            break
    f, g = stationarity(nu[interior], d[interior])  # pooled rows stay at xbar
    mu_hat, residual = np.repeat(xbar[:, None], 2, axis=1), np.zeros(len(x))
    mu_hat[interior] = x[interior] + sigma * (g / SQRT_2)[:, None] * np.array([-1.0, 1.0])
    residual[interior] = np.abs(f)
    return mu_hat, residual, todo.tolist()


def _objective(z: np.ndarray, nu: np.ndarray, log_p: float) -> float:
    """The log-likelihood at ``nu`` in standardized coordinates, given log P."""
    r = z - nu
    return -0.5 * float(r @ r) - log_p


@functools.cache
def _expected_order_statistics(p: int) -> tuple[np.ndarray, np.ndarray]:
    """e_p and C_0 (module docstring) from one sweep of the rule; read-only, as they are shared."""
    _, e, cov = conditional_moments(np.zeros(p))
    e.flags.writeable = cov.flags.writeable = False
    return e, cov


def _newton(cov: np.ndarray, rhs: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Pi(B w), (B^T C B) w = B^T rhs, on the face of tie-group sizes ``sizes``, or else on
    the face it lands on: Pi only pools groups of a finite B w, so at most len(sizes) - 1
    more solves. One that overflows, which Pi cannot pool, is returned as it is."""
    if len(sizes) == rhs.size:  # the face is the identity
        step, landed = _pava(np.linalg.solve(cov, rhs))
    else:
        face = np.repeat(np.eye(len(sizes)), sizes, axis=0)  # column g indicates block g
        with np.errstate(over="ignore", invalid="ignore"):  # _ascent takes nu_pg instead
            step, landed = _pava(face @ np.linalg.solve(face.T @ cov @ face, face.T @ rhs))
    return _newton(cov, rhs, landed) if len(landed) < len(sizes) else step


def ccmle(obs: ObservedSample) -> CcmleResult:
    """Constrained conditional MLE of one sample: one ``ccmle_p2_rows`` row at p = 2, its
    |f(nu_1)| as ``kkt_residual``, else ``_ascent``. Raises ValueError when the
    standardization overflows, and MaxIterationsExceeded, carrying the result at the last
    iterate, for a root still moving at P2_MAX_STEPS or an ascent capped at MAX_ITERATIONS."""
    if obs.p > 2:
        result = _ascent(obs)
    else:
        mu_hat, kkt, moving = ccmle_p2_rows(obs.x[None, :], obs.sigma)
        groups = [[0, 1]] if mu_hat[0, 0] == mu_hat[0, 1] else [[0], [1]]
        path = "closed_form_pooled" if len(groups) == 1 else "closed_form_interior"
        result = CcmleResult(mu_hat[0], groups, path, 0, float(kkt[0]), obs.permutation, not moving)
    if not result.converged:
        raise MaxIterationsExceeded(
            f"projected ascent did not reach kkt_tol={KKT_TOL} in {MAX_ITERATIONS} iterations"
            f" (residual {result.kkt_residual:.3e} sigma)" if obs.p > 2 else
            f"p = 2 root unconverged after {P2_MAX_STEPS} steps (d = {obs.z[0]:.6g})", result)
    return result


def _ascent(obs: ObservedSample) -> CcmleResult:
    """The projected-Newton ascent of the module docstring, at any p.

    One loop from nu = 0, whose first unit step, from the cached e_p, is the
    grand-mean test; the first candidate is ``_surrogate_start``, or the
    Newton step at 0 where the unit step there ties ranks and the Newton
    step lies no farther from it. ``iterations`` counts the
    ``conditional_moments`` sweeps, one per candidate and per fallback, at
    most MAX_ITERATIONS (0 for a pooled sample);
    ``fallbacks`` the candidates not kept. It returns the unit step nu_pg
    once ||nu_pg - nu|| is within ``KKT_TOL`` (in sigma units, ``kkt_residual``); capped at 0 sweeps, a
    sample that does not pool gets the unit step at 0. At a cap ``converged`` is False.
    """
    z, xbar, sigma = obs.z, obs.xbar, obs.sigma
    if not math.isfinite(float(z[0]) - float(z[-1])):  # z descends: finite where this is
        raise ValueError("observations too far apart for sigma to standardize")
    nu, value, (grad, cov) = np.zeros(z.size), -math.inf, _expected_order_statistics(obs.p)
    iterations = fallbacks = 0
    while True:
        nu_pg, sizes = _pava(z - grad)
        kkt = math.hypot(*(nu_pg - nu).tolist())  # hypot, as z may not square
        if kkt <= KKT_TOL or iterations >= MAX_ITERATIONS:
            break
        candidate = None if iterations else _surrogate_start(z)
        if iterations or len(sizes) < z.size:  # at 0 only where nu_pg ties ranks
            newton = _newton(cov, z - nu - grad + cov @ nu, sizes)
            newton = newton if all(map(math.isfinite, newton.tolist())) else nu_pg  # overflowed
            if candidate is None or math.dist(newton, nu_pg) <= math.dist(candidate, nu_pg):
                candidate = newton
        light = iterations > 0 and math.dist(candidate.tolist(), nu.tolist()) <= LAST_STEP
        log_p, grad, fresh = conditional_moments(candidate, covariance=not light)
        cov = cov if fresh is None else fresh  # a light sweep keeps the last C
        iterations += 1
        if (trial := _objective(z, candidate, log_p)) >= value:
            nu, value = candidate, trial
            continue
        fallbacks += 1
        if iterations >= MAX_ITERATIONS:
            break
        (log_p, grad, cov), nu, iterations = conditional_moments(nu_pg), nu_pg, iterations + 1
        value = _objective(z, nu, log_p)
    return CcmleResult(
        xbar + sigma * nu_pg,
        [list(range(a, a + c)) for a, c in zip(itertools.accumulate([0] + sizes), sizes)],
        "numeric",
        iterations,
        kkt,
        obs.permutation,
        kkt <= KKT_TOL,
        fallbacks,
    )

"""Probability that independent normals come out in strictly decreasing order.

For p = 2 the probability has a closed form through the normal CDF. For
p >= 3 we evaluate nested-conditioning recursions on a shared grid. With
f_k(t) = (1/sigma) phi((t - mu_k)/sigma), the "below t" recursion

    H_{p+1}(t) = 1,   H_k(t) = integral_{-inf}^{t} f_k(s) H_{k+1}(s) ds

is the probability that populations k..p all fall below t in strictly
decreasing order, and its mirror, the "above t" recursion

    U_0(t) = 1,       U_k(t) = integral_{t}^{inf} f_k(s) U_{k-1}(s) ds

is the probability that populations 1..k all lie above t in that order.
For every k,

    P = integral f_k(t) U_{k-1}(t) H_{k+1}(t) dt,

which generalizes the condition-on-the-middle identity for three
populations. Since d f_k / d mu_k = (t - mu_k)/sigma^2 f_k, the same
integrands give the exact gradient

    d log P / d mu_k = integral (t - mu_k) f_k U_{k-1} H_{k+1} dt / (sigma^2 P)
                     = (E[X_k | order] - mu_k) / sigma^2.

The value takes the H sweep alone (k = 1); the gradient takes both sweeps,
U being the H sweep on the reversed grid with the populations reversed.
Each sweep is one pass of selex's numpy cumulative Simpson kernel (odd point
count) per population, linear in p. Where P underflows, both run in log space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
# 4k + 1 points, so the grid and its half-resolution grid[::2] both have the
# odd point count the Simpson kernels need
DEFAULT_GRID_POINTS = 2049
TRUNCATION_RADIUS = 8.0  # grid margin beyond the extreme means, in sigma
_UNDERFLOW_FLOOR = 1e-300


class UnderflowWarning(UserWarning):
    """The ordering probability underflowed; only log_value is reliable."""


class ConvergenceFailure(RuntimeError):
    """Quadrature failed to meet tolerance; carries the best estimate found."""

    def __init__(self, message: str, value: float, err_est: float):
        super().__init__(message)
        self.value = value
        self.err_est = err_est

    # pickles every field, so a pool worker's error reaches the parent intact
    def __reduce__(self):
        return type(self), (str(self), self.value, self.err_est)


def inverse_mills(z: float) -> float:
    """Inverse Mills ratio g(z) = phi(z) / (1 - Phi(z)).

    For z >= 0 uses the scaled complementary error function, which is exact
    and stable far into the right tail (g(z) ~ z + 1/z for large z). For
    z < 0 the denominator is close to 1 and the naive form is safe.
    """
    if z >= 0:
        return math.sqrt(2.0 / math.pi) / erfcx(z / SQRT_2)
    return INV_SQRT_2PI * math.exp(-0.5 * z * z) / (0.5 * math.erfc(z / SQRT_2))


@dataclass(frozen=True)
class MeanConfig:
    """Population means plus the common standard deviation of one observation."""

    mu: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) < 2:
            raise ValueError("need at least 2 populations")
        if not all(math.isfinite(m) for m in self.mu):
            raise ValueError("means must be finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")

    @property
    def p(self) -> int:
        return len(self.mu)


@dataclass
class OrderingProb:
    """Ordering probability with its log, computation method and error estimate."""

    value: float
    log_value: float
    method: str  # closed_form_p2 | quadrature | monte_carlo
    err_est: float
    degenerate: bool = False


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running Simpson integral of y along the last axis, zero at the first point.

    Even intervals take scipy's rule dx/3 (5 f0/4 + 2 f1 - f2/4) on the triple
    they start, odd ones on the mirrored triple they end. Odd point count only.
    """
    a, b, c = y[..., :-2:2], y[..., 1::2], y[..., 2::2]
    out = np.zeros_like(y)
    out[..., 1::2] = dx / 3 * (5 * a / 4 + 2 * b - c / 4)
    out[..., 2::2] = dx / 3 * (5 * c / 4 + 2 * b - a / 4)
    return np.cumsum(out, axis=-1, out=out)


def _simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson integral of y along the last axis (odd point count)."""
    weights = np.r_[1.0, np.tile([4.0, 2.0], y.shape[-1] // 2 - 1), 4.0, 1.0]
    return y @ weights * (dx / 3)


def _cumulative_log_trapezoid(logw: np.ndarray, dx: float) -> np.ndarray:
    """Log of the running trapezoid integral of exp(logw) along the last axis."""
    panel = np.logaddexp(logw[..., :-1], logw[..., 1:]) + math.log(0.5 * dx)
    start = np.full(logw.shape[:-1] + (1,), -np.inf)
    return np.concatenate((start, np.logaddexp.accumulate(panel, axis=-1)), axis=-1)


def _integrands(
    logpdf: np.ndarray, dx: float, gradient: bool, log_space: bool
) -> np.ndarray:
    """Integrands f_k U_{k-1} H_{k+1} of P (module docstring), or their logs.

    One row per population with ``gradient``, else the k = 1 row alone. The
    "above t" recursion U is the "below t" one on the mirrored problem: grid
    and population order both reversed, so one loop runs both sweeps. Linear
    space integrates with cumulative Simpson; log space, kept for P below the
    underflow floor, with a cumulative trapezoid.
    """
    if log_space:
        f, unit, combine = logpdf, 0.0, np.add
        cumulate = _cumulative_log_trapezoid
    else:
        f, unit, combine = np.exp(logpdf), 1.0, np.multiply
        cumulate = _cumulative_simpson
    rows = np.stack((f, f[::-1, ::-1])) if gradient else f[None]
    below = np.empty_like(rows)  # below[:, k] is H_{k+2}, 0-based k
    below[:, -1] = unit
    for k in range(rows.shape[1] - 1, 0, -1):
        below[:, k - 1] = cumulate(combine(rows[:, k], below[:, k]), dx)
    if not gradient:
        return combine(f[:1], below[0, :1])
    return combine(combine(f, below[0]), below[1, ::-1, ::-1])


def _grid(mu: np.ndarray, sigma: float) -> np.ndarray:
    """Uniform grid over the means, widened by the truncation radius."""
    r = TRUNCATION_RADIUS * sigma
    return np.linspace(mu.min() - r, mu.max() + r, DEFAULT_GRID_POINTS)


def _grid_recursion(
    mu: np.ndarray, sigma: float, grid: np.ndarray, gradient: bool = False
) -> tuple[float, float, np.ndarray | None]:
    """(P, log P, gradient of log P or None) on a uniform grid.

    P is the linear-space value; when it falls below the underflow floor,
    log P and the gradient come from the log-space sweeps.
    """
    assert grid.size % 2 == 1, "the Simpson kernels need an odd point count"
    dx = float(grid[1] - grid[0])
    z = (grid[None, :] - mu[:, None]) / sigma
    logpdf = -0.5 * z * z - math.log(sigma) + math.log(INV_SQRT_2PI)

    w = _integrands(logpdf, dx, gradient, log_space=False)
    mass = _simpson(w, dx)
    value = float(mass[0])
    log_shift = 0.0
    if value < _UNDERFLOW_FLOOR:
        logw = _integrands(logpdf, dx, gradient, log_space=True)
        shifts = logw.max(axis=-1, keepdims=True)
        w = np.exp(logw - shifts)
        mass = _simpson(w, dx)
        log_shift = float(shifts[0, 0])
    log_value = log_shift + math.log(mass[0])
    if not gradient:
        return value, log_value, None
    moment = _simpson((grid[None, :] - mu[:, None]) * w, dx)
    return value, log_value, moment / (mass * sigma**2)


def ordering_probability(cfg: MeanConfig) -> OrderingProb:
    """P(X_1 > X_2 > ... > X_p) for independent X_i ~ N(mu_i, sigma^2).

    Closed form for p = 2; grid recursion (see module docstring) otherwise.
    The grid path's error estimate is |P - P_half|/15 against a half-resolution
    pass (Richardson, fourth-order rule), with a relative floor of eps * P.
    """
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        u = (mu[1] - mu[0]) / (cfg.sigma * SQRT_2)
        value = float(ndtr(-u))
        log_value = float(log_ndtr(-u))
        if value < _UNDERFLOW_FLOOR:
            warnings.warn("ordering probability underflowed", UnderflowWarning)
        return OrderingProb(value, log_value, "closed_form_p2", 1e-16)

    grid = _grid(mu, cfg.sigma)
    value, log_value, _ = _grid_recursion(mu, cfg.sigma, grid)
    value_h, _, _ = _grid_recursion(mu, cfg.sigma, grid[::2])
    err = abs(value - value_h) / 15.0 + np.finfo(float).eps * value
    if value < _UNDERFLOW_FLOOR:
        warnings.warn("ordering probability underflowed", UnderflowWarning)
    return OrderingProb(value, log_value, "quadrature", float(err))


def mc_ordering_probability(cfg: MeanConfig, n_draws: int, seed: int) -> OrderingProb:
    """Monte Carlo oracle: fraction of iid N(mu, sigma^2 I) draws in strict order.

    Deterministic for a given (cfg, n_draws, seed); draws are consumed from a
    single sequential stream in fixed-size blocks.
    """
    if n_draws < 10_000:
        raise ValueError("n_draws must be at least 10^4")
    rng = np.random.default_rng(seed)
    mu = np.asarray(cfg.mu, dtype=float)
    hits = 0
    remaining = n_draws
    block = 200_000
    while remaining > 0:
        n = min(block, remaining)
        x = rng.normal(mu, cfg.sigma, size=(n, cfg.p))
        hits += int(np.all(x[:, :-1] > x[:, 1:], axis=1).sum())
        remaining -= n
    p_hat = hits / n_draws
    se = math.sqrt(p_hat * (1.0 - p_hat) / n_draws)
    degenerate = p_hat in (0.0, 1.0)
    log_value = math.log(p_hat) if 0.0 < p_hat else math.nan
    return OrderingProb(p_hat, log_value, "monte_carlo", se, degenerate=degenerate)


def grad_log_ordering_probability(cfg: MeanConfig) -> np.ndarray:
    """Gradient of log P(X_1 > ... > X_p) with respect to the means.

    Analytic for p = 2 (inverse Mills ratio of the scaled mean gap). For
    p >= 3 it is the exact identity

        d log P / d mu_k = (E[X_k | order] - mu_k) / sigma^2,

    with the truncated mean taken from one "below t" and one "above t"
    sweep on the grid of ``ordering_probability`` (module docstring). When
    P underflows both sweeps run in log space, so the gradient stays finite.
    """
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        u = (mu[1] - mu[0]) / (cfg.sigma * SQRT_2)
        g = inverse_mills(u) / (cfg.sigma * SQRT_2)
        return np.array([g, -g])

    grid = _grid(mu, cfg.sigma)
    return _grid_recursion(mu, cfg.sigma, grid, gradient=True)[2]

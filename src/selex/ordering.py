"""Probability that independent normals come out in strictly decreasing order.

For p = 2 the probability has a closed form through the normal CDF. For
p >= 3 we evaluate nested-conditioning recursions on shared quadrature
nodes. With f_k(t) = (1/sigma) phi((t - mu_k)/sigma), the "below t"
recursion

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
U being the H sweep on the reversed nodes with the populations reversed.

Layout. Each mean has a window [mu_k - R sigma, mu_k + R sigma]
(R = TRUNCATION_RADIUS); overlapping windows merge. A gap between merged
windows is skipped only when the populations above it are 1..j of the
required order and those below it j+1..p: the ordered sample then leaves
the gap empty. On the cone that is every gap. Off the cone it need not be:
for means (0, 0, 60) the mass of the ordered sample sits near t = 20,
inside the gap, so such a gap is covered. Each covered stretch is tiled
with equal panels PANEL_WIDTH sigma wide, each carrying PANEL_NODES
Gauss-Legendre nodes. The running integral is a spectral integration
matrix inside each panel (Greengard 1991) plus an exclusive cumsum of the
panel totals, so it holds constant across a skipped gap. The nodes are
symmetric within equal panels, so reversing the node array gives the
layout of the mirrored problem and one kernel runs both sweeps.

Accuracy. The rule's error falls as PANEL_WIDTH^(2 PANEL_NODES), so the
same rule on halved panels estimates it: ``ordering_probability`` halves
the panels until |log P_h - log P_{h/2}| is within QUADRATURE_RTOL, reports
that and |P_h - P_{h/2}| for the coarser rule, and raises
ConvergenceFailure when a sweep would need more than MAX_NODES nodes first.
Off the cone the mass can sit in the far tails, where one PANEL_WIDTH
panel spans many e-folds of the integrand: (0, 0, 20) needs two halvings.
``grid_ordering_probability``, a uniform Simpson grid over the whole span,
is an oracle for the layout that shares none of it. Where P underflows, both sweeps run in log space on panels
LOG_SPACE_SPLIT times narrower, with a per-panel max shift. On the cone
P >= 1/p!, so the solver never takes that path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.special import erfcx, log_ndtr, ndtr

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
# only the benchmark's tracer reads this; it goes with ROADMAP item 1
DEFAULT_GRID_POINTS = 2049
TRUNCATION_RADIUS = 8.0  # half-width of each mean's window, in sigma
PANEL_WIDTH = 1.0  # in sigma
PANEL_NODES = 10  # Gauss-Legendre nodes per panel
LOG_SPACE_SPLIT = 8  # log-space sweeps run on panels this many times narrower
MAX_NODES = 2**16  # nodes of one sweep; more raise ConvergenceFailure
QUADRATURE_RTOL = 1e-6  # bound on the error estimate of log P
_UNDERFLOW_FLOOR = 1e-300


def _spectral_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], and the q x q matrix whose
    row i integrates the interpolant through the nodes from -1 to node i."""
    nodes, weights = legendre.leggauss(q)
    lagrange = np.linalg.inv(legendre.legvander(nodes, q - 1))  # column j: l_j
    running = legendre.legvander(nodes, q) @ legendre.legint(lagrange, lbnd=-1)
    return nodes, weights, running


_NODES, _WEIGHTS, _RUNNING = _spectral_rule(PANEL_NODES)


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
    """Ordering probability and its log, each with an error estimate."""

    value: float
    log_value: float
    method: str  # closed_form_p2 | quadrature | monte_carlo
    err_est: float
    log_err_est: float
    degenerate: bool = False


def _check_size(panels: int) -> None:
    if panels * PANEL_NODES > MAX_NODES:
        raise ConvergenceFailure(
            f"quadrature needs {panels * PANEL_NODES} nodes, over the cap of "
            f"{MAX_NODES}",
            math.nan,
            math.inf,
        )


def _layout(mu: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
    """Left edges and width of the PANEL_WIDTH sigma panels (module
    docstring, Layout)."""
    r = TRUNCATION_RADIUS * sigma
    width = PANEL_WIDTH * sigma
    s = np.sort(mu)
    lo, hi = [s[0] - r], []
    for i in np.flatnonzero(np.diff(s) > 2.0 * r):
        above = mu > s[i]
        if not np.any(above[1:] & ~above[:-1]):  # those above are 1..j: skip
            hi.append(s[i] + r)
            lo.append(s[i + 1] - r)
    hi.append(s[-1] + r)
    # the tolerance keeps a whole number of panels from rounding up to one more
    count = [math.ceil((b - a) / width - 1e-9) for a, b in zip(lo, hi)]
    _check_size(sum(count))
    edges = np.concatenate([a + width * np.arange(n) for a, n in zip(lo, count)])
    return edges, width


def _refine(edges: np.ndarray, width: float, split: int) -> tuple[np.ndarray, float]:
    """The same stretches tiled with panels ``split`` times narrower."""
    _check_size(edges.size * split)
    width /= split
    return (edges[:, None] + width * np.arange(split)).ravel(), width


def _nodes(edges: np.ndarray, width: float) -> np.ndarray:
    """Quadrature nodes of the panels at ``edges``, panel by panel."""
    return (edges[:, None] + 0.5 * width * (_NODES + 1.0)).ravel()


def _integral(y: np.ndarray, width: float) -> np.ndarray:
    """Integral of y along the last axis over all panels."""
    panels = y.reshape(y.shape[:-1] + (-1, PANEL_NODES))
    return (panels @ _WEIGHTS).sum(axis=-1) * (0.5 * width)


def _cumulative(y: np.ndarray, width: float) -> np.ndarray:
    """Running integral of y along the last axis, from the first panel's edge."""
    panels = y.reshape(y.shape[:-1] + (-1, PANEL_NODES)) * (0.5 * width)
    totals = panels @ _WEIGHTS
    before = np.cumsum(totals, axis=-1) - totals
    return (panels @ _RUNNING.T + before[..., None]).reshape(y.shape)


def _cumulative_log(logy: np.ndarray, width: float) -> np.ndarray:
    """Log of the running integral of exp(logy), shifted by each panel's max."""
    logy = logy.reshape(logy.shape[:-1] + (-1, PANEL_NODES))
    shift = logy.max(axis=-1, keepdims=True)
    panels = np.exp(logy - shift) * (0.5 * width)
    # a steep panel's interpolant can integrate to <= 0 near its left edge
    with np.errstate(divide="ignore"):
        within = np.log(np.maximum(panels @ _RUNNING.T, 0.0)) + shift
    totals = np.log(panels @ _WEIGHTS) + shift[..., 0]
    running = np.logaddexp.accumulate(totals, axis=-1)
    before = np.full_like(running, -np.inf)
    before[..., 1:] = running[..., :-1]
    return np.logaddexp(within, before[..., None]).reshape(logy.shape[:-2] + (-1,))


def _integrands(
    mu: np.ndarray, sigma: float, nodes: np.ndarray, width: float,
    gradient: bool, log_space: bool,
) -> np.ndarray:
    """Integrands f_k U_{k-1} H_{k+1} of P (module docstring), or their logs.

    One row per population with ``gradient``, else the k = 1 row alone. The
    "above t" recursion U is the "below t" one on the mirrored problem: nodes
    and population order both reversed, so one loop runs both sweeps.
    """
    z = (nodes[None, :] - mu[:, None]) / sigma
    logpdf = -0.5 * z * z - math.log(sigma) + math.log(INV_SQRT_2PI)
    if log_space:
        f, unit, combine, cumulate = logpdf, 0.0, np.add, _cumulative_log
    else:
        f, unit, combine, cumulate = np.exp(logpdf), 1.0, np.multiply, _cumulative
    rows = np.stack((f, f[::-1, ::-1])) if gradient else f[None]
    below = np.empty_like(rows)  # below[:, k] is H_{k+2}, 0-based k
    below[:, -1] = unit
    for k in range(rows.shape[1] - 1, 0, -1):
        below[:, k - 1] = cumulate(combine(rows[:, k], below[:, k]), width)
    if not gradient:
        return combine(f[:1], below[0, :1])
    return combine(combine(f, below[0]), below[1, ::-1, ::-1])


def _grid_recursion(
    mu: np.ndarray, sigma: float, edges: np.ndarray, width: float,
    gradient: bool = False,
) -> tuple[float, float, np.ndarray | None]:
    """(P, log P, gradient of log P or None) on the panels at ``edges``.

    P is the linear-space value; when it falls below the underflow floor,
    log P and the gradient come from log-space sweeps on the same stretches
    cut into panels LOG_SPACE_SPLIT times narrower.
    """
    nodes = _nodes(edges, width)
    w = _integrands(mu, sigma, nodes, width, gradient, log_space=False)
    mass = _integral(w, width)
    value = float(mass[0])
    log_shift = 0.0
    if value < _UNDERFLOW_FLOOR:
        edges, width = _refine(edges, width, LOG_SPACE_SPLIT)
        nodes = _nodes(edges, width)
        logw = _integrands(mu, sigma, nodes, width, gradient, log_space=True)
        shifts = logw.max(axis=-1, keepdims=True)
        w = np.exp(logw - shifts)
        mass = _integral(w, width)
        log_shift = float(shifts[0, 0])
    log_value = log_shift + math.log(mass[0])
    if not gradient:
        return value, log_value, None
    moment = _integral((nodes[None, :] - mu[:, None]) * w, width)
    return value, log_value, moment / (mass * sigma**2)


def _closed_form_p2(mu: np.ndarray, sigma: float) -> tuple[float, float]:
    u = (mu[1] - mu[0]) / (sigma * SQRT_2)
    return float(ndtr(-u)), float(log_ndtr(-u))


def log_ordering_probability(cfg: MeanConfig) -> float:
    """log P(X_1 > ... > X_p): the value of ``ordering_probability`` without
    its error pass, which the solver's objective does not need."""
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        return _closed_form_p2(mu, cfg.sigma)[1]
    return _grid_recursion(mu, cfg.sigma, *_layout(mu, cfg.sigma))[1]


def ordering_probability(cfg: MeanConfig) -> OrderingProb:
    """P(X_1 > X_2 > ... > X_p) for independent X_i ~ N(mu_i, sigma^2).

    Closed form for p = 2; panel quadrature (module docstring) otherwise.
    The quadrature's error estimates compare the rule with itself on halved
    panels, |P_h - P_{h/2}| and |log P_h - log P_{h/2}|, with floors of
    eps * P and eps; the panels are halved until the log estimate is within
    QUADRATURE_RTOL. Raises ConvergenceFailure, with the last estimate, when
    the nodes would exceed MAX_NODES first.
    """
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        value, log_value = _closed_form_p2(mu, cfg.sigma)
        if value < _UNDERFLOW_FLOOR:
            warnings.warn("ordering probability underflowed", UnderflowWarning)
        return OrderingProb(value, log_value, "closed_form_p2", 1e-16, 1e-16)

    eps = np.finfo(float).eps
    edges, width = _layout(mu, cfg.sigma)
    value, log_value, _ = _grid_recursion(mu, cfg.sigma, edges, width)
    err = log_err = math.inf
    while True:  # halve the panels until two successive rules agree
        try:
            edges, width = _refine(edges, width, 2)
            value_h, log_value_h, _ = _grid_recursion(mu, cfg.sigma, edges, width)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"quadrature error estimate {log_err:.3g} of log P exceeds "
                f"{QUADRATURE_RTOL:g} ({exc})",
                value,
                err,
            ) from None
        err = abs(value - value_h) + eps * value
        log_err = abs(log_value - log_value_h) + eps
        if log_err <= QUADRATURE_RTOL:
            break
        value, log_value = value_h, log_value_h
    if value < _UNDERFLOW_FLOOR:
        warnings.warn("ordering probability underflowed", UnderflowWarning)
    return OrderingProb(value, log_value, "quadrature", err, log_err)


def mc_ordering_probability(cfg: MeanConfig, n_draws: int, seed: int) -> OrderingProb:
    """Monte Carlo oracle: fraction of iid N(mu, sigma^2 I) draws in strict order.

    Deterministic for a given (cfg, n_draws, seed); draws are consumed from a
    single sequential stream in fixed-size blocks. The log's error estimate
    is the delta-method se / P (nan when no draw was in order).
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
    log_value = math.log(p_hat) if p_hat > 0.0 else math.nan
    log_se = se / p_hat if p_hat > 0.0 else math.nan
    return OrderingProb(
        p_hat, log_value, "monte_carlo", se, log_se, degenerate=degenerate
    )


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


def grid_ordering_probability(cfg: MeanConfig, points: int) -> float:
    """Uniform-grid oracle: P by composite Simpson on ``points`` (odd) equally
    spaced nodes from min(mu) - R sigma to max(mu) + R sigma.

    It skips no gap and shares no code with the panel layout, so it checks
    the gap rule, which the halving error estimate cannot: both of its rules
    use the same layout. Linear space only; slow, for tests and checks.
    """
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be odd and at least 3")
    mu = np.asarray(cfg.mu, dtype=float)
    r = TRUNCATION_RADIUS * cfg.sigma
    t, dx = np.linspace(mu.min() - r, mu.max() + r, points, retstep=True)
    z = (t[None, :] - mu[:, None]) / cfg.sigma
    f = np.exp(-0.5 * z * z) * (INV_SQRT_2PI / cfg.sigma)
    below = np.ones_like(t)
    for k in range(cfg.p - 1, 0, -1):
        below = _cumulative_simpson(f[k] * below, dx)
    return float(_simpson(f[0] * below, dx))


def grad_log_ordering_probability(cfg: MeanConfig) -> np.ndarray:
    """Gradient of log P(X_1 > ... > X_p) with respect to the means.

    Analytic for p = 2 (inverse Mills ratio of the scaled mean gap). For
    p >= 3 it is the exact identity

        d log P / d mu_k = (E[X_k | order] - mu_k) / sigma^2,

    with the truncated mean taken from one "below t" and one "above t"
    sweep on the panels of ``ordering_probability`` (module docstring). When
    P underflows both sweeps run in log space, so the gradient stays finite.
    """
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        u = (mu[1] - mu[0]) / (cfg.sigma * SQRT_2)
        g = inverse_mills(u) / (cfg.sigma * SQRT_2)
        return np.array([g, -g])

    return _grid_recursion(mu, cfg.sigma, *_layout(mu, cfg.sigma), gradient=True)[2]

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

Every rule runs both sweeps, U being the H sweep on the reversed nodes with
the populations reversed: the k = 1 integrand gives P, all k the gradient.

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
ConvergenceFailure when a sweep would need more than MAX_NODES nodes first,
or when nodes sit so far from 0 (past about 2^40 sigma) that rounding moves
them by more than _EDGE_ULP_LIMIT of a panel, which the estimate misses.
Off the cone the mass can sit in the far tails, where one PANEL_WIDTH
panel spans many e-folds of the integrand: (0, 0, 20) needs two halvings.
The gradient takes the same loop off the cone. On the cone, the only place
the solver evaluates it, the first halving converges, so it takes the
unhalved rule with no error pass. Where P underflows, both sweeps run in
log space on panels LOG_SPACE_SPLIT times narrower, with a per-panel max
shift; on the cone P >= 1/p!, so the solver never takes that path.
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
_EDGE_ULP_LIMIT = 2.0**-13  # ulp of the outermost panel edge, in panel widths


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
    """Quadrature failed to meet tolerance; carries the best estimate found,
    if any (nan, with err_est inf, when none was computed)."""

    def __init__(self, message: str, value: float = math.nan, err_est: float = math.inf):
        super().__init__(message)
        self.value = value
        self.err_est = err_est

    # pickles every field, so a pool worker's error reaches the parent intact
    def __reduce__(self):
        return type(self), (str(self), self.value, self.err_est)


def inverse_mills(z):
    """Inverse Mills ratio g(z) = phi(z) / (1 - Phi(z)) of a scalar or array.

    erfcx keeps z >= 0 exact far into the right tail (g(z) ~ z + 1/z). For
    z < 0 the naive form is safe; z is clipped at -40, where phi underflows.
    """
    z = np.asarray(z, dtype=float)
    right = math.sqrt(2.0 / math.pi) / erfcx(np.maximum(z, 0.0) / SQRT_2)
    left_z = np.clip(z, -40.0, 0.0)
    left = INV_SQRT_2PI * np.exp(-0.5 * left_z * left_z) / ndtr(-left_z)
    return np.where(z >= 0, right, left)[()]  # a scalar for a scalar


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
            f"quadrature needs {panels * PANEL_NODES} nodes, over the cap of {MAX_NODES}"
        )


def _layout(mu: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
    """Left edges and width of the PANEL_WIDTH sigma panels (module
    docstring, Layout); raises ConvergenceFailure past _EDGE_ULP_LIMIT."""
    r = TRUNCATION_RADIUS * sigma
    width = PANEL_WIDTH * sigma
    s = np.sort(mu)
    lo, hi = [s[0] - r], []
    edge = max(-lo[0], s[-1] + r)  # nodes there round by up to its ulp
    if math.ulp(edge) > _EDGE_ULP_LIMIT * width:
        msg = f"panel edge {edge:.3g} is too far from 0 for panels {width:.3g} wide"
        raise ConvergenceFailure(msg)
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
    mu: np.ndarray, sigma: float, nodes: np.ndarray, width: float, log_space: bool
) -> np.ndarray:
    """Integrands f_k U_{k-1} H_{k+1} of P (module docstring), one row per
    population, or their logs.

    The "above t" recursion U is the "below t" one on the mirrored problem:
    nodes and population order both reversed, so one loop runs both sweeps.
    Row 0 is f_1 H_2 times U_0 = 1 exactly, the value sweep alone.
    """
    z = (nodes[None, :] - mu[:, None]) / sigma
    logpdf = -0.5 * z * z - math.log(sigma) + math.log(INV_SQRT_2PI)
    if log_space:
        f, unit, combine, cumulate = logpdf, 0.0, np.add, _cumulative_log
    else:
        f, unit, combine, cumulate = np.exp(logpdf), 1.0, np.multiply, _cumulative
    rows = np.stack((f, f[::-1, ::-1]))
    below = np.empty_like(rows)  # below[:, k] is H_{k+2}, 0-based k
    below[:, -1] = unit
    for k in range(rows.shape[1] - 1, 0, -1):
        below[:, k - 1] = cumulate(combine(rows[:, k], below[:, k]), width)
    return combine(combine(f, below[0]), below[1, ::-1, ::-1])


def _grid_recursion(
    mu: np.ndarray, sigma: float, edges: np.ndarray, width: float
) -> tuple[float, float, np.ndarray]:
    """(P, log P, gradient of log P) on the panels at ``edges``.

    P is the linear-space value; when it falls below the underflow floor,
    log P and the gradient come from log-space sweeps on the same stretches
    cut into panels LOG_SPACE_SPLIT times narrower.
    """
    nodes = _nodes(edges, width)
    w = _integrands(mu, sigma, nodes, width, log_space=False)
    mass = _integral(w, width)
    value = float(mass[0])
    log_shift = 0.0
    if value < _UNDERFLOW_FLOOR:
        edges, width = _refine(edges, width, LOG_SPACE_SPLIT)
        nodes = _nodes(edges, width)
        logw = _integrands(mu, sigma, nodes, width, log_space=True)
        shifts = logw.max(axis=-1, keepdims=True)
        w = np.exp(logw - shifts)
        mass = _integral(w, width)
        log_shift = float(shifts[0, 0])
    log_value = log_shift + math.log(mass[0])
    moment = _integral((nodes[None, :] - mu[:, None]) * w, width)
    return value, log_value, moment / (mass * sigma**2)


def _closed_form_p2(mu: np.ndarray, sigma: float) -> tuple[float, float, np.ndarray]:
    """(P, log P, gradient of log P) for two populations, in closed form."""
    u = (mu[1] - mu[0]) / (sigma * SQRT_2)
    g = inverse_mills(u) / (sigma * SQRT_2)
    return float(ndtr(-u)), float(log_ndtr(-u)), np.array([g, -g])


def _converged(mu: np.ndarray, sigma: float) -> tuple:
    """((P, log P, gradient), err, log_err) of ``_grid_recursion`` on the
    panels of ``_layout``, halved until log P_h and log P_{h/2} agree within
    QUADRATURE_RTOL: the coarser rule, |P_h - P_{h/2}| + eps P and
    |log P_h - log P_{h/2}| + eps. Raises ConvergenceFailure, with the last
    estimate, when the nodes would exceed MAX_NODES first."""
    eps = np.finfo(float).eps
    edges, width = _layout(mu, sigma)
    coarse = _grid_recursion(mu, sigma, edges, width)
    err = log_err = math.inf
    while True:
        try:
            edges, width = _refine(edges, width, 2)
            fine = _grid_recursion(mu, sigma, edges, width)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"quadrature error estimate {log_err:.3g} of log P exceeds "
                f"{QUADRATURE_RTOL:g} ({exc})",
                coarse[0],
                err,
            ) from None
        err = abs(coarse[0] - fine[0]) + eps * coarse[0]
        log_err = abs(coarse[1] - fine[1]) + eps
        if log_err <= QUADRATURE_RTOL:
            return coarse, err, log_err
        coarse = fine


def ordering_probability(cfg: MeanConfig) -> OrderingProb:
    """P(X_1 > X_2 > ... > X_p) for independent X_i ~ N(mu_i, sigma^2).

    Closed form for p = 2; panel quadrature (module docstring) otherwise,
    with the panels halved until the error estimate of log P is within
    QUADRATURE_RTOL. Raises ConvergenceFailure, with the last estimate, when
    the nodes would exceed MAX_NODES first, or sit too far from 0 (Accuracy).
    """
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        rule, err, log_err = _closed_form_p2(mu, cfg.sigma), 1e-16, 1e-16
    else:
        rule, err, log_err = _converged(mu, cfg.sigma)
    value, log_value, _ = rule
    if value < _UNDERFLOW_FLOOR:
        warnings.warn("ordering probability underflowed", UnderflowWarning)
    method = "closed_form_p2" if cfg.p == 2 else "quadrature"
    return OrderingProb(value, log_value, method, err, log_err)


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


def grad_log_ordering_probability(cfg: MeanConfig) -> np.ndarray:
    """Gradient of log P(X_1 > ... > X_p) with respect to the means.

    Analytic for p = 2 (inverse Mills ratio of the scaled mean gap). For
    p >= 3 it is the exact identity

        d log P / d mu_k = (E[X_k | order] - mu_k) / sigma^2,

    with the truncated mean taken from one "below t" and one "above t"
    sweep (module docstring), on the panels ``ordering_probability``
    converges on; on the cone, where the solver steps, those of ``_layout``
    with no error pass. When P underflows both sweeps run in log space, so
    the gradient stays finite.
    """
    mu = np.asarray(cfg.mu, dtype=float)
    if cfg.p == 2:
        return _closed_form_p2(mu, cfg.sigma)[2]
    if list(cfg.mu) != sorted(cfg.mu, reverse=True):  # off the cone
        return _converged(mu, cfg.sigma)[0][2]
    return _grid_recursion(mu, cfg.sigma, *_layout(mu, cfg.sigma))[2]

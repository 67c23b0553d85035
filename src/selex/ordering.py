"""Probability that independent normals come out in strictly decreasing order.

Both public functions cut the means into blocks (Blocks) and standardize
each about its midrange, nu = (mu - (max + min) / 2) / sigma; every private
function works at sigma = 1, so a common offset drops out before any node is
laid, and the gradient in mu is the one in nu over sigma. For p = 2, P has a
closed form in the tail of ``_erfcx``. For p >= 3 we evaluate
nested-conditioning recursions on shared quadrature nodes. With
f_k(t) = phi(t - nu_k), the "below t" recursion

    H_{p+1}(t) = 1,   H_k(t) = integral_{-inf}^{t} f_k(s) H_{k+1}(s) ds

is the probability that populations k..p all fall below t in strictly
decreasing order, and its mirror, the "above t" recursion

    U_0(t) = 1,       U_k(t) = integral_{t}^{inf} f_k(s) U_{k-1}(s) ds

is the probability that populations 1..k all lie above t in that order.
For every k,

    P = integral f_k(t) U_{k-1}(t) H_{k+1}(t) dt,

which generalizes the condition-on-the-middle identity for three
populations. Since d f_k / d nu_k = (t - nu_k) f_k, the same integrands
give the exact gradient

    d log P / d nu_k = integral (t - nu_k) f_k U_{k-1} H_{k+1} dt / P
                     = E[X_k | order] - nu_k.

Every rule runs both sweeps, U being the H sweep on the reversed nodes with
the populations reversed: the k = 1 integrand gives P, all k the gradient.
Differentiating once more gives the Hessian of log P, Cov(X | order) - I.
E[(X_k - nu_k)^2; order] integrates (t - nu_k)^2 against the same
integrands, and for j < k

    E[(X_j - nu_j)(X_k - nu_k); order]
        = integral (t - nu_k) f_k U^(j)_{k-1} H_{k+1} dt,

where U^(j) is the U sweep with f_j weighted by (s - nu_j). One linear-space
kernel, ``_sweep``, runs those p - 1 weighted sweeps for the solver's rule in
the same loop as the other two, which alone serve the checked quadrature.

Blocks. ``_blocks`` cuts the populations after j when every mean of 1..j
lies more than 2R above every mean of j+1..p (R = TRUNCATION_RADIUS). The
ordered sample leaves that gap empty, so P is the product of the two
sides' and the gradient of log P stacks theirs, as Genz (2004) factors
orthant probabilities. On the cone every gap wider than 2R is cut; off it,
for means (0, 0, 60), the ordered sample sits near t = 20, inside the gap,
which is not. Each block is standardized from the caller's means, so no
node lies further from 0 than R plus half a block's span, which MAX_NODES
caps. One mean has P = 1, and two, never cut, the exact closed form; more
lay one stretch [min - R, max + R] of equal panels PANEL_WIDTH wide with
PANEL_NODES Gauss-Legendre nodes each. The running integral is a spectral
integration matrix inside each panel (Greengard 1991) plus an exclusive
cumsum of the panel totals. The nodes are symmetric within panels, so
reversed they lay out the mirrored problem and one kernel runs both sweeps.

Windows. On the cone each row of a sweep runs only on its window: the
2R / width + 1 panels that hold nu_k +- R, whatever the panel width. The
order set is a lattice, so by the FKG inequality X_k given the order is
stochastically increasing in every mean. On the cone its upper tail is
thus at most that of the largest of p - k + 1 normals of mean nu_k and its
lower tail that of the smallest of k, each below p Phi(-R) past R, about
1e-14 at R = 8: the window drops no more than the layout's edges do. Below
the window a running integral of row k is 0, above it the row's total, and
between rows the integrals move to the next window by whole panels with
that fill. A sweep takes O(p^2) window-long steps and holds p (p + 1)
windows, whatever the spread. Off the cone, and on layouts no longer than
_BANDED_FROM, the window is the whole layout.

Accuracy. The rule's error falls as PANEL_WIDTH^(2 PANEL_NODES), so the
same rule on halved panels estimates it: ``ordering_probability`` halves
the panels until |log P_h - log P_{h/2}| is within QUADRATURE_RTOL, reports
that and |P_h - P_{h/2}| for the coarser rule, and raises
ConvergenceFailure when a sweep would need more than MAX_NODES nodes first,
as a block whose span overflows does at once. Off the cone the mass can
sit in the far tails, where one PANEL_WIDTH panel spans many e-folds of
the integrand: (0, 0, 20) needs two halvings. The public gradient takes
the same loop. Where P underflows, log P and the gradient come from both
sweeps in log space, on panels LOG_SPACE_SPLIT times narrower, with a
per-panel max shift.

The solver's rule. ``conditional_moments`` runs only on the cone, where
P >= 1/p!. At p = 3 and 4 it is exact. The order is the orthant {D > 0}
of the gaps D = J X, J with rows (e_i - e_{i+1}) / sqrt(2), normal with
unit variances and correlation RHO = -1/2 between neighbours, 0 otherwise.
Plackett's identity (Plackett 1954; Genz 2004) gives its probability and
derivatives at h = J nu as smooth integrals that fixed Gauss-Legendre
nodes take to rounding (the rule functions give the forms). That error is
absolute, so relative only on the cone, and the public functions keep the
checked quadrature at p = 3 and 4. For p >= 5 C is block-diagonal: blocks
of 3 and 4 take the exact rules, one mean (0, 0, 1), others one ``_sweep``
of the unhalved panels with no error pass: the first halving converges
there, and the solver stops on its own residual. Asked for no C, as for
the solver's last sweep, one such block runs the checked quadrature's two.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
# only the benchmark's tracer reads this; it goes with ROADMAP item 1
DEFAULT_GRID_POINTS = 2049
TRUNCATION_RADIUS = 8.0  # half-width of each mean's window
PANEL_WIDTH = 1.0
PANEL_NODES = 10  # Gauss-Legendre nodes per panel
LOG_SPACE_SPLIT = 8  # log-space sweeps run on panels this many times narrower
MAX_NODES = 2**16  # nodes of one sweep; more raise ConvergenceFailure
QUADRATURE_RTOL = 1e-6  # bound on the error estimate of log P
_UNDERFLOW_FLOOR = 1e-300
# the correlation of neighbouring gaps of the order, and sqrt(1 - RHO^2)
_RHO = -0.5
_RHO_S = math.sqrt(1.0 - _RHO**2)
_ORTHANT_NODES = 12  # Gauss-Legendre nodes of a Plackett integral
_BANDED_FROM = 24.0  # layouts at most this long run as one window


def _spectral_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], and the q x q matrix whose
    column i integrates the interpolant through the nodes from -1 to node i."""
    nodes, weights = legendre.leggauss(q)
    lagrange = np.linalg.inv(legendre.legvander(nodes, q - 1))  # column j: l_j
    running = legendre.legvander(nodes, q) @ legendre.legint(lagrange, lbnd=-1)
    return nodes, weights, np.ascontiguousarray(running.T)  # faster in products


_NODES, _WEIGHTS, _RUNNING = _spectral_rule(PANEL_NODES)


class UnderflowWarning(UserWarning):
    """The ordering probability underflowed; only log_value is reliable."""


class ConvergenceFailure(RuntimeError):
    """Quadrature failed to meet tolerance."""


# W. J. Cody's rational Chebyshev approximations (Math. Comp. 23, 1969) of exp(x^2) erfc(x) on
# his three ranges: the coefficients of each R(t), highest power first, the denominator's 1 dropped
_CODY_SMALL = (  # x <= 0.46875: exp(x^2) (1 - x R(x^2))
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03))
_CODY_MID = (  # x <= 4: R(x)
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03))
_CODY_LARGE = (  # x > 4: (1 / sqrt(pi) - R(1 / x^2) / x^2) / x
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))


def _rational(t: np.ndarray, coefficients: tuple) -> np.ndarray:
    """Cody's R(t) by Horner's rule in his order of operations, the numerator the real and the
    denominator the imaginary part of one complex array: t is real, so the parts never mix,
    and every step is elementwise, so no entry's value depends on another's."""
    num, den = coefficients
    t = t.astype(complex)
    acc = complex(num[0], 1.0) * t
    for c, d in zip(num[1:-1], den[:-1]):
        acc += complex(c, d)
        acc *= t
    acc += complex(num[-1], den[-1])
    return acc.real / acc.imag


def _erfcx(x: np.ndarray) -> np.ndarray:
    """erfcx of a 1-d array x >= 0 to about 1e-15, exactly 0 at +inf: the middle
    range runs on every entry (nan stays nan), the other two on their own."""
    out = _rational(np.minimum(x, 4.0), _CODY_MID)
    small, large = x <= 0.46875, x > 4.0
    if small.any():
        y = x[small]
        out[small] = np.exp(y * y) * (1.0 - y * _rational(y * y, _CODY_SMALL))
    if large.any():
        y = x[large]
        t = np.square(1.0 / y)  # 0 past 1e154, where y * y would overflow
        out[large] = (1.0 / math.sqrt(math.pi) - t * _rational(t, _CODY_LARGE)) / y
    return out


def inverse_mills(z):
    """Inverse Mills ratio g(z) = phi(z) / (1 - Phi(z)) of a scalar or array, both
    tails from one ``_erfcx`` at w = |z| / sqrt(2): for z >= 0, g = sqrt(2 / pi) / erfcx(w),
    exact far into the right tail (g(z) ~ z + 1/z) and inf at +inf; for z < 0,
    g = phi(z) / (1 - erfcx(w) e^(-w^2) / 2)."""
    z = np.asarray(z, dtype=float)
    e = _erfcx(np.abs(z.ravel()) / SQRT_2).reshape(z.shape)
    with np.errstate(over="ignore", divide="ignore"):  # z^2 past 1e308, 1 / erfcx(inf)
        q = np.exp(-0.5 * z * z)  # phi(z) sqrt(2 pi)
        right = math.sqrt(2.0 / math.pi) / e
    left = q / (math.sqrt(2.0 * math.pi) - math.sqrt(0.5 * math.pi) * e * q)
    return np.where(z >= 0, right, left)[()]  # a scalar for a scalar


def _integer(value, name: str, least: int) -> int:
    """An integer input, at least ``least``: a Python or numpy int, no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _real(value, name: str, positive: bool = True) -> float:
    """A real input as a float, unless told otherwise positive and finite: a Python or
    numpy real, no bool. An int past the float range reads as an infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if positive and not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")
    return value


def _reals(values, name: str) -> np.ndarray:
    """At least two finite reals as a 1-d float array: a float or integer array as it is,
    else a sequence of reals each checked by ``_real``, so no bool and no string."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        if isinstance(values, str) or not hasattr(values, "__iter__"):
            raise ValueError(f"{name} must be a list of numbers, not {values!r}")
        values = [_real(v, name, positive=False) for v in values]
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-d list of at least 2 numbers")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


@dataclass(frozen=True)
class MeanConfig:
    """Population means plus the common standard deviation of one observation."""

    mu: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(_reals(self.mu, "means").tolist()))
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))

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


def _check_size(panels) -> None:
    if not panels * PANEL_NODES <= MAX_NODES:  # nan too
        raise ConvergenceFailure(
            f"quadrature needs {panels * PANEL_NODES:.0f} nodes, over the cap of {MAX_NODES}"
        )


def _blocks(mu: np.ndarray, sigma: float = 1.0) -> list[slice]:
    """The populations cut into blocks, as slices in order (module docstring, Blocks)."""
    v, gap = mu.tolist(), 2.0 * TRUNCATION_RADIUS * sigma
    # a cut needs its two neighbours that far apart, which rules out most gaps at once
    cuts = [j for j in range(1, len(v)) if len(v) > 2
            and v[j - 1] - v[j] > gap and min(v[:j]) - max(v[j:]) > gap]
    return [slice(a, b) for a, b in zip([0] + cuts, cuts + [len(v)])]


def _centred(mu: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """The means standardized about their midrange; only the division by sigma can overflow."""
    return (mu - (0.5 * mu.max() + 0.5 * mu.min())) / sigma


def _layout(mu: np.ndarray) -> tuple[np.ndarray, float]:
    """Left edges and width of the panels that tile [min - R, max + R] (Blocks)."""
    lo, width = float(mu.min()) - TRUNCATION_RADIUS, PANEL_WIDTH
    # the tolerance keeps a whole number of panels from rounding up to one more
    count = np.ceil((float(mu.max()) + TRUNCATION_RADIUS - lo) / width - 1e-9)
    _check_size(count)
    return lo + width * np.arange(count), width


def _refine(edges: np.ndarray, width: float, split: int) -> tuple[np.ndarray, float]:
    """The same stretch tiled with panels ``split`` times narrower."""
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


def _cumulative(
    y: np.ndarray, weights: np.ndarray, running: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Running integral of y, shaped (..., panels, PANEL_NODES), from the first
    panel's edge, and its value at the end of each panel; ``weights`` and
    ``running`` are _WEIGHTS and _RUNNING times half the panel width."""
    totals = y @ weights
    through = np.add.accumulate(totals, axis=-1)  # less overhead than cumsum
    return y @ running + (through - totals)[..., None], through


def _cumulative_log(logy: np.ndarray, width: float) -> np.ndarray:
    """Log of the running integral of exp(logy), shifted by each panel's max."""
    logy = logy.reshape(logy.shape[:-1] + (-1, PANEL_NODES))
    shift = logy.max(axis=-1, keepdims=True)
    panels = np.exp(logy - shift) * (0.5 * width)
    # a steep panel's interpolant can integrate to <= 0 near its left edge
    with np.errstate(divide="ignore"):
        within = np.log(np.maximum(panels @ _RUNNING, 0.0)) + shift
    totals = np.log(panels @ _WEIGHTS) + shift[..., 0]
    running = np.logaddexp.accumulate(totals, axis=-1)
    before = np.full_like(running, -np.inf)
    before[..., 1:] = running[..., :-1]
    return np.logaddexp(within, before[..., None]).reshape(logy.shape[:-2] + (-1,))


def _sweep(mu: np.ndarray, edges: np.ndarray, width: float, covariance: bool) -> np.ndarray:
    """The moments of one linear-space sweep on the panels at ``edges``, on the cone
    each row on its window (module docstring). Entry [k, s, r] integrates (t - mu_k)^r
    f_k H_{k+1} times U_{k-1} for s = 0 and, with ``covariance``, U^(j)_{k-1} for
    s = 1 + j (0 for j >= k); [k, 0, 0] is P."""
    p, band, first = mu.size, edges.size, np.zeros(mu.size, dtype=int)
    # off the cone the windows do not hold, and on short layouts the moves
    # cost more than they save: there the window is the whole layout
    if band * width > _BANDED_FROM and np.all(mu[:-1] >= mu[1:]):
        band = int(2.0 * TRUNCATION_RADIUS / width) + 1  # from the panel that holds mu_k - R
        first = np.searchsorted(edges, mu - TRUNCATION_RADIUS, "right") - 1
        first = np.minimum(first, edges.size - band)
    up = np.minimum(first[:-1] - first[1:], band).tolist()  # up[k - 1]: k to k - 1
    d = _nodes(edges[first[:, None] + np.arange(band)].ravel(), width)
    d = d.reshape(p, band, PANEL_NODES) - mu[:, None, None]
    f = np.exp(-0.5 * np.square(d) + math.log(INV_SQRT_2PI))
    mirrored, dm = f[::-1, ::-1, ::-1].copy(), d[::-1, ::-1, ::-1].copy()  # contiguous
    weights, running = _WEIGHTS * (0.5 * width), _RUNNING * (0.5 * width)
    # below[k] is H_{k+2} (0-based k) of the value sweep on window k + 1, and of
    # U, then U^(j) (0 before it joins), on mirrored window p - 2 - k
    below = np.zeros((p, p + 1 if covariance else 2, band, PANEL_NODES))
    below[-1, :2] = 1.0
    for k in range(p - 1, 0, -1):
        n = p + 2 - k if covariance else 2  # mirrored row k is f_j, j = p - 1 - k
        rows = below[k, :n] * mirrored[k]
        np.multiply(below[k, 0], f[k], out=rows[0])
        if covariance:  # U^(j) joins
            np.multiply(rows[1], dm[k], out=rows[-1])
        inside, through = _cumulative(rows, weights, running)
        a, b, nxt = up[k - 1], up[p - 1 - k], below[k - 1]
        if a == b == 0:
            nxt[:n] = inside
            continue
        nxt[0, : band - a], nxt[0, band - a :] = inside[0, a:], through[0, -1]
        nxt[1:n, : band - b] = inside[1:, b:]
        nxt[1:n, band - b :] = through[1:, -1, None, None]
    # (t - mu_k)^r f_k H_{k+1} with the quadrature weights, r = 0, 1, 2, on
    # the mirrored window, meets U_{k-1} and the U^(j)_{k-1} at mirrored row
    # p - 1 - k: one matrix product per row
    powers = np.empty((p, band, PANEL_NODES, 3))
    powers[..., 0] = (f * below[:, 0] * weights)[::-1, ::-1, ::-1]
    np.multiply(dm, powers[..., 0], out=powers[..., 1])
    np.multiply(dm, powers[..., 1], out=powers[..., 2])
    return (below[:, 1:].reshape(p, len(below[0]) - 1, -1) @ powers.reshape(p, -1, 3))[::-1]


def _integrands(mu: np.ndarray, nodes: np.ndarray, width: float) -> np.ndarray:
    """Logs of the integrands f_k U_{k-1} H_{k+1} of P (module docstring), one
    row per population, from both sweeps in log space.

    The "above t" recursion U is the "below t" one on the mirrored problem:
    nodes and population order both reversed, so one loop runs both sweeps.
    Row 0 is f_1 H_2 times U_0 = 1 exactly, the value sweep alone.
    """
    f = -0.5 * np.square(nodes[None, :] - mu[:, None]) + math.log(INV_SQRT_2PI)
    p, m = f.shape
    mirrored = f[::-1, ::-1]
    # below[k] is log H_{k+2} (0-based k) of the value sweep and of the mirrored one
    below = np.zeros((p, 2, m))
    for k in range(p - 1, 0, -1):
        rows = below[k] + mirrored[k]
        np.add(below[k, 0], f[k], out=rows[0])
        below[k - 1] = _cumulative_log(rows, width)
    return f + below[:, 0] + below[::-1, 1, ::-1]


def _grid_recursion(
    mu: np.ndarray, edges: np.ndarray, width: float
) -> tuple[float, float, np.ndarray]:
    """(P, log P, gradient of log P) on the panels at ``edges``: row s = 0 of
    ``_sweep``, or where P underflows, log-space sweeps (module docstring)."""
    moments = _sweep(mu, edges, width, covariance=False)[:, 0]
    value = float(moments[0, 0])
    if value >= _UNDERFLOW_FLOOR:
        return value, math.log(value), moments[:, 1] / moments[:, 0]
    edges, width = _refine(edges, width, LOG_SPACE_SPLIT)
    nodes = _nodes(edges, width)
    logw = _integrands(mu, nodes, width)
    shifts = logw.max(axis=-1, keepdims=True)
    w = np.exp(logw - shifts)
    mass = _integral(w, width)
    moment = _integral((nodes[None, :] - mu[:, None]) * w, width)
    log_value = float(shifts[0, 0]) + math.log(mass[0])
    return math.exp(log_value), log_value, moment / mass


def _plackett_rule(rho: float) -> list[tuple[float, float, float]]:
    """(sin theta, 1 / (2 cos^2 theta), weight / (2 pi)) at _ORTHANT_NODES
    Gauss-Legendre nodes on [asin rho, 0], for the integral of Plackett's
    identity (``_bivariate_cdf``; the nodes as in Genz 2004)."""
    x, w = legendre.leggauss(_ORTHANT_NODES)
    half = 0.5 * math.asin(rho)  # the half-length of the interval, negated
    theta = half * (1.0 - x)
    weight = w * (-half / (2.0 * math.pi))
    terms = (np.sin(theta), 0.5 / np.cos(theta) ** 2, weight)
    return list(zip(*(t.tolist() for t in terms)))


_PLACKETT = _plackett_rule(_RHO)
# p = 4: the correlation of the other two gaps given the first or last, and
# given the middle one
_PLACKETT_OUTER = _plackett_rule(-1.0 / math.sqrt(3.0))
_PLACKETT_INNER = _plackett_rule(-1.0 / 3.0)


def _normal_pdf(x: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT_2)


def _bivariate_cdf(h: float, k: float, rule: list) -> float:
    """Phi_2(h, k; rho) for rho <= 0 on the nodes of ``_plackett_rule``, by
    Plackett's identity: Phi(h) Phi(k) - (1/2pi) integral_{asin rho}^{0}
    exp(-(h^2 + k^2 - 2hk sin t) / (2 cos^2 t)) dt."""
    squares, product = h * h + k * k, 2.0 * h * k
    return _normal_cdf(h) * _normal_cdf(k) - sum(
        w * math.exp((product * s - squares) * c) for s, c, w in rule
    )


def _orthant_moments(mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``conditional_moments`` at p = 3, in closed form from the bivariate
    normal orthant of the gaps (module docstring, The solver's rule)."""
    m1, m2, m3 = mu.tolist()
    h, k = (m1 - m2) / SQRT_2, (m2 - m3) / SQRT_2
    value = _bivariate_cdf(h, k, _PLACKETT)
    # dP/dh = phi(h) Phi(u_h), u_h = (k - RHO h) / sqrt(1 - RHO^2), and the
    # same with h and k swapped; d2P/dh dk is the density phi_2(h, k; RHO),
    # and d2P/dh2 = -h dP/dh - RHO phi_2
    uh, uk = (k - _RHO * h) / _RHO_S, (h - _RHO * k) / _RHO_S
    gh = _normal_pdf(h) * _normal_cdf(uh) / value
    gk = _normal_pdf(k) * _normal_cdf(uk) / value
    density = _normal_pdf(h) * _normal_pdf(uh) / (_RHO_S * value)
    hhh = -h * gh - _RHO * density - gh * gh  # H = Hessian of log P in (h, k)
    hkk = -k * gk - _RHO * density - gk * gk
    hhk = density - gh * gk
    # J^T (gh, gk) and I + J^T H J, J = [[1, -1, 0], [0, 1, -1]] / sqrt(2)
    grad = np.array([gh / SQRT_2, (gk - gh) / SQRT_2, -gk / SQRT_2])
    c11, c22, c33 = 0.5 * (2.0 + hhh), 0.5 * (2.0 + hhh - 2.0 * hhk + hkk), 0.5 * (2.0 + hkk)
    c12, c13, c23 = 0.5 * (hhk - hhh), 0.5 * -hhk, 0.5 * (hhk - hkk)
    cov = np.array([c11, c12, c13, c12, c22, c23, c13, c23, c33])
    return math.log(value), grad, cov.reshape(3, 3)


def _trivariate_moments(mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``conditional_moments`` at p = 4, in closed form from the trivariate
    normal orthant of the gaps (module docstring, The solver's rule)."""
    m1, m2, m3, m4 = mu.tolist()
    h1, h2, h3 = (m1 - m2) / SQRT_2, (m2 - m3) / SQRT_2, (m3 - m4) / SQRT_2
    # Plackett's identity moves rho_12 from 0 (D_1 independent of D_2, D_3)
    # to RHO: P = Phi(h1) Phi_2(h2, h3) minus the p = 3 integral in (h1, h2)
    # with Phi of D_3 given D_1 = h1, D_2 = h2 at rho_12 = sin t in each node:
    # its mean is -(h2 - h1 sin t) c, its variance 1 - c / 2, c = 1 / (2 cos^2 t)
    squares, product = h1 * h1 + h2 * h2, 2.0 * h1 * h2
    value = _normal_cdf(h1) * _bivariate_cdf(h2, h3, _PLACKETT) - sum(
        w
        * math.exp((product * s - squares) * c)
        * _normal_cdf((h3 + (h2 - h1 * s) * c) / math.sqrt(1.0 - 0.5 * c))
        for s, c, w in _PLACKETT
    )
    # dP/dh_i = phi(h_i) Phi_2 of the other two gaps given D_i = h_i, each
    # (h_j - RHO h_i) / sqrt(1 - RHO^2) for a neighbour j
    f1, f2, f3 = _normal_pdf(h1), _normal_pdf(h2), _normal_pdf(h3)
    u1, u3 = (h2 - _RHO * h1) / _RHO_S, (h2 - _RHO * h3) / _RHO_S
    v1, v3 = (h1 - _RHO * h2) / _RHO_S, (h3 - _RHO * h2) / _RHO_S
    d1 = f1 * _bivariate_cdf(u1, h3, _PLACKETT_OUTER)
    d2 = f2 * _bivariate_cdf(v1, v3, _PLACKETT_INNER)
    d3 = f3 * _bivariate_cdf(h1, u3, _PLACKETT_OUTER)
    # d2P/dh_i dh_j = phi_2(h_i, h_j) Phi of the third gap given both:
    # D_3 given D_1 and D_2 has mean -(h1 + 2 h2) / 3 and variance 2/3, D_1
    # given D_2 and D_3 the same with h1 and h3 swapped, and D_2 given D_1
    # and D_3 mean -(h1 + h3) / 2 and variance 1/2
    outer = math.sqrt(1.5)
    d12 = f1 * _normal_pdf(u1) / _RHO_S * _normal_cdf((h3 + (h1 + 2.0 * h2) / 3.0) * outer)
    d23 = f3 * _normal_pdf(u3) / _RHO_S * _normal_cdf((h1 + (h3 + 2.0 * h2) / 3.0) * outer)
    d13 = f1 * f3 * _normal_cdf((h2 + 0.5 * (h1 + h3)) * SQRT_2)
    # Q = Hessian of log P in the gaps, from
    # d2P/dh_i^2 = -h_i dP/dh_i - sum_j rho_ij d2P/dh_i dh_j
    g1, g2, g3 = d1 / value, d2 / value, d3 / value
    q11 = (-h1 * d1 - _RHO * d12) / value - g1 * g1
    q22 = (-h2 * d2 - _RHO * (d12 + d23)) / value - g2 * g2
    q33 = (-h3 * d3 - _RHO * d23) / value - g3 * g3
    q12, q13, q23 = d12 / value - g1 * g2, d13 / value - g1 * g3, d23 / value - g2 * g3
    # J^T g and I + J^T Q J, J the 3 x 4 matrix of the gaps
    grad = np.array([g1 / SQRT_2, (g2 - g1) / SQRT_2, (g3 - g2) / SQRT_2, -g3 / SQRT_2])
    c11, c22 = 0.5 * (2.0 + q11), 0.5 * (2.0 + q11 - 2.0 * q12 + q22)
    c33, c44 = 0.5 * (2.0 + q22 - 2.0 * q23 + q33), 0.5 * (2.0 + q33)
    c12, c13, c14 = 0.5 * (q12 - q11), 0.5 * (q13 - q12), 0.5 * -q13
    c23, c24, c34 = 0.5 * (q12 - q13 - q22 + q23), 0.5 * (q13 - q23), 0.5 * (q23 - q33)
    cov = np.array([c11, c12, c13, c14, c12, c22, c23, c24, c13, c23, c33, c34, c14, c24, c34, c44])
    return math.log(value), grad, cov.reshape(4, 4)


def _panel_moments(mu: np.ndarray, covariance: bool = True) -> tuple:
    """``conditional_moments`` from one ``_sweep`` of the panels of
    ``_layout``, with no error pass: each row's moments are divided by the
    P that the row integrates to, and give the gradient and the covariance,
    or None without ``covariance``, as the checked quadrature sweeps."""
    moments = _sweep(mu, *_layout(mu), covariance)
    mass = moments[:, 0, 0].copy()
    if not mass[0] > 0.0:  # NaN too: 1-sigma panels lose P in large clustered blocks
        raise ConvergenceFailure(f"the solver's rule lost P (got {mass[0]:.3g}) at p = {mu.size}")
    moments /= mass[:, None, None]
    if not covariance:
        return math.log(mass[0]), moments[:, 0, 1], None
    grad, cov = moments[:, 0, 1], np.zeros((mu.size, mu.size))
    cov[:-1] = moments[:, 1:, 1].T  # E[(X_j - mu_j)(X_k - mu_k) | order], j < k
    cov += cov.T + np.diag(moments[:, 0, 2]) - np.outer(grad, grad)
    return math.log(mass[0]), grad, cov


def conditional_moments(mu: np.ndarray, covariance: bool = True) -> tuple:
    """(log P, gradient of log P, Cov(X | order)) at sigma = 1, for means on
    the cone: the solver's rule (module docstring), exact at p = 3 and 4 and
    for p >= 5 the blocks' rules stacked, C block-diagonal. One panel block
    without ``covariance`` gives None for C; the others give C regardless."""
    if mu.size in (3, 4):
        return _orthant_moments(mu) if mu.size == 3 else _trivariate_moments(mu)
    blocks = _blocks(mu)
    if len(blocks) == 1:
        return _panel_moments(mu, covariance)
    log_p, grad, cov = 0.0, np.zeros(mu.size), np.eye(mu.size)
    for b in blocks:
        if b.stop - b.start > 1:  # a single mean keeps (0, 0, 1)
            nu = _centred(mu[b])
            rule = {3: _orthant_moments, 4: _trivariate_moments}.get(nu.size, _panel_moments)
            log_b, grad[b], cov[b, b] = rule(nu)
            log_p += log_b
    return log_p, grad, cov


def _closed_form_p2(mu: np.ndarray) -> tuple:
    """((P, log P, gradient of log P), err, log_err) for two populations, as ``_converged``
    gives them, in closed form: P = Phi(-u) = erfc(w) / 2 at w = u / sqrt(2), its smaller
    tail erfcx(|w|) e^(-w^2) / 2 from ``_erfcx``, and err 1e-16 P."""
    m1, m2 = mu.tolist()  # as Python floats, u overflows to -inf (P = 1) silently
    u = m2 / SQRT_2 - m1 / SQRT_2
    w, g = u * math.sqrt(0.5), inverse_mills(u) / SQRT_2
    half = 0.5 * float(_erfcx(np.array([abs(w)]))[0])  # 0 at |w| = inf
    tail = half * math.exp(-w * w)
    if w <= 0.0:
        return (1.0 - tail, math.log1p(-tail), np.array([g, -g])), 1e-16 * (1.0 - tail), 1e-16
    log_value = math.log(half) - w * w if half > 0.0 else -math.inf
    return (tail, log_value, np.array([g, -g])), 1e-16 * tail, 1e-16


def _converged(mu: np.ndarray) -> tuple:
    """((P, log P, gradient), err, log_err) of ``_grid_recursion`` on the
    panels of ``_layout``, halved until log P_h and log P_{h/2} agree within
    QUADRATURE_RTOL: the coarser rule, |P_h - P_{h/2}| + eps P and
    |log P_h - log P_{h/2}| + eps. Raises ConvergenceFailure, naming the last
    error estimate, when the nodes would exceed MAX_NODES first."""
    eps = math.ulp(1.0)  # a float, as the fields of OrderingProb are
    edges, width = _layout(mu)
    coarse = _grid_recursion(mu, edges, width)
    log_err = math.inf
    while True:
        try:
            edges, width = _refine(edges, width, 2)
            fine = _grid_recursion(mu, edges, width)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"quadrature error estimate {log_err:.3g} of log P exceeds "
                f"{QUADRATURE_RTOL:g} ({exc})"
            ) from None
        err = abs(coarse[0] - fine[0]) + eps * coarse[0]
        log_err = abs(coarse[1] - fine[1]) + eps
        if log_err <= QUADRATURE_RTOL:
            return coarse, err, log_err
        coarse = fine


def _checked(cfg: MeanConfig) -> tuple:
    """((P, log P, gradient of log P in nu), err, log_err, method) from the blocks (module
    docstring): exactly (1, 0, 0) for one mean, the closed form for two,
    ``_converged`` for more; P and err by the product rule, the logs summed. The method
    is quadrature if any block took it."""
    mu = np.asarray(cfg.mu, dtype=float)
    value, log_value, err, log_err, grad = 1.0, 0.0, 0.0, 0.0, np.zeros(cfg.p)
    method = "closed_form_p2"
    for b in _blocks(mu, cfg.sigma):
        if b.stop - b.start == 1:
            continue  # P = 1 exactly, and the gradient 0
        with np.errstate(over="ignore"):  # a pair takes nu = inf; more means fail the node cap
            nu = _centred(mu[b], cfg.sigma)
        if nu.size == 2:
            rule, e, log_e = _closed_form_p2(nu)
        else:
            (rule, e, log_e), method = _converged(nu), "quadrature"
        err, value = err * rule[0] + value * e, value * rule[0]
        log_value, log_err = log_value + rule[1], log_err + log_e
        grad[b] = rule[2]
    return (value, log_value, grad), err, log_err, method


def ordering_probability(cfg: MeanConfig) -> OrderingProb:
    """P(X_1 > X_2 > ... > X_p) for independent X_i ~ N(mu_i, sigma^2): over the blocks
    (module docstring), the product of the closed form for two means and of panel
    quadrature, halved until the error estimate of log P is within QUADRATURE_RTOL, for
    more. Raises ConvergenceFailure past MAX_NODES."""
    (value, log_value, _), err, log_err, method = _checked(cfg)
    if value < _UNDERFLOW_FLOOR:
        warnings.warn("ordering probability underflowed", UnderflowWarning)
    return OrderingProb(value, log_value, method, err, log_err)


def mc_ordering_probability(cfg: MeanConfig, n_draws: int, seed: int) -> OrderingProb:
    """Monte Carlo oracle: fraction of iid N(mu, sigma^2 I) draws in strict order.

    Deterministic for a given (cfg, n_draws, seed); draws are consumed from a
    single sequential stream in fixed-size blocks. The log's error estimate
    is the delta-method se / P (nan when no draw was in order).
    """
    n_draws = _integer(n_draws, "n_draws", 10_000)
    seed = _integer(seed, "seed", 0)
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
    """Gradient of log P(X_1 > ... > X_p) in the means, (E[X | order] - mu) /
    sigma^2, from the rules ``ordering_probability`` converges on: the
    inverse Mills ratio for two means, both sweeps for more (module docstring)."""
    return _checked(cfg)[0][2] / cfg.sigma

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from selex import ordering
from selex.ordering import (
    INV_SQRT_2PI,
    PANEL_NODES,
    PANEL_WIDTH,
    TRUNCATION_RADIUS,
    ConvergenceFailure,
    MeanConfig,
    UnderflowWarning,
    _RUNNING,
    _WEIGHTS,
    _blocks,
    _closed_form_p2,
    _converged,
    _cumulative,
    _integral,
    _grid_recursion,
    _layout,
    _nodes,
    _orthant_moments,
    _panel_moments,
    _refine,
    _trivariate_moments,
    conditional_moments,
    grad_log_ordering_probability,
    inverse_mills,
    mc_ordering_probability,
    ordering_probability,
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


def standardized(cfg: MeanConfig) -> np.ndarray:
    """The means in sigma units about their midrange, as the public functions
    take them."""
    mu = np.asarray(cfg.mu, dtype=float)
    return (mu - (0.5 * mu.max() + 0.5 * mu.min())) / cfg.sigma


def fd_grad(cfg: MeanConfig) -> np.ndarray:
    """Reference gradient: central differences of log P at the standardized
    means, step 1e-5, divided by sigma.

    All 2p perturbed mean vectors share the panels of the unperturbed ones,
    so the differences see no change of discretization.
    """
    nu, h = standardized(cfg), 1e-5
    panels = _layout(nu)
    out = np.empty(cfg.p)
    for i in range(cfg.p):
        step = np.zeros(cfg.p)
        step[i] = h
        up = _grid_recursion(nu + step, *panels)[1]
        dn = _grid_recursion(nu - step, *panels)[1]
        out[i] = (up - dn) / (2.0 * h)
    return out / cfg.sigma


def running_integral(y: np.ndarray, width: float) -> np.ndarray:
    """``_cumulative`` of y, flat along panels ``width`` wide, as the sweep
    calls it."""
    panels = y.reshape(-1, PANEL_NODES)
    scaled = _WEIGHTS * (0.5 * width), _RUNNING * (0.5 * width)
    return _cumulative(panels, *scaled)[0].ravel()


def wide_means(name: str) -> np.ndarray:
    """Standardized means wider than one window of the solver's rule. On the
    cone: "spread20", p = 20 with gaps of 3-6 sigma; "ladder30", -15 sigma
    (0..29), every gap just short of a cut (2R = 16 sigma); "pairs30", the
    same with pairs 0.5 sigma apart, whose windows move by 15 of their 17
    panels at the wide gaps. Off it: "off5", (2, 1, 0, -1, 12)."""
    steps = np.arange(30.0)
    if name == "spread20":
        x = -np.cumsum(np.random.default_rng(20).uniform(3.0, 6.0, 20))
    elif name == "ladder30":
        x = -15.0 * steps
    elif name == "pairs30":
        x = -15.0 * (steps // 2) - 0.5 * (steps % 2)
    else:
        x = np.array([2.0, 1.0, 0.0, -1.0, 12.0])
    return x - x.mean()


def random_means(rng, p: int, on_cone: bool) -> MeanConfig:
    """Means about 1.5 sigma apart, sigma log-uniform on [0.1, 10], shift in +-100."""
    sigma = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    mu = sigma * rng.normal(0.0, 1.5, p)
    if on_cone:
        mu = np.sort(mu)[::-1]
    return MeanConfig(tuple(mu + rng.uniform(-100.0, 100.0)), sigma)


class TestMeanConfig:
    def test_valid(self):
        cfg = MeanConfig((1.0, 0.0), 2.0)
        assert cfg.p == 2

    @pytest.mark.parametrize(
        "mu,sigma",
        [((1.0,), 1.0), ((1.0, math.nan), 1.0), ((1.0, 0.0), 0.0), ((1.0, 0.0), -1.0),
         # a bool or a string is no number, as mean or as sigma
         ((True, False), 1.0), (("1", "0"), 1.0), ((1.0, 0.0), True), ((1.0, 0.0), "1"),
         # an int past the float range is not finite
         ((10**400, 0.0), 1.0), pytest.param((1.0, 0.0), 10**400, id="sigma-past-float")],
    )
    def test_invalid(self, mu, sigma):
        with pytest.raises(ValueError):
            MeanConfig(mu, sigma)


class TestOrderingProbability:
    @pytest.mark.parametrize("mu,mc", [((1.0, 0.0), False), ((1.0, 0.3, 0.0), False),
                                       ((1.0, 0.3, 0.0), True)], ids=["p2", "p3", "monte-carlo"])
    def test_fields_are_floats(self, mu, mc):
        cfg = MeanConfig(mu, 1.0)
        prob = mc_ordering_probability(cfg, 10**4, seed=0) if mc else ordering_probability(cfg)
        for name in ("value", "log_value", "err_est", "log_err_est"):
            assert type(getattr(prob, name)) is float, name

    def test_two_equal_means(self):
        prob = ordering_probability(MeanConfig((0.0, 0.0), 1.0))
        assert prob.value == 0.5
        assert prob.method == "closed_form_p2"

    def test_p2_closed_form(self):
        prob = ordering_probability(MeanConfig((1.0, 0.0), 1.0))
        assert prob.value == pytest.approx(0.7602499389065233, abs=1e-9)

    def test_three_exchangeable(self):
        prob = ordering_probability(MeanConfig((0.0, 0.0, 0.0), 1.0))
        assert prob.value == pytest.approx(1.0 / 6.0, abs=1e-8)
        assert prob.method == "quadrature"

    @pytest.mark.parametrize(
        "mu", [(1e17, 0.0, -1e17), (40.0, 39.5, 0.0, -0.3, -40.0)], ids=["singles", "pairs"]
    )
    def test_method_names_what_ran(self, mu):
        # every block is a single mean or a pair, so no quadrature runs
        assert ordering_probability(MeanConfig(mu, 1.0)).method == "closed_form_p2"
        assert ordering_probability(MeanConfig((2.0, 1.0, 0.0), 1.0)).method == "quadrature"

    def test_four_exchangeable(self):
        prob = ordering_probability(MeanConfig((0.0, 0.0, 0.0, 0.0), 1.0))
        assert prob.value == pytest.approx(1.0 / 24.0, abs=1e-8)

    def test_log_value_consistent(self):
        prob = ordering_probability(MeanConfig((2.0, 1.0, 0.0), 1.0))
        assert prob.log_value == pytest.approx(math.log(prob.value), abs=1e-12)

    def test_against_mc_oracle(self):
        cfg = MeanConfig((2.0, 1.0, 0.0), 1.0)
        quad = ordering_probability(cfg)
        mc = mc_ordering_probability(cfg, 10**6, seed=20240817)
        assert abs(quad.value - mc.value) <= 3.0 * mc.err_est

    def test_permutation_completeness(self):
        rng = np.random.default_rng(5)
        for p in (2, 3, 4):
            mu = rng.normal(0, 1.2, p)
            total = sum(
                ordering_probability(MeanConfig(tuple(mu[list(perm)]), 1.0)).value
                for perm in itertools.permutations(range(p))
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        mu = (1.3, 0.4, -0.2)
        base = ordering_probability(MeanConfig(mu, 1.0)).value
        for _ in range(3):
            c = rng.normal(0, 5)
            shifted = ordering_probability(
                MeanConfig(tuple(m + c for m in mu), 1.0)
            ).value
            assert shifted == pytest.approx(base, abs=1e-10)

    def test_scale_coupling(self):
        mu = (1.1, 0.0, -0.7)
        base = ordering_probability(MeanConfig(mu, 0.8)).value
        for a in (0.5, 2.0, 7.0):
            scaled = ordering_probability(
                MeanConfig(tuple(a * m for m in mu), a * 0.8)
            ).value
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_monotone_in_leading_mean(self):
        values = [
            ordering_probability(MeanConfig((m1, 0.5, 0.0), 1.0)).value
            for m1 in np.linspace(-2, 4, 13)
        ]
        assert np.all(np.diff(values) >= -1e-10)

    def test_underflow_warns_and_keeps_log(self):
        with pytest.warns(UnderflowWarning):
            prob = ordering_probability(MeanConfig((-40.0, 0.0, 40.0), 1.0))
        assert prob.value == 0.0
        assert math.isfinite(prob.log_value) and prob.log_value < -500

    @pytest.mark.parametrize(
        "mu,log_p",
        [((-40.0, 0.0, 40.0), -1609.765982), ((0.0, 0.0, 60.0), -1209.074285)],
    )
    def test_underflow_log_value_matches_mpmath(self, mu, log_p):
        # references: mpmath at 40 digits of log integral phi(s - mu_2)
        # Phi(mu_1 - s) Phi(s - mu_3) ds; the ordered sample of (0, 0, 60)
        # sits near t = 20, between the windows
        with pytest.warns(UnderflowWarning):
            prob = ordering_probability(MeanConfig(mu, 1.0))
        assert prob.log_value == pytest.approx(log_p, abs=1e-3)
        assert prob.log_err_est > 0.0

    def test_far_leader_on_the_cone(self):
        # the skipped gap keeps the nodes on the windows: P equals the p = 2
        # value P(X_2 > X_3) for means (1, 0)
        prob = ordering_probability(MeanConfig((1e4, 1.0, 0.0), 1.0))
        assert prob.value == pytest.approx(0.7602499389, abs=1e-10)

    def test_far_from_zero_meets_tolerance_or_raises(self):
        # the midrange comes off before any node is laid: (1, 0.3, -1) moved
        # 1e13 sigma from 0 gives the log P of the same floats moved back
        moved = np.array([1.0, 0.3, -1.0]) + 1e13
        near = ordering_probability(MeanConfig(tuple(moved - 1e13), 1.0))
        far = ordering_probability(MeanConfig(tuple(moved), 1.0))
        assert far.log_value == near.log_value
        # means 2^41 sigma apart are cut into blocks of one, each at 0: the
        # order is certain, and no node is laid
        cfg = MeanConfig((2.0**40, 0.0, -(2.0**40)), 1.0)
        prob = ordering_probability(cfg)
        assert (prob.value, prob.log_value, prob.err_est) == (1.0, 0.0, 0.0)
        assert np.array_equal(grad_log_ordering_probability(cfg), np.zeros(3))

    def test_missed_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(ordering, "QUADRATURE_RTOL", 0.0)
        with pytest.raises(ConvergenceFailure, match="error estimate .* of log P exceeds 0"):
            ordering_probability(MeanConfig((2.0, 1.0, 0.0), 1.0))

    def test_missed_tolerance_in_a_block_carries_no_estimate(self, monkeypatch):
        # a block of three fails next to a pair block: the failure is the
        # block's, raised with its own error estimate in the message
        monkeypatch.setattr(ordering, "QUADRATURE_RTOL", 0.0)
        with pytest.raises(ConvergenceFailure, match="error estimate .* of log P exceeds 0"):
            ordering_probability(MeanConfig((2.0, 1.0, 0.0, -40.0, -41.0), 1.0))

    def test_log_pass_matches_direct(self, monkeypatch):
        # force the log-space sweeps where the direct value is still
        # representable, so both paths can be compared
        cfg = MeanConfig((3.0, 0.0, 1.0, -3.0), 1.0)
        log_direct = ordering_probability(cfg).log_value
        grad_direct = grad_log_ordering_probability(cfg)
        monkeypatch.setattr(ordering, "_UNDERFLOW_FLOOR", 1.0)
        with pytest.warns(UnderflowWarning):
            log_stable = ordering_probability(cfg).log_value
        assert log_stable == pytest.approx(log_direct, abs=1e-3)
        grad_stable = grad_log_ordering_probability(cfg)
        assert np.abs(grad_stable - grad_direct).max() <= 1e-3

    @pytest.mark.parametrize("p", [10, 20])
    def test_err_est_tracks_fine_grid_error(self, p):
        rng = np.random.default_rng(p)
        mu = rng.normal(0.0, 2.0, p)
        prob = ordering_probability(MeanConfig(tuple(mu), 1.0))
        fine = _refine(*_layout(mu), 8)  # 1/8-width panels
        error = abs(prob.value - _grid_recursion(mu, *fine)[0])
        assert error / 2 <= prob.err_est <= 2 * error

    @pytest.mark.parametrize(
        "mu",
        [
            (0.0, 0.0, 20.0),
            (0.0, 30.0, -30.0),
            (0.0, 20.0, 0.0, -20.0),
            (30.0, 0.0, -30.0),
            (25.0, 0.0, -2.0, -30.0),
        ],
    )
    def test_matches_uniform_grid_oracle(self, mu):
        # the oracle covers every gap; off the cone the mass sits in the
        # windows' far tails, where 1-sigma panels need halving
        cfg = MeanConfig(mu, 1.0)
        expected = grid_ordering_probability(cfg, 16385)
        assert ordering_probability(cfg).value == pytest.approx(expected, rel=1e-6)


class TestPanelKernels:
    """The running integral of selex's panel Gauss-Legendre rule (sigma = 1)."""

    @pytest.mark.parametrize("degree", range(PANEL_NODES))
    def test_exact_for_polynomials(self, degree):
        a = 1.3
        t = _nodes(np.array([a]), PANEL_WIDTH)
        got = running_integral(t**degree, PANEL_WIDTH)
        expected = (t ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_constant_across_skipped_gap(self):
        # (40, 1, 0) is cut at the gap (9, 32) between the windows of 1 and 40:
        # across it the running integral of a density on the windows below
        # holds constant, so P factors there; one stretch tiles all of it
        mu = np.array([40.0, 1.0, 0.0])
        [(block, nu)] = _blocks(mu)  # 40 is cut off alone, where P = 1
        assert block == slice(1, 3) and np.array_equal(nu, [0.5, -0.5])
        edges = _layout(mu)[0]
        assert edges[0] == -8.0 and edges[-1] + PANEL_WIDTH == 48.0
        np.testing.assert_allclose(np.diff(edges), PANEL_WIDTH)
        t = _nodes(edges, PANEL_WIDTH)
        got = running_integral(t**3, PANEL_WIDTH)
        np.testing.assert_allclose(got, (t**4 - edges[0] ** 4) / 4, rtol=1e-12)
        below = running_integral(INV_SQRT_2PI * np.exp(-0.5 * (t - 0.5) ** 2), PANEL_WIDTH)
        across = below[(t > 9.0) & (t < 32.0)]
        assert across.max() - across.min() <= 1e-15

    def test_mirrored_sweep_is_complement(self):
        edges = _layout(np.array([40.0, 1.0, 0.0]))[0]
        t = _nodes(edges, PANEL_WIDTH)
        y = np.exp(-0.5 * (t - 0.3) ** 2) + np.exp(-0.5 * (t - 39.0) ** 2)
        below = running_integral(y, PANEL_WIDTH)
        above = running_integral(y[::-1], PANEL_WIDTH)[::-1]
        total = _integral(y, PANEL_WIDTH)
        np.testing.assert_allclose(below + above, total, rtol=1e-14)

    def test_covers_gap_off_the_cone(self):
        # the ordered sample of (0, 0, 60) passes through the gap near t = 20
        edges = _layout(np.array([0.0, 0.0, 60.0]))[0]
        np.testing.assert_allclose(np.diff(edges), PANEL_WIDTH)
        assert edges[0] == -8.0 and edges[-1] + PANEL_WIDTH == 68.0
        [(block, nu)] = _blocks(np.array([0.0, 0.0, 60.0]))
        assert block == slice(0, 3) and np.array_equal(nu, [-30.0, -30.0, 30.0])
        # on the cone the same means are cut there: 60 alone, where P = 1, and
        # the tie below it, a block of 16 panels
        mu = np.array([60.0, 0.0, 0.0])
        assert [(b, _layout(nu)[0].size) for b, nu in _blocks(mu)] == [(slice(1, 3), 16)]

    def test_no_panels_overlap_past_a_skipped_gap(self):
        # the windows of 0.2 and 16.3 leave a gap (8.2, 8.3), narrower than a
        # panel: the layout is one stretch, and P factors at the cut there
        mu = np.array([16.3, 0.2, 0.0])
        edges, width = _layout(mu)
        assert np.diff(edges).min() >= width - 1e-12
        log_p = ordering_probability(MeanConfig(tuple(mu), 1.0)).log_value
        assert abs(log_p - _orthant_moments(mu)[0]) <= 1e-14

    def test_layout_matches_array_reference(self):
        """The blocks of ``_blocks`` against a brute-force reference, which cuts
        after population j iff every mean before j is more than 2R sigma above
        every mean from j on and drops the pieces of one mean, each block's nu
        against the midrange formula, and its panels against one stretch
        written with arrays."""

        def reference(mu, sigma):
            p, gap = mu.size, 2.0 * TRUNCATION_RADIUS * sigma
            cuts = [j for j in range(1, p) if all(a - b > gap for a in mu[:j] for b in mu[j:])]
            cuts = [] if p == 2 else cuts
            return [slice(a, b) for a, b in zip([0] + cuts, cuts + [p]) if b - a > 1]

        rng = np.random.default_rng(17)
        cut = set()
        for _ in range(300):
            p = int(rng.integers(2, 7))
            sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
            centres = 20.0 * sigma * rng.integers(0, 4, p)  # far apart or tied
            mu = rng.permutation(centres + rng.normal(0.0, sigma, p))
            blocks, expected = _blocks(mu, sigma), reference(mu, sigma)
            assert [b for b, _ in blocks] == expected
            for b, nu in blocks:
                want = mu[b]
                assert np.array_equal(nu, (want - (0.5 * want.max() + 0.5 * want.min())) / sigma)
                edges, width = _layout(nu)
                lo, hi = nu.min() - TRUNCATION_RADIUS, nu.max() + TRUNCATION_RADIUS
                stretch = lo + PANEL_WIDTH * np.arange(math.ceil((hi - lo) / PANEL_WIDTH - 1e-9))
                assert width == PANEL_WIDTH and np.array_equal(edges, stretch)
            cut.add(expected != [slice(0, p)])
        assert cut == {True, False}


class TestSimpsonKernels:
    """scipy.integrate is the oracle for the grid oracle's Simpson kernels."""

    @pytest.mark.parametrize("n", [3, 5, 1025, 2049])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_cumulative_matches_scipy_bitwise(self, n, rows):
        rng = np.random.default_rng(n + rows)
        y = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3)
        dx = rng.uniform(1e-3, 1.0)
        expected = cumulative_simpson(y, dx=dx, axis=-1, initial=0.0)
        assert np.array_equal(_cumulative_simpson(y, dx), expected)

    @pytest.mark.parametrize("n", [3, 5, 1025, 2049])
    def test_simpson_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.uniform(0.0, 1.0, size=(2, n))
        dx = rng.uniform(1e-3, 1.0)
        expected = simpson(y, dx=dx, axis=-1)
        np.testing.assert_allclose(_simpson(y, dx), expected, rtol=1e-14, atol=0)


class TestMonteCarlo:
    def test_symmetric_pair(self):
        prob = mc_ordering_probability(MeanConfig((0.0, 0.0), 1.0), 10**6, seed=1)
        assert prob.value == pytest.approx(0.5, abs=0.0015)

    def test_matches_closed_form(self):
        cfg = MeanConfig((5.0, 0.0), 1.0)
        mc = mc_ordering_probability(cfg, 10**6, seed=2)
        exact = ordering_probability(cfg).value
        assert abs(mc.value - exact) <= 3.0 * max(mc.err_est, 1e-6)

    def test_deterministic(self):
        cfg = MeanConfig((1.0, 0.3, 0.0), 1.0)
        a = mc_ordering_probability(cfg, 10**5, seed=99)
        b = mc_ordering_probability(cfg, 10**5, seed=99)
        assert a.value == b.value

    def test_degenerate_flag(self):
        prob = mc_ordering_probability(MeanConfig((-20.0, 20.0), 1.0), 10**4, seed=3)
        assert prob.degenerate
        assert prob.value == 0.0
        assert math.isnan(prob.log_value)

    def test_min_draws_enforced(self):
        for n_draws in (100, 10_000.5):  # an integer of at least 10^4
            with pytest.raises(ValueError, match="n_draws"):
                mc_ordering_probability(MeanConfig((0.0, 0.0), 1.0), n_draws, seed=0)

    @pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            mc_ordering_probability(MeanConfig((0.0, 0.0), 1.0), 10_000, seed=seed)


class TestGradient:
    def test_p2_analytic_value(self):
        grad = grad_log_ordering_probability(MeanConfig((1.0, 0.0), 1.0))
        expected = inverse_mills(-1.0 / math.sqrt(2)) / math.sqrt(2)
        assert grad[0] == pytest.approx(expected, abs=1e-12)
        assert grad[1] == pytest.approx(-expected, abs=1e-12)
        # frozen value of the analytic expression g(-1/sqrt(2))/sqrt(2)
        assert grad[0] == pytest.approx(0.2889781813726, abs=1e-10)

    def test_p2_is_never_cut(self):
        # the closed form holds at any distance: 17 sigma apart, past the 16
        # sigma that cuts more means, log P and the gradient are not 0
        cfg = MeanConfig((17.0, 0.0), 1.0)
        [(block, nu)] = _blocks(np.array(cfg.mu))
        assert block == slice(0, 2) and np.array_equal(nu, [8.5, -8.5])
        prob = ordering_probability(cfg)
        assert prob.method == "closed_form_p2" and -1e-33 > prob.log_value > -1e-32
        grad = grad_log_ordering_probability(cfg)
        expected = inverse_mills(-17.0 / math.sqrt(2.0)) / math.sqrt(2.0)
        assert grad[0] == expected > 0.0 and grad[1] == -expected

    def test_p2_equal_means(self):
        grad = grad_log_ordering_probability(MeanConfig((0.0, 0.0), 1.0))
        expected = math.sqrt(2.0 / math.pi) / math.sqrt(2.0)
        assert grad[0] == pytest.approx(expected, abs=1e-6)
        assert grad[0] == pytest.approx(0.5641895835, abs=1e-6)

    def test_components_sum_to_zero(self):
        # translation invariance of P; checked on the cone, where the
        # estimator evaluates the gradient
        rng = np.random.default_rng(11)
        for p in (2, 3, 4, 6, 10, 20):
            for _ in range(3):
                cfg = random_means(rng, p, on_cone=True)
                grad = grad_log_ordering_probability(cfg)
                assert abs(grad.sum()) * cfg.sigma <= 1e-10

    @pytest.mark.parametrize("p", [3, 4, 6, 10, 20])
    def test_matches_finite_differences(self, p):
        rng = np.random.default_rng(100 + p)
        for on_cone in (True, False):
            cfg = random_means(rng, p, on_cone)
            worst = np.abs(grad_log_ordering_probability(cfg) - fd_grad(cfg)).max()
            assert worst * cfg.sigma <= 1e-7

    @pytest.mark.parametrize("p", [3, 6, 20])
    def test_translation_invariance(self, p):
        rng = np.random.default_rng(200 + p)
        cfg = random_means(rng, p, on_cone=False)
        base = grad_log_ordering_probability(cfg)
        for c in rng.uniform(-100.0, 100.0, 3):
            moved = MeanConfig(tuple(m + c for m in cfg.mu), cfg.sigma)
            shifted = grad_log_ordering_probability(moved)
            assert np.abs(shifted - base).max() * cfg.sigma <= 1e-10

    def test_off_cone_matches_refined_panels(self):
        # the mass of (0, 30, -30) sits in the windows' far tails: the rule on
        # 1-sigma panels reads 15.194 for the first entry, 15.033 refined
        mu = np.array([0.0, 30.0, -30.0])
        fine = _refine(*_layout(mu), 8)
        expected = _grid_recursion(mu, *fine)[2]
        grad = grad_log_ordering_probability(MeanConfig(tuple(mu), 1.0))
        assert np.abs(grad - expected).max() <= 1e-6

    def test_cone_takes_one_rule(self):
        # on the cone, too, the gradient is the checked one, and the rule it
        # comes from is the one ordering_probability converges on
        rng = np.random.default_rng(13)
        for p in (3, 4, 6, 10, 20):
            cfg = random_means(rng, p, on_cone=True)
            (_, log_value, grad), _, _ = _converged(standardized(cfg))
            assert np.array_equal(grad_log_ordering_probability(cfg), grad / cfg.sigma)
            assert ordering_probability(cfg).log_value == log_value

    @pytest.mark.parametrize(
        "case", ["3", "4", "6", "10", "20", "spread20", "ladder30", "pairs30", "off5"]
    )
    def test_solver_rule_matches_gradient_and_its_differences(self, case, monkeypatch):
        """The solver's rule, at standardized means on the cone: log P and the
        gradient are those of the plain rule on the same panels, each row on
        the whole layout, and Cov(X | order) - I is the Jacobian of the
        gradient, here by central differences of step 1e-5 on the shared
        panels. The wide cones are wider than a window, so in the rule and in
        the differences each row runs on its own. Off the cone the windows do
        not hold, and the rule takes the whole layout: given the order, the
        last of "off5" sits near the others, not near its mean 12."""
        if case.isdigit():
            p = int(case)
            cfg = random_means(np.random.default_rng(100 + p), p, on_cone=True)
            mu = (np.asarray(cfg.mu) - np.mean(cfg.mu)) / cfg.sigma
        else:
            mu = wide_means(case)
            p = mu.size
        panels = _layout(mu)
        log_p, grad, cov = conditional_moments(mu)
        with monkeypatch.context() as whole:
            whole.setattr(ordering, "_BANDED_FROM", math.inf)  # one window
            _, log_expected, grad_expected = _grid_recursion(mu, *panels)
        assert abs(log_p - log_expected) <= 1e-12
        assert np.abs(grad - grad_expected).max() <= 1e-12
        h = 1e-5
        jacobian = np.empty((p, p))
        for i in range(p):
            step = np.zeros(p)
            step[i] = h
            up = _grid_recursion(mu + step, *panels)[2]
            dn = _grid_recursion(mu - step, *panels)[2]
            jacobian[:, i] = (up - dn) / (2.0 * h)
        assert np.abs(cov - np.eye(p) - jacobian).max() <= 1e-8

    def test_solver_rule_holds_windows_not_the_layout(self):
        # the ladder's layout has 4,510 nodes: p (p + 1) = 930 floats on each
        # would take 34 MB
        mu = wide_means("ladder30")
        conditional_moments(mu)  # once untraced, so that nothing is first built here
        tracemalloc.start()
        try:
            conditional_moments(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize("c", [3.0, -5.0, 64.0])
    @pytest.mark.parametrize("p", [5, 6, 10])
    def test_solver_rule_of_one_panel_block_ignores_where_it_sits(self, p, c):
        # a sample of one panel block is standardized about its midrange, as every
        # block is, and on this dyadic ladder the shift by c and back is exact
        nu = 0.375 * ((p - 1) / 2.0 - np.arange(p))
        for moved, base in zip(conditional_moments(nu + c), conditional_moments(nu)):
            assert np.array_equal(moved, base)

    def test_checked_path_holds_windows_not_the_layout(self):
        # the checked quadrature runs the rule's sweep, so on the cone its
        # rows keep to their windows on halved panels too
        cfg = MeanConfig(tuple(wide_means("ladder30")), 1.0)
        ordering_probability(cfg)  # once untraced, so that nothing is first built here
        tracemalloc.start()
        try:
            ordering_probability(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_checked_path_runs_only_the_rows_it_reads(self):
        # off the cone every row spans the whole layout, so the p - 1 weighted
        # covariance sweeps, which only the solver's rule reads, would hold
        # p^2 rows of it (24 MiB here); the checked path runs two
        cfg = MeanConfig(tuple(np.random.default_rng(0).normal(0.0, 4.0, 30)), 1.0)
        ordering_probability(cfg)  # once untraced, so that nothing is first built here
        tracemalloc.start()
        try:
            ordering_probability(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_tiny_sigma_is_the_unit_gradient_scaled(self):
        # the means are standardized before any node is laid, so sigma^2 never
        # forms: at sigma = 1e-300 nu is (1, 0, -1) as at sigma = 1
        unit = grad_log_ordering_probability(MeanConfig((2.0, 1.0, 0.0), 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = grad_log_ordering_probability(MeanConfig((2e-300, 1e-300, 0.0), 1e-300))
        assert np.all(np.isfinite(tiny))
        assert np.array_equal(tiny, unit / 1e-300)

    def test_underflow_stays_finite(self):
        cfg = MeanConfig((0.0, 0.0, 60.0), 1.0)  # log P about -1209
        grad = grad_log_ordering_probability(cfg)
        assert np.all(np.isfinite(grad))
        assert np.abs(grad - fd_grad(cfg)).max() <= 1e-4
        assert grad == pytest.approx([20.04, 19.99, -40.03], abs=0.01)

    def test_fd_matches_analytic_p2(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(20):
            mu = (rng.normal(0, 1.5), rng.normal(0, 1.5))
            sigma = rng.uniform(0.3, 2.0)
            analytic = grad_log_ordering_probability(MeanConfig(mu, sigma))
            h = 1e-5 * sigma
            fd = np.empty(2)
            for i in range(2):
                up = list(mu)
                dn = list(mu)
                up[i] += h
                dn[i] -= h
                lu = ordering_probability(MeanConfig(tuple(up), sigma)).log_value
                ld = ordering_probability(MeanConfig(tuple(dn), sigma)).log_value
                fd[i] = (lu - ld) / (2 * h)
            worst = max(worst, float(np.abs(fd - analytic).max()))
        assert worst <= 1e-5


def cone_points_p3(seed: int = 0):
    """Standardized p = 3 means on the cone, given by their two gaps: ties,
    gaps of 1e4 and 1e8, and gaps |N(0, s^2)| at scales s from 0.01 to 10,
    each shifted to mean 0 as the solver's iterates are."""
    rng = np.random.default_rng(seed)
    gaps = [(0.0, 0.0), (1e4, 0.0), (0.0, 1e4), (1e4, 1e4), (1e4, 1.0), (1.0, 1e4),
            (1e8, 0.0), (0.0, 1e8), (1e8, 1e8), (1e8, 1.0), (0.5, 1e8), (1e4, 1e8)]
    for scale in (0.01, 0.1, 0.3, 1.0, 3.0, 10.0):
        gaps += [(scale, 0.0), (0.0, scale)]
        gaps += [tuple(g) for g in np.abs(rng.normal(0.0, scale, (50, 2)))]
    for upper, lower in gaps:
        mu = np.array([upper + lower, lower, 0.0])
        yield mu - mu.mean()


def panel_reference(mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``_panel_moments`` of each block of ``_blocks``, stacked: log P summed,
    the gradients and a block-diagonal C, (0, 1) for a mean left out."""
    log_p, grad, cov = 0.0, np.zeros(mu.size), np.eye(mu.size)
    for b, nu in _blocks(mu):
        log_b, grad[b], cov[b, b] = _panel_moments(nu)
        log_p += log_b
    return log_p, grad, cov


class TestOrthantRule:
    """The solver's rule at p = 3: closed forms from the bivariate normal
    orthant of the two gaps (ordering module docstring)."""

    def test_matches_panel_rule(self):
        # the panel sweep that the rule replaced is still the rule for p >= 5,
        # per block where a gap wider than 2R cuts the means
        points, worst = list(cone_points_p3()), np.zeros(3)
        assert len(points) >= 300
        for mu in points:
            exact, panels = _orthant_moments(mu), panel_reference(mu)
            for i in range(3):
                worst[i] = max(worst[i], np.abs(np.subtract(exact[i], panels[i])).max())
        assert worst.max() <= 1e-12, worst

    def test_stacks_into_the_rule_of_five_means(self):
        # (2e12, 0.3, 0, -0.4, -2e12) is cut at both wide gaps: the outer means
        # are certain, the middle block takes this rule, and C is block-diagonal
        mu = np.array([2e12, 0.3, 0.0, -0.4, -2e12])
        [(block, nu)] = _blocks(mu)  # the outer means are left out
        assert block == slice(1, 4) and np.array_equal(nu, mu[1:4] - (0.5 * 0.3 + 0.5 * -0.4))
        log_p, grad, cov = conditional_moments(mu)
        log_b, grad_b, cov_b = _orthant_moments(nu)
        assert log_p == log_b
        assert np.array_equal(grad, np.r_[0.0, grad_b, 0.0])
        expected = np.eye(5)
        expected[1:4, 1:4] = cov_b
        assert np.array_equal(cov, expected)

    def test_pair_blocks_match_the_closed_form(self):
        # (40, 39.5, 0, -0.3, -40) is cut into two pairs and a single mean; a
        # pair block takes one panel sweep of two means, whose log P and
        # gradient are the p = 2 closed form's, and C = I + the Hessian of log P
        mu = np.array([40.0, 39.5, 0.0, -0.3, -40.0])
        assert [b for b, _ in _blocks(mu)] == [slice(0, 2), slice(2, 4)]  # -40 left out
        log_p, grad, cov = conditional_moments(mu)
        expected_log_p, expected_cov = 0.0, np.eye(5)
        for rows in (slice(0, 2), slice(2, 4)):
            (_, log_b, grad_b), _, _ = _closed_form_p2(mu[rows])
            expected_log_p += log_b
            assert np.abs(grad[rows] - grad_b).max() <= 1e-12
            u = (mu[rows][1] - mu[rows][0]) / math.sqrt(2.0)
            lam = inverse_mills(u)
            expected_cov[rows, rows] -= 0.5 * lam * (lam - u) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert abs(log_p - expected_log_p) <= 1e-12
        assert np.abs(cov - expected_cov).max() <= 1e-12
        assert grad[4] == 0.0 and cov[4, 4] == 1.0

    def test_matches_its_own_differences(self):
        """The gradient against central differences of log P, and
        Cov(X | order) - I against those of the gradient, step 1e-5."""
        h = 1e-5
        points = list(cone_points_p3(seed=1))[::15]
        for mu in points:
            _, grad, cov = _orthant_moments(mu)
            fd_grad, jacobian = np.empty(3), np.empty((3, 3))
            for i in range(3):
                step = np.zeros(3)
                step[i] = h
                up, dn = _orthant_moments(mu + step), _orthant_moments(mu - step)
                fd_grad[i] = (up[0] - dn[0]) / (2.0 * h)
                jacobian[:, i] = (up[1] - dn[1]) / (2.0 * h)
            assert np.abs(grad - fd_grad).max() <= 1e-8
            assert np.abs(cov - np.eye(3) - jacobian).max() <= 1e-8

    def test_origin_gives_order_statistics_of_three(self):
        # e_3 = (1, 0, -1) 3 / (2 sqrt(pi)); the variances of the largest and
        # the middle of three standard normals are 1 + sqrt(3)/(2 pi) - 9/(4 pi)
        # and 1 - sqrt(3)/pi
        log_p, grad, cov = conditional_moments(np.zeros(3))
        e = 3.0 / (2.0 * math.sqrt(math.pi))
        assert log_p == pytest.approx(-math.log(6.0), abs=1e-15)
        assert np.abs(grad - [e, 0.0, -e]).max() <= 1e-15
        outer = 1.0 + math.sqrt(3.0) / (2.0 * math.pi) - 9.0 / (4.0 * math.pi)
        middle = 1.0 - math.sqrt(3.0) / math.pi
        assert np.abs(np.diag(cov) - [outer, middle, outer]).max() <= 1e-14
        assert np.abs(cov - cov.T).max() == 0.0


def cone_points_p4(seed: int = 0):
    """Standardized p = 4 means on the cone, given by their three gaps: ties,
    gaps of 1e4 and 1e8 in every pattern, and gaps |N(0, s^2)| at scales s
    from 0.01 to 10. Each is centred on its middle pair: centred on its mean,
    (1e8, 0, 0) puts a tie of three at -2.5e7, where the panel reference's
    nodes round by up to 3.7e-9 and its C is 1.8e-12 off."""
    rng = np.random.default_rng(seed)
    gaps = [(0.0, 0.0, 0.0)]
    for big in (1e4, 1e8):
        for pattern in itertools.product((0, 1), repeat=3):
            if any(pattern):
                gaps.append(tuple(big * on for on in pattern))
                gaps.append(tuple(big if on else 1.0 for on in pattern))
    gaps += [(1e4, 1e8, 0.5), (1e8, 0.0, 1e4), (0.3, 1e4, 1e8)]
    for scale in (0.01, 0.1, 0.3, 1.0, 3.0, 10.0):
        gaps += [(scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, scale)]
        gaps += [tuple(g) for g in np.abs(rng.normal(0.0, scale, (50, 3)))]
    for first, second, third in gaps:
        mu = np.array([first + second + third, second + third, third, 0.0])
        yield mu - 0.5 * (mu[1] + mu[2])


class TestTrivariateOrthantRule:
    """The solver's rule at p = 4: closed forms from the trivariate normal
    orthant of the three gaps (ordering module docstring)."""

    def test_matches_panel_rule(self):
        # the panel sweep that the rule replaced is still the rule for p >= 5,
        # per block where a gap wider than 2R cuts the means
        points, worst = list(cone_points_p4()), np.zeros(3)
        assert len(points) >= 300
        for mu in points:
            exact, panels = _trivariate_moments(mu), panel_reference(mu)
            for i in range(3):
                worst[i] = max(worst[i], np.abs(np.subtract(exact[i], panels[i])).max())
        assert worst.max() <= 1e-12, worst

    def test_matches_its_own_differences(self):
        """The gradient against central differences of log P, and
        Cov(X | order) - I against those of the gradient, step 1e-5."""
        h = 1e-5
        points = list(cone_points_p4(seed=1))[::15]
        for mu in points:
            _, grad, cov = _trivariate_moments(mu)
            fd_grad, jacobian = np.empty(4), np.empty((4, 4))
            for i in range(4):
                step = np.zeros(4)
                step[i] = h
                up, dn = _trivariate_moments(mu + step), _trivariate_moments(mu - step)
                fd_grad[i] = (up[0] - dn[0]) / (2.0 * h)
                jacobian[:, i] = (up[1] - dn[1]) / (2.0 * h)
            assert np.abs(grad - fd_grad).max() <= 1e-8
            assert np.abs(cov - np.eye(4) - jacobian).max() <= 1e-8

    def test_origin_gives_order_statistics_of_four(self):
        # means and variances of the largest and the second of four standard
        # normals, by 30-digit quadrature of the order-statistic densities
        # (TestGrandMean checks e_4 against scipy's quadrature of the same)
        log_p, grad, cov = conditional_moments(np.zeros(4))
        e = [1.029375373003964132, 0.2970113822746453255]
        var = [0.4917152368747417607, 0.3604553433775124510]
        assert log_p == pytest.approx(-math.log(24.0), abs=1e-14)
        assert np.abs(grad - [e[0], e[1], -e[1], -e[0]]).max() <= 1e-14
        assert np.abs(np.diag(cov) - (var + var[::-1])).max() <= 1e-14
        assert np.abs(cov - cov.T).max() == 0.0


@pytest.mark.parametrize(
    "mu,tied",
    [((1.13e308, -5.67e307, -5.67e307), 2), ((1.13e308, -5.67e307, -5.67e307, -5.67e307), 3)],
    ids=["p3", "p4"],
)
def test_exact_rules_beside_a_gap_near_the_largest_float(mu, tied):
    # the far mean is certain to come first, so the rule is that of the tie below it; the
    # product of the gap h = 1.2e308 and the tie's 0 is 0, though 2 h overflows
    log_p, grad, cov = conditional_moments(np.array(mu))
    e = conditional_moments(np.zeros(tied))[1]
    assert log_p == pytest.approx(-math.log(math.factorial(tied)), abs=1e-14)
    assert np.abs(grad - [0.0, *e]).max() <= 1e-14
    assert np.isfinite(cov).all()

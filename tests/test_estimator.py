import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from selex import estimator, ordering
from selex.estimator import (
    KKT_TOL,
    POOLING_THRESHOLD,
    CcmleResult,
    MaxIterationsExceeded,
    ObservedSample,
    ccmle,
    ccmle_p2_rows,
    conditional_log_likelihood,
)
from selex.ordering import (
    ConvergenceFailure,
    MeanConfig,
    grad_log_ordering_probability,
    inverse_mills,
    ordering_probability,
)


def brute_force_projection(v: np.ndarray) -> np.ndarray:
    """Exhaustive active-set oracle: try every partition into consecutive
    blocks, keep the feasible candidate closest to v."""
    n = v.size
    best, best_dist = None, math.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        out = np.empty(n)
        start = 0
        for i, cut in enumerate(list(cuts) + [1]):
            if cut:
                out[start : i + 1] = v[start : i + 1].mean()
                start = i + 1
        if np.all(np.diff(out) <= 1e-12):
            dist = float(np.sum((v - out) ** 2))
            if dist < best_dist:
                best, best_dist = out, dist
    return best


def shrink_covariance(monkeypatch, factor: float = 0.2) -> None:
    """The solver's rule with C, where it gives one, scaled by ``factor``: the Newton steps
    overshoot, so some candidates do not ascend and the iteration falls back to the unit step."""
    real = estimator.conditional_moments

    def scaled(mu, covariance=True):
        log_p, grad, cov = real(mu, covariance=covariance)
        return log_p, grad, None if cov is None else factor * cov

    monkeypatch.setattr(estimator, "conditional_moments", scaled)


def first_step(obs: ObservedSample, monkeypatch) -> CcmleResult:
    """The loop from the grand mean capped at one sweep, that of its start: the unit step there."""
    monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
    try:
        res = estimator._ascent(obs)
    except MaxIterationsExceeded as exc:
        res = exc.result
    assert res.iterations == 1
    return res


class TestObservedSample:
    def test_canonicalizes_descending(self):
        obs = ObservedSample(np.array([1.0, 3.0, 2.0]), 1.0)
        assert np.array_equal(obs.x, [3.0, 2.0, 1.0])
        assert list(obs.permutation) == [1, 2, 0]

    def test_ties_broken_by_original_index(self):
        obs = ObservedSample(np.array([2.0, 2.0, 1.0]), 1.0)
        assert list(obs.permutation) == [0, 1, 2]

    def test_mean_stored_once(self):
        obs = ObservedSample(np.array([1.0, 3.0, 2.5]), 1.0)
        assert "xbar" in {f.name for f in dataclasses.fields(obs)}
        assert obs.xbar == np.mean([1.0, 3.0, 2.5])

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_z_is_the_standardized_sample(self, p):
        obs = ObservedSample(np.random.default_rng(p).normal(5.0, 3.0, p), 0.7)
        assert obs.z.tobytes() == ((obs.x - obs.xbar) / obs.sigma).tobytes()  # bit for bit

    @pytest.mark.parametrize(
        "x,sigma",
        [(np.array([1.0]), 1.0), (np.array([1.0, np.inf]), 1.0), (np.array([1.0, 0.0]), 0.0),
         # a bool or a string is no number; np.asarray would read [1, True] as ints
         (np.array([True, False]), 1.0), (np.array([1.0, 0.0]), True),
         (np.array([1.0, 0.0]), "1"), ([1, True], 1.0),
         ([10**400, 0], 1.0)],  # an int past the float range is not finite
    )
    def test_invalid(self, x, sigma):
        with pytest.raises(ValueError):
            ObservedSample(x, sigma)


class TestProjectMonotone:
    def test_already_feasible(self):
        assert np.array_equal(estimator._pava(np.array([3.0, 2.0, 1.0]))[0], [3, 2, 1])

    def test_full_pool(self):
        assert np.allclose(estimator._pava(np.array([1.0, 2.0, 3.0]))[0], [2, 2, 2])

    def test_partial_pool(self):
        assert np.allclose(estimator._pava(np.array([2.0, 3.0, 0.0]))[0], [2.5, 2.5, 0])

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rng.integers(2, 6)
            v = rng.normal(0, 2, p)
            assert np.allclose(
                estimator._pava(v)[0], brute_force_projection(v), atol=1e-10
            )

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=6
        )
    )
    def test_properties(self, values):
        v = np.array(values)
        out = estimator._pava(v)[0]
        assert np.all(np.diff(out) <= 1e-9)  # feasible
        assert out.sum() == pytest.approx(v.sum(), abs=1e-8)  # mean-preserving
        assert np.allclose(estimator._pava(out)[0], out, atol=1e-9)  # idempotent


class TestCcmleP2:
    def test_pools_below_threshold(self):
        res = ccmle(ObservedSample(np.array([1.0, 0.5]), 1.0))
        assert np.allclose(res.mu_hat, [0.75, 0.75])
        assert res.path == "closed_form_pooled"
        assert res.groups == [[0, 1]]

    def test_threshold_boundary_inclusive(self):
        for sigma in (0.5, 1.0, 2.0):
            gap = POOLING_THRESHOLD * sigma
            res = ccmle(ObservedSample(np.array([gap, 0.0]), sigma))
            assert res.path == "closed_form_pooled"
            assert np.allclose(res.mu_hat, [gap / 2, gap / 2])

    def test_wide_gap_negligible_shrinkage(self):
        res = ccmle(ObservedSample(np.array([10.0, 0.0]), 1.0))
        assert res.path == "closed_form_interior"
        assert 9.999 < res.mu_hat[0] < 10.0
        assert res.mu_hat[1] == pytest.approx(10.0 - res.mu_hat[0], abs=1e-12)

    def test_interior_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sigma = rng.uniform(0.2, 3.0)
            gap = POOLING_THRESHOLD * sigma * rng.uniform(1.001, 4.0)
            res = ccmle(ObservedSample(np.array([gap, 0.0]), sigma))
            assert res.path == "closed_form_interior"
            assert res.kkt_residual <= 1e-10

    def test_threshold_sharpness(self):
        eps = 1e-3
        sigma = 1.3
        gap = POOLING_THRESHOLD * sigma
        pooled = ccmle(ObservedSample(np.array([gap * (1 - eps), 0.0]), sigma))
        interior = ccmle(ObservedSample(np.array([gap * (1 + eps), 0.0]), sigma))
        assert pooled.path == "closed_form_pooled"
        assert interior.path == "closed_form_interior"
        assert interior.mu_hat[0] > interior.mu_hat.mean()

    @pytest.mark.parametrize(
        "x,sigma", [((5.0, 0.0), 1e-200), ((1e300, -1e300), 1.0)], ids=["tiny-sigma", "huge-x"]
    )
    def test_extreme_scales_keep_the_bracket(self, x, sigma):
        # the shrinkage g(-sqrt(2) d) / sqrt(2) underflows: the estimate is x
        res = ccmle(ObservedSample(np.array(x), sigma))
        assert res.path == "closed_form_interior"
        assert np.all(np.abs(res.mu_hat - x) <= 4 * np.spacing(max(x)))

    def test_sigma_below_data_ulp_returns_the_observations(self):
        # the shrinkage underflows, so the estimate is the observations exactly
        obs = ObservedSample(np.array([5.0, 0.1]), 1e-15)
        res = ccmle(obs)
        assert res.mu_hat.tolist() == [5.0, 0.1]
        assert conditional_log_likelihood(res.mu_hat, obs) == 0.0

    def test_pooled_pairs_stay_tied_at_their_mean(self):
        rng = np.random.default_rng(41)
        sigma = np.exp(rng.uniform(-5.0, 5.0, 20_000))
        gap = POOLING_THRESHOLD * sigma * rng.uniform(0.0, 2.0, sigma.size)
        low = sigma * rng.uniform(-1e3, 1e3, sigma.size)
        pooled = 0
        for x, s in zip(np.column_stack((low + gap, low)), sigma):
            if x[0] - x[1] <= POOLING_THRESHOLD * s:
                obs = ObservedSample(x, s)
                res = ccmle(obs)
                assert res.groups == [[0, 1]]
                assert res.mu_hat.tolist() == [obs.xbar, obs.xbar]
                pooled += 1
        assert pooled >= 9_000

    def test_gap_beyond_float_range_in_sigma_units_is_rejected(self):
        with pytest.raises(ValueError, match="too far apart"):
            ccmle(ObservedSample(np.array([1e300, 0.0]), 1e-10))

    def test_rows_reject_a_non_finite_row(self):
        x = np.array([[1.0, 0.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="observations must be finite"):
            ccmle_p2_rows(x, 1.0)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan, True])
    def test_rows_reject_a_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be"):  # not "too far apart"
            ccmle_p2_rows(np.array([[1.0, 0.0], [3.0, 0.0]]), sigma)

    def test_rows_raise_when_the_root_runs_out_of_steps(self, monkeypatch):
        # an interior row moves on its first Halley step, so one step cannot settle it
        monkeypatch.setattr(estimator, "P2_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="unconverged after 1 steps") as info:
            ccmle_p2_rows(np.array([[0.5, 0.0], [3.0, 0.0], [4.0, 0.0]]), 1.0)
        # an optimizer failure with no iterate, naming the count and only the first row
        assert isinstance(info.value, MaxIterationsExceeded) and info.value.result is None
        assert "in 2 of 3 rows, the first row 1 (d = 1.5)" in str(info.value)

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 2.0, 3.0])
    def test_rows_match_single_solves(self, sigma):
        # criterion 2's gaps, the threshold +-1e-3 and at it, and wide gaps
        units = np.concatenate([
            np.random.default_rng(2024).uniform(0.0, 4.0, 200),
            POOLING_THRESHOLD * np.array([1 - 1e-3, 1.0, 1 + 1e-3]),
            np.linspace(4.0, 40.0, 13),
        ])
        x = np.column_stack((units * sigma, np.zeros_like(units)))
        rows, residual = ccmle_p2_rows(x, sigma)
        for sample, est in zip(x, rows):
            single = ccmle(ObservedSample(sample, sigma)).mu_hat
            assert np.all(np.abs(est - single) <= 1e-14 * sigma)
        assert np.all(residual <= 1e-10)
        pooled = rows[:, 0] == rows[:, 1]
        assert np.array_equal(pooled, units <= POOLING_THRESHOLD)
        assert pooled[200 + 1] and not pooled[200 + 2]


class TestLogLikelihood:
    def test_pooled_point_p2(self):
        x1, x2, sigma = 1.4, 0.3, 0.9
        obs = ObservedSample(np.array([x1, x2]), sigma)
        xbar = (x1 + x2) / 2
        val = conditional_log_likelihood(np.array([xbar, xbar]), obs)
        expected = -((x1 - x2) ** 2) / (4 * sigma**2) + math.log(2)
        assert val == pytest.approx(expected, abs=1e-8)

    def test_well_separated_at_observation(self):
        obs = ObservedSample(np.array([10.0, 0.0]), 1.0)
        assert conditional_log_likelihood(obs.x, obs) == pytest.approx(0.0, abs=1e-6)

    def test_unbounded_direction(self):
        # pushing mu_1 down makes the -log P penalty grow without bound
        lo = -ordering_probability(MeanConfig((-5.0, 0.0), 1.0)).log_value
        hi = -ordering_probability(MeanConfig((-3.0, 0.0), 1.0)).log_value
        assert lo > hi


class TestSurrogateStart:
    """The loop's first candidate, where its first unit step, from the grand mean,
    does not pool the sample: SURROGATE_STEPS unit steps from the observations on
    the independent-gaps surrogate, or, where that unit step ties ranks, the loop's
    Newton step from the grand mean if that lies no farther from the unit step; a
    sample that pools stops at the grand mean, with no sweep."""

    def test_moderate_gap(self, monkeypatch):
        # wider than the pooling threshold 2 / sqrt(pi) = 1.128; at p = 2 the surrogate
        # is log P, so one sweep ends SURROGATE_STEPS + 1 exact unit steps from z
        nu = z = np.array([0.75, -0.75])
        for _ in range(estimator.SURROGATE_STEPS + 1):
            g = inverse_mills(-(nu[0] - nu[1]) / math.sqrt(2.0)) / math.sqrt(2.0)  # the gradient at nu
            nu = estimator._pava(z - np.array([g, -g]))[0]
        start = first_step(ObservedSample(np.array([1.5, 0.0]), 1.0), monkeypatch)
        assert np.allclose(start.mu_hat, 0.75 + nu, atol=1e-9)

    def test_wide_gap_keeps_observations(self, monkeypatch):
        start = first_step(ObservedSample(np.array([10.0, 0.0]), 1.0), monkeypatch)
        assert np.allclose(start.mu_hat, [10.0, 0.0], atol=1e-6)

    def test_small_gap_projected_to_pool(self, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        res = estimator._ascent(ObservedSample(np.array([0.1, 0.0]), 1.0))
        assert res.converged and res.iterations == 0
        assert res.groups == [[0, 1]]
        assert res.mu_hat == pytest.approx([0.05, 0.05], rel=1e-15)
        assert res.kkt_residual <= KKT_TOL

    @pytest.mark.parametrize("p", [2, 3, 5, 20])
    def test_start_is_on_the_cone_and_keeps_the_sum(self, p):
        rng = np.random.default_rng([29, p])
        pooled = 0
        for scale in (0.05, 0.5, 3.0, 3.0 * rng.random(p)):  # clustered to spread, and mixed
            z = np.sort(rng.normal(0.0, scale, p))[::-1]
            z -= z.mean()
            start = estimator._surrogate_start(z)
            assert np.all(np.diff(start) <= 0.0)
            assert abs(start.sum() - z.sum()) <= 1e-12
            pooled += len(set(start.tolist())) < p
        assert pooled  # the projection ran

    @pytest.mark.parametrize("p", [3, 4, 6, 10, 20])
    def test_spread_samples_take_at_most_two_sweeps(self, p):
        # every gap between 3 and 8 sigma
        rng = np.random.default_rng([29, p])
        for _ in range(8):
            sigma = float(np.exp(rng.uniform(-2.0, 2.0)))
            x = 5.0 - sigma * np.concatenate([[0.0], np.cumsum(rng.uniform(3.0, 8.0, p - 1))])
            res = ccmle(ObservedSample(rng.permutation(x), sigma))
            assert res.converged and res.iterations <= 2

    @pytest.mark.parametrize("p", [3, 5, 20])
    def test_start_is_no_farther_from_the_unit_step_at_the_grand_mean(self, p, monkeypatch):
        class Started(Exception):
            pass

        def start(mu, covariance=True):  # the first sweep after the cached origin is at the start
            raise Started(mu)

        e = estimator._expected_order_statistics(p)[0]
        monkeypatch.setattr(estimator, "conditional_moments", start)
        rng = np.random.default_rng([32, p])
        seen = {"untied": 0, "newton": 0, "surrogate": 0}
        for scale in np.repeat([0.5, 1.0, 2.0, 5.0, 20.0], 8):
            obs = ObservedSample(rng.normal(0.0, scale, p), 1.0)
            nu_pg, sizes = estimator._pava(obs.z - e)
            try:
                estimator._ascent(obs)
                continue  # pooled at the grand mean
            except Started as exc:
                nu = exc.args[0]
            surrogate = estimator._surrogate_start(obs.z)
            assert math.dist(nu, nu_pg) <= math.dist(surrogate, nu_pg)
            if len(sizes) == p:  # no tie: the surrogate start, bit for bit
                assert nu.tobytes() == surrogate.tobytes()
                seen["untied"] += 1
            else:
                seen["surrogate" if nu.tobytes() == surrogate.tobytes() else "newton"] += 1
        assert min(seen.values()) > 0

    @pytest.mark.parametrize("p", [3, 4, 6])
    def test_clustered_samples_take_a_sweep_fewer(self, p):
        # every gap below the pooling threshold; from the surrogate start alone the
        # samples that do not pool take 4.20, 4.60 and 4.67 sweeps on average, at most 5
        rng = np.random.default_rng([32, p])
        sweeps = []
        for _ in range(40):
            sigma = float(np.exp(rng.uniform(-2.0, 2.0)))
            gaps = rng.uniform(0.0, POOLING_THRESHOLD, p - 1)
            x = 5.0 - sigma * np.concatenate([[0.0], np.cumsum(gaps)])
            res = ccmle(ObservedSample(rng.permutation(x), sigma))
            assert res.converged
            if res.iterations:
                sweeps.append(res.iterations)
        assert len(sweeps) >= 5
        assert np.mean(sweeps) <= {3: 3.7, 4: 4.1, 6: 4.1}[p]
        if p == 4:
            assert max(sweeps) <= 4


def order_statistic_mean(p: int, k: int) -> float:
    """E of the k-th largest of p standard normals (1-based), by quadrature
    of its density p! / ((k-1)! (p-k)!) (1 - Phi)^(k-1) Phi^(p-k) phi."""
    coef = math.factorial(p) / (math.factorial(k - 1) * math.factorial(p - k))

    def integrand(t):
        cdf = 0.5 * math.erfc(-t / math.sqrt(2.0))
        pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return t * coef * (1.0 - cdf) ** (k - 1) * cdf ** (p - k) * pdf

    return quad(integrand, -12.0, 12.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


class TestGrandMean:
    """The solver's one loop starts at the grand mean: there the gradient of
    log P is e_p, the expected order statistics of p standard normals, cached,
    so the first unit step, with no sweep, tests it: nu = 0 solves iff the
    projection of z - e_p is 0."""

    def test_two_populations_give_the_pooling_threshold(self):
        e = estimator._expected_order_statistics(2)[0]
        a = 1.0 / math.sqrt(math.pi)
        assert e == pytest.approx([a, -a], abs=1e-12)
        assert 2.0 * e[0] == pytest.approx(POOLING_THRESHOLD, abs=1e-12)

    def test_three_populations(self):
        e = estimator._expected_order_statistics(3)[0]
        a = 3.0 / (2.0 * math.sqrt(math.pi))
        assert e == pytest.approx([a, 0.0, -a], abs=1e-12)

    @pytest.mark.parametrize("p", [4, 5])
    def test_against_order_statistic_densities(self, p):
        e = estimator._expected_order_statistics(p)[0]
        expected = [order_statistic_mean(p, k) for k in range(1, p + 1)]
        assert np.max(np.abs(e - expected)) <= 1e-10

    def test_cached_read_only(self):
        # e_4 and C_0 = Cov(X | order) at the origin, from one sweep
        e, cov = estimator._expected_order_statistics(4)
        again = estimator._expected_order_statistics(4)
        assert again[0] is e and again[1] is cov
        assert np.array_equal(cov, cov.T) and cov.shape == (4, 4)
        for shared in (e, cov):
            with pytest.raises(ValueError):
                shared[0] = 0.0

    def test_zero_sweeps_iff_the_checked_gradient_pools(self):
        rng = np.random.default_rng(13)
        verdicts = set()
        for _ in range(120):
            p = int(rng.integers(3, 7))
            sigma = float(rng.uniform(0.5, 2.0))
            obs = ObservedSample(rng.normal(5.0, 0.6 * sigma, p), sigma)
            res = ccmle(obs)
            z = (obs.x - obs.xbar) / sigma
            e = grad_log_ordering_probability(MeanConfig((0.0,) * p, 1.0))
            pools = float(np.linalg.norm(estimator._pava(z - e)[0])) <= KKT_TOL
            assert (res.iterations == 0) == pools
            if pools:
                assert res.groups == [list(range(p))]
                assert res.mu_hat == pytest.approx(np.full(p, obs.xbar), abs=1e-12 * sigma)
            verdicts.add(pools)
        assert verdicts == {True, False}

    def test_pooled_solve_needs_no_sweep(self, monkeypatch):
        estimator._expected_order_statistics(4)  # its one origin sweep, first
        calls = []
        monkeypatch.setattr(estimator, "conditional_moments", calls.append)
        res = ccmle(ObservedSample(np.array([10.0, 9.9, 9.8, 9.7]), 1.0))
        assert res.iterations == 0 and not calls
        assert res.path == "numeric" and res.converged

    def test_capped_at_no_sweep_gives_the_unit_step_from_the_grand_mean(self, monkeypatch):
        # the start is one of the MAX_ITERATIONS sweeps; a pooled sample needs none
        estimator._expected_order_statistics(4)  # its one origin sweep, first
        calls = []
        monkeypatch.setattr(estimator, "conditional_moments", calls.append)
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 0)
        obs = ObservedSample(np.array([10.0, 9.0, 8.5, 0.0]), 2.0)
        with pytest.raises(MaxIterationsExceeded) as info:
            ccmle(obs)
        res = info.value.result
        unit = estimator._pava(obs.z - estimator._expected_order_statistics(4)[0])[0]
        assert res.iterations == 0 and not res.converged and not calls
        assert res.mu_hat.tobytes() == (obs.xbar + obs.sigma * unit).tobytes()
        assert res.kkt_residual == float(np.linalg.norm(unit))
        pooled = ccmle(ObservedSample(np.array([10.0, 9.9, 9.8, 9.7]), 1.0))
        assert pooled.converged and pooled.iterations == 0 and not calls


TABLE_CONFIGS = [
    ([10.0, 9.5, 9.0, 0.0], [9.50, 9.50, 9.50, 0.00]),
    ([10.0, 9.0, 8.0, 0.0], [9.35, 9.00, 8.65, 0.00]),
    ([10.0, 9.0, 1.0, 0.0], [9.50, 9.50, 0.50, 0.50]),
    ([10.0, 2.0, 1.0, 0.0], [10.00, 1.35, 1.00, 0.65]),
]


class TestCcmleGeneral:
    @pytest.mark.parametrize("x,expected", TABLE_CONFIGS)
    def test_four_population_golden(self, x, expected):
        res = ccmle(ObservedSample(np.array(x), 1.0))
        assert np.allclose(res.mu_hat, expected, atol=0.05)
        assert res.converged

    def test_feasible_and_sum_preserving(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = int(rng.integers(3, 6))
            sigma = float(rng.uniform(0.3, 2.0))
            x = np.sort(rng.normal(0, 3, p))[::-1].copy()
            res = ccmle(ObservedSample(x, sigma))
            assert np.all(np.diff(res.mu_hat) <= 1e-12)
            assert res.mu_hat.sum() == pytest.approx(x.sum(), abs=1e-8)

    def test_shrinks_extremes_inward(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            p = int(rng.integers(3, 6))
            x = np.sort(rng.normal(0, 2, p))[::-1].copy()
            res = ccmle(ObservedSample(x, 1.0))
            assert res.mu_hat[0] <= x[0] + 1e-9
            assert res.mu_hat[-1] >= x[-1] - 1e-9

    # bounds in sigma units (sigma = 1 here); at a shift of 1e9 the inputs
    # and the answer are only representable to ulp(1e9) = 1.2e-7
    @pytest.mark.parametrize(
        "shift,bound", [(7.3, 1e-7), (1e6, 1e-7), (1e9, 5e-7)], ids=["7.3", "1e6", "1e9"]
    )
    def test_translation_equivariance(self, shift, bound):
        x = np.array([3.0, 2.5, 1.0])
        base = ccmle(ObservedSample(x.copy(), 1.0)).mu_hat
        shifted = ccmle(ObservedSample(x + shift, 1.0)).mu_hat
        assert np.max(np.abs((shifted - shift) - base)) <= bound

    @pytest.mark.parametrize(
        "factor,bound", [(1e-4, 1e-7), (2.5, 1e-7), (1e4, 1e-7)], ids=["1e-4", "2.5", "1e4"]
    )
    def test_scale_equivariance(self, factor, bound):
        x = np.array([3.0, 2.5, 1.0])
        base = ccmle(ObservedSample(x.copy(), 1.0)).mu_hat
        scaled = ccmle(ObservedSample(factor * x, factor)).mu_hat
        assert np.max(np.abs(scaled / factor - base)) <= bound

    @pytest.mark.parametrize("p", [3, 4, 5])
    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_equivariance_property(self, p, data):
        """Shifting, scaling and relabelling the input moves the estimate the
        same way: est(a + s x[perm], s) = a + s est(x, 1)[perm]."""
        x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)))
        scale = 10.0 ** data.draw(st.floats(-4.0, 4.0))
        shift = scale * data.draw(st.floats(-1e6, 1e6))
        perm = np.array(data.draw(st.permutations(range(p))))
        base = ccmle(ObservedSample(x, 1.0)).in_original_order()
        moved = ccmle(ObservedSample(shift + scale * x[perm], scale)).in_original_order()
        assert np.max(np.abs((moved - shift) / scale - base[perm])) <= 1e-6

    def test_matches_closed_form_p2(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            sigma = float(rng.uniform(0.2, 3.0))
            gap = float(rng.uniform(0.0, 3.0 * sigma))
            x2 = float(rng.normal(0, 2))
            obs = ObservedSample(np.array([x2 + gap, x2]), sigma)
            exact = ccmle(obs).mu_hat
            numeric = estimator._ascent(obs).mu_hat
            assert np.allclose(numeric, exact, atol=1e-4)

    def test_ascends_from_start(self, monkeypatch):
        obs = ObservedSample(np.array([10.0, 9.0, 8.0, 0.0]), 1.0)
        res = ccmle(obs)
        start = first_step(obs, monkeypatch)
        assert not start.converged
        ll, ll_start = (conditional_log_likelihood(r.mu_hat, obs) for r in (res, start))
        assert ll >= ll_start - KKT_TOL

    @pytest.mark.parametrize(
        "x", [[10.0, 9.0, 8.0, 0.0], [2.0, 1.6, 1.5, 0.2, 0.1, -0.4]], ids=["p4", "p6"]
    )
    def test_every_step_ascends(self, x, monkeypatch):
        """The unit step needs no line search: stopping after k steps, for
        each k, gives a nondecreasing log-likelihood (up to quadrature noise),
        and the capped solve reports its last iterate."""
        obs = ObservedSample(np.array(x), 0.7)
        lls = []
        for k in range(1, 16):
            monkeypatch.setattr(estimator, "MAX_ITERATIONS", k)
            try:
                res = ccmle(obs)
            except MaxIterationsExceeded as exc:
                res = exc.result
                assert not res.converged and res.iterations == k
            lls.append(conditional_log_likelihood(res.mu_hat, obs))
        assert np.all(np.diff(lls) >= -1e-9)

    def test_newton_fallback_converges_to_the_same_estimate(self, monkeypatch):
        obs = ObservedSample(np.array([3.0, 1.0, 0.2, -2.5]), 1.0)
        exact = ccmle(obs)
        assert exact.fallbacks == 0
        shrink_covariance(monkeypatch)
        res = ccmle(obs)
        assert res.converged and res.fallbacks > 0 and res.groups == exact.groups
        # both stop within KKT_TOL of their unit step
        assert np.abs(res.mu_hat - exact.mu_hat).max() <= KKT_TOL * obs.sigma

    def test_cap_right_after_a_fallback_raises_with_the_last_unit_step(self, monkeypatch):
        # capped at the sweep of the first candidate that does not ascend, the solve
        # sweeps no more and returns the unit step of the iterate kept one sweep before
        obs = ObservedSample(np.array([3.0, 1.0, 0.2, -2.5]), 1.0)
        shrink_covariance(monkeypatch)
        capped = [None]  # capped[cap], from cap 1
        while capped[-1] is None or capped[-1].fallbacks == 0:
            assert len(capped) <= 10, "no fallback in 10 sweeps"
            monkeypatch.setattr(estimator, "MAX_ITERATIONS", len(capped))
            with pytest.raises(MaxIterationsExceeded) as info:
                ccmle(obs)
            capped.append(info.value.result)
        cap = len(capped) - 1
        kept, fallen = capped[-2:]
        assert cap >= 2 and (kept.iterations, kept.fallbacks) == (cap - 1, 0)
        assert (fallen.iterations, fallen.fallbacks) == (cap, 1) and not fallen.converged
        assert np.array_equal(fallen.mu_hat, kept.mu_hat)
        assert fallen.kkt_residual == kept.kkt_residual > KKT_TOL

    @pytest.mark.parametrize(
        "x", [[3.0, 2.5, 1.0], [2.0, 1.6, 1.5, 0.2, 0.1, -0.4]], ids=["p3", "p6"]
    )
    def test_iterations_count_gradient_calls(self, x, monkeypatch):
        """``iterations`` counts evaluations of the solver's rule, each of
        which gives the gradient; the one-time sweep at the origin for e_p is
        not charged to the solve, whether or not e_p is cached yet."""
        real = estimator.conditional_moments
        calls = []

        def counted(mu, covariance=True):
            calls.append(mu)
            return real(mu, covariance=covariance)

        monkeypatch.setattr(estimator, "conditional_moments", counted)
        estimator._expected_order_statistics.cache_clear()
        for origin_sweeps in (1, 0):  # e_p computed, then cached
            calls.clear()
            res = ccmle(ObservedSample(np.array(x), 0.7))
            assert res.converged and res.iterations == len(calls) - origin_sweeps > 1
            assert np.array_equal(calls[0], np.zeros(len(x))) == (origin_sweeps == 1)

    @pytest.mark.parametrize(
        "x,rule",
        [
            ([3.0, 2.5, 1.0], "_orthant_moments"),
            ([3.0, 2.5, 1.0, 0.2], "_trivariate_moments"),
            ([2.0, 1.6, 1.5, 0.2, 0.1, -0.4], "_panel_moments"),
        ],
        ids=["p3", "p4", "p6"],
    )
    def test_one_sweep_per_iteration(self, x, rule, monkeypatch):
        """The solve evaluates no checked objective: each iteration's rule is
        the only work, the closed form at p = 3 and 4 and one quadrature
        sweep with no error pass for p >= 5. A p = 3 or 4 solve runs no
        quadrature at all."""
        # the three rules, and the checked path's entry, which no solve runs
        spied = "_orthant_moments", "_trivariate_moments", "_panel_moments", "_checked"
        calls = {name: [] for name in spied}

        def counted(real, seen):
            def call(*args, **kwargs):
                seen.append(args)
                return real(*args, **kwargs)

            return call

        for name, seen in calls.items():
            monkeypatch.setattr(ordering, name, counted(getattr(ordering, name), seen))
        estimator._expected_order_statistics.cache_clear()
        for origin_sweeps in (1, 0):  # e_p computed, then cached
            for seen in calls.values():
                seen.clear()
            res = ccmle(ObservedSample(np.array(x), 0.7))
            assert res.converged and res.iterations == len(calls[rule]) - origin_sweeps > 1
            assert sum(len(seen) for seen in calls.values()) == len(calls[rule])

    def test_clustered_p20_converges_in_few_sweeps(self):
        # the Hessian -Cov(X | order) is ill-conditioned on this cone: the
        # unit projected step alone needs 443 sweeps
        res = ccmle(ObservedSample(-0.3 * np.arange(20.0), 1.0))
        assert res.converged and res.iterations <= 10

    def test_near_ties_converge_in_few_sweeps(self):
        rng = np.random.default_rng(2024)
        worst = 0
        for _ in range(200):
            res = ccmle(ObservedSample(rng.normal([10.0, 9.5, 9.0], 1.0), 1.0))
            assert res.converged
            worst = max(worst, res.iterations)
        assert worst <= 8

    def test_labels_restored(self):
        res = ccmle(ObservedSample(np.array([0.0, 10.0]), 1.0))
        est = res.in_original_order()
        assert est[1] > est[0]
        assert est[1] > 9.9

    def test_tie_groups_reported(self):
        res = ccmle(ObservedSample(np.array([10.0, 9.0, 1.0, 0.0]), 1.0))
        assert res.groups == [[0, 1], [2, 3]]
        assert res.mu_hat[0] == res.mu_hat[1]
        assert res.mu_hat[2] == res.mu_hat[3]

    @settings(deadline=None, max_examples=40)
    @given(
        p=st.integers(3, 10),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([0.05, 0.5, 2.0]),
        near=st.sampled_from([0.0, 1e-12, 1e-6]),
    )
    def test_groups_are_runs_of_equal_estimates(self, p, seed, spread, near):
        """The tie groups, PAVA's blocks, are the maximal runs of exactly equal
        entries of the estimate: on cones that pool (small spread) and cones
        with observations tied or near-tied (gaps of ``near`` sigma)."""
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(spread, p - 1)
        gaps[rng.random(p - 1) < 0.3] = near
        x = 5.0 - np.concatenate([[0.0], np.cumsum(gaps)])
        res = ccmle(ObservedSample(rng.permutation(x), 0.8))
        runs = [len(list(run)) for _, run in itertools.groupby(res.mu_hat.tolist())]
        assert [len(g) for g in res.groups] == runs
        assert list(itertools.chain(*res.groups)) == list(range(p))

    def test_blocks_that_meet_at_one_value_join(self):
        # 1e20 sigma out the gradient is below the ulp of z, so z - grad ties
        # its first two entries exactly without pooling them
        res = ccmle(ObservedSample(np.array([1e20, 1e20, 0.0]), 1.0))
        assert res.groups == [[0, 1], [2]] and res.mu_hat[0] == res.mu_hat[1]

    def test_duplicate_observations_pool(self):
        res = ccmle(ObservedSample(np.array([5.0, 5.0, 0.0]), 1.0))
        assert res.mu_hat[0] == res.mu_hat[1]

    def test_far_outlier_leaves_block_alone(self):
        # one observation 1e3 sigma above a p = 5 block: the gap between them
        # holds no nodes, so the block is solved as finely as on its own
        block = np.array([0.9, 0.4, -0.3, -1.2, -1.5]) * 0.7
        res = ccmle(ObservedSample(np.append(block, 700.0), 0.7))
        alone = ccmle(ObservedSample(block, 0.7)).mu_hat
        assert res.converged
        assert np.abs(res.mu_hat[1:] - alone).max() / 0.7 <= 1e-4


def ladder(step: float, p: int) -> np.ndarray:
    """p observations ``step`` sigma apart at sigma = 1: a clustered cone that ties its ends."""
    return -step * np.arange(float(p))


def counted_moments(monkeypatch) -> list:
    """The solver's rule, recording each call's point and its ``covariance``."""
    real = estimator.conditional_moments
    calls = []

    def counted(mu, covariance=True):
        calls.append((mu.copy(), covariance))
        return real(mu, covariance=covariance)

    monkeypatch.setattr(estimator, "conditional_moments", counted)
    return calls


class TestNewtonStep:
    """Each Newton step is solved on the face it lands on, and a short one at p > 4 leads
    to a sweep without C."""

    @pytest.mark.parametrize("p", [5, 10, 20])
    def test_step_lands_on_the_face_it_was_solved_on(self, p):
        rng = np.random.default_rng([34, p])
        pooled = 0
        for _ in range(40):
            q = np.linalg.qr(rng.normal(size=(p, p)))[0]
            cov = (q * rng.uniform(0.05, 1.0, p)) @ q.T  # symmetric, 0 < C <= I
            rhs = np.sort(rng.normal(0.0, 1.0, p))[::-1]
            sizes = estimator._pava(rhs + rng.normal(0.0, 0.5, p))[1]
            face = np.repeat(np.eye(len(sizes)), sizes, axis=0)
            first = estimator._pava(face @ np.linalg.solve(face.T @ cov @ face, face.T @ rhs))
            pooled += first[1] != sizes
            step = estimator._newton(cov, rhs, sizes)
            landed = estimator._pava(step)[1]
            assert estimator._newton(cov, rhs, landed).tobytes() == step.tobytes()
            if len(landed) < p:  # one solve on the face it landed on gives it
                face = np.repeat(np.eye(len(landed)), landed, axis=0)
                again = face @ np.linalg.solve(face.T @ cov @ face, face.T @ rhs)
                assert again.tobytes() == step.tobytes()
        assert pooled >= 10  # the first projection pools blocks of B w

    def test_only_the_last_sweep_skips_the_covariance(self, monkeypatch):
        # its last Newton step is 1.3e-6 sigma long; the p = 10 ladder's, 2.3e-3, is
        # above LAST_STEP, and every sweep there builds C
        estimator._expected_order_statistics(20)
        calls = counted_moments(monkeypatch)
        res = ccmle(ObservedSample(ladder(0.3, 20), 1.0))
        flags = [covariance for _, covariance in calls]
        assert res.converged and flags == [True] * (res.iterations - 1) + [False]

    def test_a_missed_light_sweep_costs_one_sweep(self, monkeypatch):
        estimator._expected_order_statistics(10)
        calls = counted_moments(monkeypatch)
        default = ccmle(ObservedSample(ladder(0.5, 10), 1.0))
        monkeypatch.setattr(estimator, "LAST_STEP", 1e9)  # every Newton step's sweep is light
        calls.clear()
        res = ccmle(ObservedSample(ladder(0.5, 10), 1.0))
        flags = [covariance for _, covariance in calls]
        misses = flags[:-1].count(False)
        assert res.converged and res.fallbacks == 0 and misses >= 2 and not flags[-1]
        assert res.iterations == len(calls) == default.iterations + misses
        for (light, covariance), (again, _) in zip(calls, calls[1:]):
            if not covariance:  # the kept point, swept again with C
                assert again.tobytes() == light.tobytes()
        assert res.groups == default.groups
        assert np.abs(res.mu_hat - default.mu_hat).max() <= KKT_TOL


@pytest.mark.parametrize(
    "exc",
    [MaxIterationsExceeded("cap", None), ConvergenceFailure("tolerance")],
    ids=["max-iterations", "convergence"],
)
def test_solver_errors_pickle(exc):
    # an error raised in a pool worker reaches the parent process pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert vars(back) == vars(exc)

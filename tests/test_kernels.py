import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special

from selex.ordering import SQRT_2, _closed_form_p2, _erfcx, inverse_mills

REL = 4e-15  # scipy.special is the oracle; the kernel reads about 1.1e-15
TINY = np.finfo(float).tiny


def assert_close(actual, expected):
    """Within REL of the oracle, or within TINY where the oracle is below it
    (floats carry no relative precision there); infinities exactly."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    infinite = np.isinf(expected)
    assert np.array_equal(actual[infinite], expected[infinite])
    err = np.abs(actual[~infinite] - expected[~infinite])
    assert np.all(err <= REL * np.abs(expected[~infinite]) + TINY), err.max()


class TestErfcx:
    def test_matches_scipy(self):
        x = np.concatenate([np.linspace(0.0, 10.0, 200_001), np.logspace(-300, 300, 60_001)])
        # Cody's range ends and their neighbours
        edges = np.array([0.46875, 4.0])
        x = np.concatenate([x, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 5.0)])
        assert_close(_erfcx(x), special.erfcx(x))

    def test_tail_ends(self):
        # a numpy warning would fail the test (pyproject: RuntimeWarning is an error)
        out = _erfcx(np.array([np.inf, 1e308, 0.0]))
        assert out[0] == 0.0 and out[2] == 1.0
        assert out[1] == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e308), rel=1e-6)
        assert np.isnan(_erfcx(np.array([np.nan]))[0])


class TestAgainstScipy:
    def test_inverse_mills(self):
        z = np.linspace(-45.0, 45.0, 180_001)
        right, left = z[z >= 0], z[z < 0]
        expected = np.concatenate([
            np.exp(-0.5 * left * left) / math.sqrt(2.0 * math.pi) / special.ndtr(-left),
            math.sqrt(2.0 / math.pi) / special.erfcx(right / SQRT_2),
        ])
        assert_close(inverse_mills(z), expected)

    def test_inverse_mills_ends(self):
        assert inverse_mills(np.inf) == np.inf
        assert inverse_mills(-np.inf) == 0.0
        assert inverse_mills(1e300) == pytest.approx(1e300, rel=REL)  # g(z) ~ z + 1/z

    def test_p2_closed_form(self):
        targets = np.concatenate([np.linspace(-1e3, 1e3, 20_001), [-1e308, 1e308]])
        gaps, values, log_values = [], [], []
        for u in targets.tolist():
            h = u / SQRT_2  # the means (-h, h) put u as the scaled gap
            value, log_value, _ = _closed_form_p2(np.array([-h, h]))
            gaps.append(h / SQRT_2 - -h / SQRT_2)  # as _closed_form_p2 forms it
            values.append(value)
            log_values.append(log_value)
        assert_close(values, special.ndtr(-np.array(gaps)))
        assert_close(log_values, special.log_ndtr(-np.array(gaps)))

    def test_normal_quantile(self):
        normal = NormalDist()
        p = np.concatenate([
            np.logspace(-300, math.log10(0.5), 20_001),
            np.linspace(0.0, 1.0, 20_001)[1:-1],
            1.0 - np.logspace(-16, math.log10(0.5), 2_001),
        ])
        assert_close([normal.inv_cdf(q) for q in p.tolist()], special.ndtri(p))

    def test_normal_cdf_levels(self):
        # the bootstrap interval takes its quantile levels from NormalDist().cdf,
        # which goes through erf: accurate in absolute terms, which is how
        # np.quantile reads a level, not relative to a small one
        z = np.linspace(-10.0, 10.0, 20_001)
        levels = np.array([NormalDist().cdf(v) for v in z.tolist()])
        assert np.all(np.abs(levels - special.ndtr(z)) <= REL)


class TestInverseMills:
    def test_at_zero(self):
        assert inverse_mills(0.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-14)

    def test_right_tail_asymptotic(self):
        # g(z) ~ z + 1/z for large z
        assert inverse_mills(30.0) == pytest.approx(30.0 + 1.0 / 30.0, abs=1e-3)

    def test_left_tail_is_pdf(self):
        pdf = math.exp(-50.0) / math.sqrt(2 * math.pi)  # phi(-10)
        assert inverse_mills(-10.0) == pytest.approx(pdf, rel=1e-10)
        assert inverse_mills(-10.0) <= 8e-23

    def test_stable_to_forty(self):
        for z in (35.0, 40.0):
            v = inverse_mills(z)
            assert math.isfinite(v) and v > 0
        # below about -38 the true value drops under the smallest subnormal;
        # underflow to zero is the best float64 can represent
        assert inverse_mills(-40.0) >= 0.0

    def test_dominates_z_and_increasing(self):
        grid = np.linspace(-37.0, 40.0, 2001)
        vals = np.array([inverse_mills(z) for z in grid])
        assert np.all(vals > np.maximum(grid, 0.0))
        assert np.all(np.diff(vals) > 0)

    def test_convexity_on_grid(self):
        grid = np.linspace(-20, 20, 801)
        vals = np.array([inverse_mills(z) for z in grid])
        chord = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] <= chord + 1e-12)

    def test_derivative_at_zero(self):
        h = 1e-5
        num = (inverse_mills(h) - inverse_mills(-h)) / (2 * h)
        assert num == pytest.approx(2.0 / math.pi, abs=1e-6)


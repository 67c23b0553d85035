import math

import numpy as np
import pytest

from selex.kernels import inverse_mills, std_normal_pdf


class TestPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_at_one(self):
        # direct evaluation of (1/sqrt(2 pi)) exp(-1/2)
        assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_symmetry(self):
        for z in np.linspace(0.1, 6.0, 25):
            assert std_normal_pdf(z) == std_normal_pdf(-z)

    def test_positive(self):
        assert std_normal_pdf(38.0) > 0


class TestInverseMills:
    def test_at_zero(self):
        assert inverse_mills(0.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-14)

    def test_right_tail_asymptotic(self):
        # g(z) ~ z + 1/z for large z
        assert inverse_mills(30.0) == pytest.approx(30.0 + 1.0 / 30.0, abs=1e-3)

    def test_left_tail_is_pdf(self):
        assert inverse_mills(-10.0) == pytest.approx(std_normal_pdf(-10.0), rel=1e-10)
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


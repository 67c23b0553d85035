import math

import numpy as np
import pytest

from selex.ordering import inverse_mills


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


"""Scalar numeric primitives: normal density and inverse Mills ratio.

These are the shared building blocks for the ordering-probability and
estimation modules. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

from scipy.special import erfcx

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI
SQRT_2 = math.sqrt(2.0)


class ConvergenceFailure(RuntimeError):
    """Quadrature failed to meet tolerance; carries the best estimate found."""

    def __init__(self, message: str, value: float, err_est: float):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


def std_normal_pdf(z: float) -> float:
    """Standard normal density phi(z)."""
    return INV_SQRT_2PI * math.exp(-0.5 * z * z)


def inverse_mills(z: float) -> float:
    """Inverse Mills ratio g(z) = phi(z) / (1 - Phi(z)).

    For z >= 0 uses the scaled complementary error function, which is exact
    and stable far into the right tail (g(z) ~ z + 1/z for large z). For
    z < 0 the denominator is close to 1 and the naive form is safe.
    """
    if z >= 0:
        return math.sqrt(2.0 / math.pi) / erfcx(z / SQRT_2)
    return std_normal_pdf(z) / (0.5 * math.erfc(z / SQRT_2))

"""Exact reference values that tests check the floating-point code against.

A point is a Gaussian rational p + qi with ``Fraction`` parts, so a complex
double converts exactly (``GaussianRational.of``) and every rational step
is exact. The one irrational step, the square root in the Szegő Grammian,
is taken in ``SQRT_DIGITS``-digit ``decimal``: its relative error, about
1e-50, is far below the double rounding unit u = 2**-53.
"""

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

SQRT_DIGITS = 50
U = 2.0**-53


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, z) -> "GaussianRational":
        """``z`` itself if it is a GaussianRational, else the exact value of ``complex(z)``."""
        if isinstance(z, cls):
            return z
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n, d = self * other.conj(), other.abs2()
        return GaussianRational(n.re / d, n.im / d)

    def conj(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def scale(self, r: Fraction):
        return GaussianRational(self.re * r, self.im * r)


ONE = GaussianRational(Fraction(1))


def pick_matrix(points) -> list:
    """The Pick matrix 1 / (1 - z_i conj(z_j)) of points in the open disk, exactly."""
    z = [GaussianRational.of(p) for p in points]
    return [[ONE / (ONE - zi * zj.conj()) for zj in z] for zi in z]


def sqrt_rational(x: Fraction) -> Fraction:
    """The square root of a rational x >= 0, rounded to ``SQRT_DIGITS`` significant digits."""
    ctx = Context(prec=SQRT_DIGITS)
    return Fraction(ctx.sqrt(ctx.divide(Decimal(x.numerator), Decimal(x.denominator))))


def szego_matrix(points) -> list:
    """The Szegő Grammian sqrt((1 - |z_i|^2)(1 - |z_j|^2)) / (1 - z_i conj(z_j)),
    exact but for the rounding of each square root to ``SQRT_DIGITS`` digits."""
    z = [GaussianRational.of(p) for p in points]
    s = [1 - w.abs2() for w in z]
    pick = pick_matrix(z)
    return [[pick[i][j].scale(sqrt_rational(s[i] * s[j])) for j in range(len(z))] for i in range(len(z))]


def relative_error(approx, exact: GaussianRational) -> float:
    """|approx - exact| / |exact|, with the difference taken exactly."""
    return math.sqrt((GaussianRational.of(approx) - exact).abs2() / exact.abs2())

"""Reference Gaussian rational with two ``Fraction`` parts.

The kernel's ``QQi`` stores ``(a + b*i)/d`` as three ints; this is the
earlier ``Fraction``-based class, kept as the oracle that
``tests/test_ncexpr.py`` compares the kernel's arithmetic and printing
against.  It is not used by the package.
"""

from __future__ import annotations

from fractions import Fraction


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact arithmetic only: floats are not accepted here")
    return Fraction(value)


class RefQQi:
    """A Gaussian rational: ``re + im*i`` with exact ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- helpers ------------------------------------------------------------
    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "RefQQi":
        """Build from parts that are already ``Fraction``s, skipping the
        coercion and validation of ``__init__``."""
        q = object.__new__(cls)
        q.re = re
        q.im = im
        return q

    @staticmethod
    def _coerce(other) -> "RefQQi | None":
        if isinstance(other, RefQQi):
            return other
        if isinstance(other, (int, Fraction)):
            return RefQQi(other)
        return None

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefQQi._of(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefQQi._of(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        # Rule coefficients are mostly purely real or purely imaginary;
        # the cross products of a zero part are skipped.
        if not b:
            return RefQQi._of(a * c, a * d)
        if not a:
            return RefQQi._of(-(b * d), b * c)
        if not d:
            return RefQQi._of(a * c, b * c)
        if not c:
            return RefQQi._of(-(b * d), a * d)
        return RefQQi._of(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return RefQQi._of(-self.re, -self.im)

    def inverse(self) -> "RefQQi":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return RefQQi(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"RefQQi({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return _format_fraction(self.re)
        mag = abs(self.im)
        body = "i" if mag == 1 else f"{_format_fraction(mag)}*i"
        if self.re:
            joiner = "+" if self.im > 0 else "-"
            return f"{_format_fraction(self.re)}{joiner}{body}"
        return body if self.im > 0 else f"-{body}"


def format_coefficient(c: RefQQi, tail: list[str]) -> tuple[int, str]:
    """The coefficient part of the earlier ``ncexpr._format_term``: (sign,
    body) for a monomial whose central and atom texts are ``tail``."""
    if c.re and c.im:
        return 1, "*".join([f"({c})"] + tail)
    if c.im:
        sign = 1 if c.im > 0 else -1
        return sign, "*".join([str(c if sign > 0 else -c)] + tail)
    sign = 1 if c.re > 0 else -1
    mag = abs(c.re)
    if mag == 1 and tail:
        return sign, "*".join(tail)
    return sign, "*".join([_format_fraction(mag)] + tail)

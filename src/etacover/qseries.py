"""Sparse exact q-expansions on a fixed fractional lattice.

A QSeries holds finitely many terms c * q^(n/D) with integer coefficients
plus an explicit truncation order: the series is asserted exact for all
exponents strictly below `trunc` and says nothing beyond it.  Keeping the
truncation in the object means precision mistakes surface as exceptions
instead of silently-true comparisons.

Integers suffice because every series the package builds is an eta
quotient led by +-1: the theta and partition series of E_g, the
pentagonal series of eta, and their products, powers and (unit-led)
inverses all stay in q^L * Z[[q^(1/D)]].  A product is one integer
convolution; an inverse is one integer recurrence, b_n = -c * sum a_m b_(n-m),
and needs a leading coefficient c of +-1.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm


class PrecisionError(ValueError):
    """A comparison or evaluation asked for more precision than is stored."""


class QSeries:
    """Finite q-expansion sum(coeffs[n] * q^(n/denom)) + O(q^trunc)."""

    __slots__ = ("denom", "coeffs", "trunc")

    def __init__(self, denom: int, coeffs: dict, trunc):
        if denom < 1:
            raise ValueError(f"lattice denominator must be >= 1, not {denom}")
        t = Fraction(trunc)
        cut = ceil(t * denom)  # lattice numerators n >= cut are at or past trunc
        kept = {}
        for n, c in coeffs.items():
            if c == 0 or n >= cut:
                continue  # zero, or beyond what we certify; drop
            kept[n] = int(c)
            if kept[n] != c:
                raise ValueError(f"coefficient {c} is not an integer")
        self.denom = denom
        self.coeffs = kept
        self.trunc = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, denom: int, trunc) -> "QSeries":
        return cls(denom, {0: 1}, trunc)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> tuple[Fraction, int]:
        """(exponent, coefficient) of the lowest stored term."""
        if not self.coeffs:
            raise ValueError("leading term of a zero series")
        n = min(self.coeffs)
        return Fraction(n, self.denom), self.coeffs[n]

    def _lead_or_trunc(self) -> Fraction:
        """Lowest exponent, with the truncation as the zero-series fallback."""
        if not self.coeffs:
            return self.trunc
        return Fraction(min(self.coeffs), self.denom)

    # -- lattice plumbing --------------------------------------------------

    def rescale(self, denom: int) -> "QSeries":
        """Same series on a finer lattice; denom must be a multiple."""
        if denom % self.denom:
            raise ValueError(f"lattice 1/{denom} does not refine 1/{self.denom}")
        f = denom // self.denom
        return QSeries(denom, {n * f: c for n, c in self.coeffs.items()}, self.trunc)

    def shift(self, exponent) -> "QSeries":
        """Multiply by q^exponent (any rational; the lattice is refined)."""
        e = Fraction(exponent)
        d = lcm(self.denom, e.denominator)
        s = self.rescale(d)
        step = int(e * d)
        return QSeries(d, {n + step: c for n, c in s.coeffs.items()}, s.trunc + e)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(self.denom, {n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __add__(self, other: "QSeries") -> "QSeries":
        d = lcm(self.denom, other.denom)
        a, b = self.rescale(d), other.rescale(d)
        out = dict(a.coeffs)
        for n, c in b.coeffs.items():
            out[n] = out.get(n, 0) + c
        return QSeries(d, out, min(a.trunc, b.trunc))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, coeff: int) -> "QSeries":
        return QSeries(self.denom, {n: coeff * c for n, c in self.coeffs.items()}, self.trunc)

    def __mul__(self, other: "QSeries") -> "QSeries":
        d = lcm(self.denom, other.denom)
        a, b = self.rescale(d), other.rescale(d)
        # each factor is exact below its trunc, so the product is exact below
        # min(trunc_a + lead_b, trunc_b + lead_a)
        t = min(a.trunc + b._lead_or_trunc(), b.trunc + a._lead_or_trunc())
        cut = ceil(t * d)
        bs = sorted(b.coeffs.items())
        out = {}
        for n1, c1 in a.coeffs.items():
            for n2, c2 in bs:
                n = n1 + n2
                if n >= cut:
                    break  # bs is sorted, so every later term is cut too
                out[n] = out.get(n, 0) + c1 * c2
        return QSeries(d, out, t)

    def inverse(self) -> "QSeries":
        """Reciprocal of q^e * sum a_m q^(m/denom) with a_0 = c = +-1 = 1/c: it is
        q^-e * sum b_n q^(n/denom), b_0 = c and b_n = -c * sum_{0<m<=n} a_m b_(n-m),
        with n over the multiples of the gcd of the m where a_m != 0 only."""
        if not self.coeffs:
            raise ValueError("cannot invert a zero series")
        n0 = min(self.coeffs)
        c = self.coeffs[n0]
        if c not in (1, -1):
            raise ValueError(f"leading coefficient {c} is not a unit of Z")
        step = gcd(*(n - n0 for n in self.coeffs)) or 1
        unit = sorted(((n - n0) // step, a) for n, a in self.coeffs.items() if n != n0)
        b = [c]
        for k in range(1, (ceil(self.trunc * self.denom) - n0 - 1) // step + 1):
            b.append(-c * sum(a * b[k - m] for m, a in unit if m <= k))
        coeffs = {k * step - n0: bk for k, bk in enumerate(b)}
        return QSeries(self.denom, coeffs, self.trunc - 2 * Fraction(n0, self.denom))

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int):
            raise TypeError("QSeries powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            rel = self.trunc - self._lead_or_trunc()
            return QSeries.one(self.denom, rel)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "QSeries", upto) -> bool:
        """Exact term-by-term agreement for all exponents < upto.

        Raises PrecisionError when upto exceeds either truncation: a
        comparison that could miss stored-side errors must never pass.
        """
        t = Fraction(upto)
        if t > self.trunc or t > other.trunc:
            raise PrecisionError(
                f"comparison to O(q^{t}) exceeds truncations "
                f"{self.trunc} / {other.trunc}"
            )
        d = lcm(self.denom, other.denom)
        a, b = self.rescale(d), other.rescale(d)
        cut = ceil(t * d)
        for n in set(a.coeffs) | set(b.coeffs):
            if n >= cut:
                continue
            if a.coeffs.get(n, 0) != b.coeffs.get(n, 0):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.trunc != other.trunc:
            return False
        return self.agrees_with(other, self.trunc)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms by increasing exponent, then the O-term."""
        parts = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            e = Fraction(n, self.denom)
            mag = -c if c < 0 else c
            body = str(mag) if e == 0 else f"{mag}*q^({e})"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        tail = f"O(q^({self.trunc}))"
        if not parts:
            return tail
        return " ".join(parts) + " + " + tail

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QSeries({self.render()})"

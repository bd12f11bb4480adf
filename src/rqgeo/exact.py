"""Exact arithmetic kernel.

Integer 2x2 matrices, primality and squarefree parts, and the real
quadratic irrationalities (u + v*sqrt(D))/w in which the field's units
and the roots of forms are reported.  Every comparison is decided by
integer arithmetic; no floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "QuadIrr",
    "Mat2",
    "squarefree_part",
    "is_prime",
]


def is_prime(n):
    """Primality by trial division (levels are small)."""
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def squarefree_part(n):
    """Split n > 0 as s * f**2 with s squarefree; returns (s, f)."""
    assert n > 0
    s, f = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                s *= p
        p += 1 if p == 2 else 2
    return s * n, f


class QuadIrr:
    """(u + v*sqrt(D))/w, canonicalized so equality is structural.

    Canonical shape: w > 0, gcd(u, v, w) = 1, D squarefree.  A rational
    value is stored with v = 0 and D = 1.  Instances are immutable.
    """

    __slots__ = ("u", "v", "w", "D")

    def __init__(self, u, v, w, D):
        if w == 0:
            raise ZeroDivisionError("zero denominator")
        if D <= 0:
            raise ValueError("D must be positive")
        s, f = squarefree_part(D)
        v *= f
        if v == 0:
            s = 1
        if s == 1:
            # perfect-square radicand collapses to a rational
            u, v = u + v, 0
        if w < 0:
            u, v, w = -u, -v, -w
        g = math.gcd(math.gcd(abs(u), abs(v)), w)
        object.__setattr__(self, "u", u // g)
        object.__setattr__(self, "v", v // g)
        object.__setattr__(self, "w", w // g)
        object.__setattr__(self, "D", s)

    def __setattr__(self, *args):
        raise AttributeError("QuadIrr is immutable")

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 1)

    @property
    def is_rational(self):
        return self.v == 0

    def as_fraction(self):
        assert self.v == 0
        return Fraction(self.u, self.w)

    def conjugate(self):
        return QuadIrr(self.u, -self.v, self.w, self.D)

    def norm(self):
        """Product with the conjugate, as an exact Fraction."""
        return Fraction(self.u * self.u - self.v * self.v * self.D,
                        self.w * self.w)

    def trace(self):
        return Fraction(2 * self.u, self.w)

    def sign(self):
        u, v = self.u, self.v
        if v == 0:
            return 0 if u == 0 else (1 if u > 0 else -1)
        if u == 0:
            return 1 if v > 0 else -1
        if (u > 0) == (v > 0):
            return 1 if u > 0 else -1
        # opposite signs: compare u^2 against v^2 D (never equal, D nonsquare)
        return (1 if u > 0 else -1) if u * u > v * v * self.D else (1 if v > 0 else -1)

    def _coerce(self, other):
        if isinstance(other, QuadIrr):
            if self.v and other.v and self.D != other.D:
                raise ValueError("incompatible radicands %d, %d" % (self.D, other.D))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadIrr.from_fraction(other)
        return NotImplemented

    def _dom(self, other):
        return self.D if self.v else other.D

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadIrr(self.u * o.w + o.u * self.w,
                       self.v * o.w + o.v * self.w,
                       self.w * o.w, self._dom(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(-self.u, -self.v, self.w, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self._dom(o)
        return QuadIrr(self.u * o.u + self.v * o.v * D,
                       self.u * o.v + self.v * o.u,
                       self.w * o.w, D)

    __rmul__ = __mul__

    def inverse(self):
        # 1/x = conj(x) / N(x)
        n = self.u * self.u - self.v * self.v * self.D
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadIrr(self.u * self.w, -self.v * self.w, n, self.D) if n > 0 \
            else QuadIrr(-self.u * self.w, self.v * self.w, -n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def floor(self):
        """Exact integer floor."""
        if self.v == 0:
            return self.u // self.w
        # bracket v*sqrt(D) between consecutive integers
        t = math.isqrt(self.v * self.v * self.D)
        lo = t if self.v > 0 else -t - 1
        n = (self.u + lo) // self.w
        while _qcmp(self, n + 1) >= 0:
            n += 1
        while _qcmp(self, n) < 0:
            n -= 1
        return n

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadIrr.from_fraction(other)
        if not isinstance(other, QuadIrr):
            return NotImplemented
        return (self.u, self.v, self.w, self.D) == (other.u, other.v, other.w, other.D)

    def __hash__(self):
        if self.v == 0:
            return hash(Fraction(self.u, self.w))
        return hash((self.u, self.v, self.w, self.D))

    def __lt__(self, other):
        return _qcmp(self, other) < 0

    def __le__(self, other):
        return _qcmp(self, other) <= 0

    def __gt__(self, other):
        return _qcmp(self, other) > 0

    def __ge__(self, other):
        return _qcmp(self, other) >= 0

    def __repr__(self):
        if self.v == 0:
            return "QuadIrr(%d/%d)" % (self.u, self.w)
        return "QuadIrr((%d %+d*sqrt(%d))/%d)" % (self.u, self.v, self.D, self.w)

    def __float__(self):
        return (self.u + self.v * math.sqrt(self.D)) / self.w


def _qcmp(x, y):
    """Compare a QuadIrr with a QuadIrr or rational value exactly."""
    return (x - y).sign()


class Mat2:
    """Integer 2x2 matrix with nonzero determinant."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c == 0:
            raise ValueError("singular matrix")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __mul__(self, o):
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def __pow__(self, n):
        if n < 0:
            assert self.det == 1
            return self.adjugate() ** (-n)
        r = Mat2.identity()
        x = self
        while n > 0:
            if n & 1:
                r = r * x
            x = x * x
            n >>= 1
        return r

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, o):
        if not isinstance(o, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def mod(self, p):
        return (self.a % p, self.b % p, self.c % p, self.d % p)

    def __repr__(self):
        return "Mat2(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)

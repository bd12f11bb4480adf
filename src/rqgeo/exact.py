"""Exact arithmetic kernel: integer 2x2 matrices, primality and
squarefree parts.

The production path builds no quadratic irrational: units, forms and
matrices are integers.  ``QuadIrr``, the reference type of the root and
ideal oracles, lives in ``rqgeo.oracles``.
"""

from __future__ import annotations

import math

__all__ = [
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

"""Exact arithmetic kernel: integer 2x2 matrices and the integer
arithmetic of the package: factorization, divisors and their sums,
squarefree part, primality, square roots mod a prime and the extended gcd.

``factor`` is the package's one trial division; divisors and squarefree
parts are read off its prime powers.  Primality is a deterministic
Miller-Rabin test, exact below 3.3e24.  The production path
builds no quadratic irrational: units, forms and matrices are integers.
``QuadIrr``, the reference type of the root and ideal oracles, lives in
``rqgeo.oracles``.
"""

from __future__ import annotations

__all__ = [
    "Mat2",
    "factor",
    "divisors",
    "divisor_sums",
    "squarefree_part",
    "is_prime",
    "sqrt_mod",
    "xgcd",
]


def factor(n):
    """Yield (q, e) for each prime power q^e exactly dividing n > 0, by
    increasing q.  Each prime found is divided out, so the trial
    division stops at the square root of what is left."""
    assert n > 0
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            yield q, e
        q += 1 if q == 2 else 2
    if n > 1:
        yield n, 1


def divisors(n):
    """The positive divisors of n > 0, sorted."""
    ds = [1]
    for q, e in factor(n):
        ds = [d * q ** i for d in ds for i in range(e + 1)]
    return sorted(ds)


def divisor_sums(N, k, p=None):
    """[0, s(1), ..., s(N)], s(n) the sum of d^k over the divisors d of n
    prime to p (all when p is None): tau_p for k = 0, sigma1 for k = 1."""
    s = [0] * (N + 1)
    for d in range(1, N + 1):
        if p is None or d % p:
            for m in range(d, N + 1, d):
                s[m] += d ** k
    return s


def squarefree_part(n):
    """Split n > 0 as s * f**2 with s squarefree; returns (s, f)."""
    s, f = 1, 1
    for q, e in factor(n):
        s *= q ** (e % 2)
        f *= q ** (e // 2)
    return s, f


# Miller-Rabin to the prime bases up to 41 decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Primality by deterministic Miller-Rabin; raises ValueError for
    n >= _MR_BOUND, where these bases no longer decide it."""
    if n >= _MR_BOUND:
        raise ValueError("primality of %d is not decided at or above %d"
                         % (n, _MR_BOUND))
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def sqrt_mod(a, p):
    """A square root of a modulo the odd prime p, a a square mod p, by
    Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1): O(log p) squarings
    once a nonresidue is found, which is the least one."""
    a %= p
    if a == 0:
        return 0
    e = ((p - 1) & (1 - p)).bit_length() - 1    # p - 1 = q 2^e, q odd
    q = (p - 1) >> e
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    y, r = pow(z, q, p), e
    x = pow(a, (q - 1) // 2, p)
    b = a * x * x % p           # a^q, of order 2^m < 2^r
    x = a * x % p               # a^((q + 1)/2), so x^2 = a b
    while b != 1:
        m, t = 0, b
        while t != 1:
            t, m = t * t % p, m + 1
        assert m < r, "%d is not a square mod %d" % (a, p)
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __mul__(self, o):
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def __pow__(self, n):
        assert n >= 0, "negative power"
        r = Mat2(1, 0, 0, 1)
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

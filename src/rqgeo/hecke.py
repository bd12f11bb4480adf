"""Hecke correspondences at prime level.

Coset representatives for the determinant-n Hecke operator on Gamma0(p),
their partition into double cosets under the stabilizer of a closed
geodesic, and the pairing of a Hecke translate against a twisted cycle.

Each coset y Gamma0(p) has one lower-triangular representative
(A, 0; C, n/A), with A | n prime to p and C = p j, 0 <= j < n/A, and
that representative's (A, C) is the coset's label: the stabilizer's
orbits are walked on the labels in plain integers.  right_cosets
asserts that each representative is its own key, so a key that moves
the labels among themselves is caught as well as one that leaves them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import Mat2
from .field import _divisors, _xgcd
from .geodesic import ClosedGeodesic, intersect_winding_cycle

__all__ = [
    "right_cosets",
    "double_cosets",
    "hecke_translate",
    "pair_with_twisted_cycle",
    "sigma1",
]


def sigma1(n, p=None):
    """Sum of positive divisors of n; with p given, p-deprived version
    (only divisors coprime to p are counted)."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(d for d in _divisors(n) if p is None or d % p)


def _coset_key(a, b, c, d, n, p):
    """Label (A, C) of the coset (a, b; c, d) Gamma0(p) of a determinant-n
    matrix with p | c and p prime to a.

    Right multiplication by the element of Gamma0(p) with columns
    (x, p z) and (-b/A, a/A), where A = gcd(a, b) and x a/A + z p b/A = 1,
    clears the upper-right entry and leaves (A, 0; C, n/A); the elements
    that keep it lower triangular with A > 0 shift C by multiples of
    p n/A, so C is reduced mod p n/A.
    """
    A = math.gcd(a, b)
    g, x, z = _xgcd(a // A, p * (b // A))
    assert g == 1, "upper-left entry is not prime to p"
    return A, (c * x + d * p * z) % (p * (n // A))


@lru_cache(maxsize=None)
def right_cosets(n, p):
    """Representatives of the right Gamma0(p)-cosets of determinant-n
    matrices with lower-left divisible by p and upper-left prime to p:
    the lower-triangular (A, 0; p j, n/A) with A | n, p not dividing A
    and 0 <= j < n/A, one per coset (see _coset_key).  There are
    p^e sigma1(m) of them for n = p^e m, sigma1(n) when gcd(n, p) = 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    reps = tuple(Mat2(A, 0, p * j, n // A)
                 for A in _divisors(n) if A % p
                 for j in range(n // A))
    assert all(_coset_key(*y.entries(), n, p) == (y.a, y.c) for y in reps), \
        "coset rep is not its own key"
    return reps


def double_cosets(Q, n):
    """One coset representative per orbit of the stabilizer of Q acting
    on the right cosets by left multiplication."""
    p, (ga, gb, gc, gd) = Q.p, Q.gamma.entries()
    reps = right_cosets(n, p)
    seen = set()
    out = []
    for y in reps:
        key = (y.a, y.c)
        if key in seen:
            continue
        out.append(y)
        while key not in seen:
            seen.add(key)
            A, C = key
            D = n // A
            key = _coset_key(ga * A + gb * C, gb * D,
                             gc * A + gd * C, gd * D, n, p)
    assert len(seen) == len(reps), "stabilizer does not permute the cosets"
    return tuple(out)


def hecke_translate(Q, n):
    """The closed geodesics delta^{-1} Q over double coset reps delta.

    Each is the pulled-back form f o delta of Q's form f, whose sign
    carries the orientation pushed forward from Q.  The assert pushes it
    back through adj(delta) and asks for f itself up to a positive
    factor, that is, for adj(delta) to map Q's plus and minus roots onto
    the translate's.  Since f o delta o adj(delta) = det(delta)^2 f, that
    holds for every integer matrix delta: it catches a translate and a
    check built from different matrices or signs, never a wrong coset
    rep (right_cosets and double_cosets assert those).
    """
    out = []
    for delta in double_cosets(Q, n):
        newQ = ClosedGeodesic(Q.form.apply(delta), Q.p)
        assert newQ.form.apply(delta.adjugate()).primitive()[0] == Q.form, \
            "translate roots are not the images of Q's"
        out.append(newQ)
    return tuple(out)


def pair_with_twisted_cycle(cycle, n, algorithm=intersect_winding_cycle):
    """<T_n cycle, winding geodesic> for a cycle given as (coeff, Q)
    pairs: the coeff-weighted sum of winding intersection numbers over
    the Hecke translates of each closed geodesic Q."""
    total = 0
    for coeff, Q in cycle:
        s = 0
        for t in hecke_translate(Q, n):
            s += algorithm(t)
        total += coeff * s
    return total

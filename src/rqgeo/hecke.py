"""Hecke correspondences at prime level.

Coset representatives for the determinant-n Hecke operator on Gamma0(p),
their partition into double cosets under the stabilizer of a closed
geodesic, and the pairing of a Hecke translate against a twisted cycle.

The representatives come in closed form, column-Hermite matrices times
representatives of SL2(Z)/Gamma0(p).  Each coset y Gamma0(p) carries a
label, the Hermite forms of the lattices y Z^2 and y (Z + pZ), so the
stabilizer's permutation of the cosets is read off a dictionary.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import Mat2
from .field import _xgcd
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
    return sum(d for d in range(1, n + 1)
               if n % d == 0 and (p is None or d % p))


def _sl2_mod_gamma0(p):
    reps = [Mat2(1, 0, j, 1) for j in range(p)]
    reps.append(Mat2(0, -1, 1, 0))
    return reps


def _hermite(a, b, c, d, n):
    """Column-Hermite label (D, B) of the lattice spanned by the columns
    of (a, b; c, d), of determinant n > 0: the lattice has the basis
    (n/D, 0), (B, D) with D > 0 and 0 <= B < n/D."""
    g, u, v = _xgcd(c, d)
    return g, (u * a + v * b) % (n // g)


def _coset_label(y, n, p):
    """Label of the coset y Gamma0(p) of a determinant-n matrix: the
    Hermite forms of the lattices y Z^2 and y (Z + pZ).  Two cosets are
    equal exactly when their labels are, since the matrices of SL2(Z)
    that preserve Z + pZ form Gamma0(p)."""
    return (_hermite(y.a, y.b, y.c, y.d, n)
            + _hermite(y.a, p * y.b, y.c, p * y.d, n * p))


@lru_cache(maxsize=None)
def right_cosets(n, p):
    """Representatives of the right Gamma0(p)-cosets of determinant-n
    matrices with lower-left divisible by p and upper-left prime to p.

    Every determinant-n matrix lies in h SL2(Z) for exactly one column-
    Hermite h = (a, b; 0, d), 0 <= b < a, and SL2(Z) is the disjoint
    union of the cosets s Gamma0(p) over s in _sl2_mod_gamma0(p); the
    set is closed under right multiplication by Gamma0(p), so the
    products h s that lie in it are one representative per coset.
    There are sigma1(n) of them when gcd(n, p) = 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sl2 = _sl2_mod_gamma0(p)
    reps = []
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(a):
            h = Mat2(a, b, 0, d)
            for s in sl2:
                if d * s.c % p:     # the lower-left entry of h s
                    continue
                y = h * s
                if math.gcd(y.a, p) == 1:
                    reps.append(y)
    return tuple(reps)


@lru_cache(maxsize=None)
def _coset_index(n, p):
    """Map from coset label to position in right_cosets(n, p)."""
    reps = right_cosets(n, p)
    index = {_coset_label(y, n, p): i for i, y in enumerate(reps)}
    if len(index) != len(reps):
        raise RuntimeError("right coset representatives are not distinct")
    return index


def double_cosets(Q, n):
    """One coset representative per orbit of the stabilizer of Q acting
    on the right cosets by left multiplication."""
    p, gamma = Q.p, Q.gamma
    reps = right_cosets(n, p)
    index = _coset_index(n, p)
    perm = []
    for y in reps:
        j = index.get(_coset_label(gamma * y, n, p))
        if j is None:
            raise RuntimeError("stabilizer does not permute the cosets")
        perm.append(j)
    seen = [False] * len(reps)
    out = []
    for i in range(len(reps)):
        if seen[i]:
            continue
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
        out.append(reps[i])
    return tuple(out)


def hecke_translate(Q, n):
    """The closed geodesics delta^{-1} Q over double coset reps delta.

    Each is the pulled-back form, whose sign carries the orientation
    pushed forward from Q.  Pushing it back through adj(delta) gives a
    positive multiple of Q's form, which holds exactly when adj(delta)
    maps Q's plus and minus roots onto the translate's.
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

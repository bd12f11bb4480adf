"""Hecke correspondences at prime level.

Decompositions of <T_n Q, W>, W the winding geodesic from 0 to infinity.
Two move T_n onto W, whose images are fixed sums of unimodular edges, and
pair them with geodesic.manin_table(Q), giving <T_n Q, W> for n = 1..N
with no Hecke translate:

* manin_pairings: T_n W is the sum of the paths (b/d -> infinity) over
  the left cosets of T_n, cut into edges by Manin's continued-fraction
  trick; one walk sums the tables along every path, no edge count kept.
  The series reads these rows;
* merel_pairings: Merel's set X_n (Merel 1994), one pass over it for
  all the tables, adding each matrix's table entry at its bottom row.
  It shares no coset, continued fraction or packing code with
  manin_pairings, and verify checks every row of the series against
  it.  The two decompositions may differ by Manin relations, which
  every Manin table satisfies, so their pairings agree.

The third moves T_n onto Q: coset representatives for the
determinant-n Hecke operator on Gamma0(p), their partition into double
cosets under the stabilizer of a closed geodesic, and the pairing of the
Hecke translates against a twisted cycle, which rqgeo intersect and the
tests use; it counts every translate by both intersection algorithms,
looked up at call time.  It agrees with the other two when the
discriminant of Q is fundamental, as an RM point's is: a translate's
order then has no more units than Q's, so the translate's stabilizer is
the conjugate of Q's and one period of each translate is its share of
T_n Q.

Each coset y Gamma0(p) has one lower-triangular representative
(A, 0; C, n/A), with A | n prime to p and C = p j, 0 <= j < n/A, and
that representative's (A, C) is the coset's label (_coset_key).  The
stabilizer gamma of a geodesic acts on the labels by left
multiplication.  double_cosets walks each of gamma's orbits on the
labels of n once and keeps its first label in right_cosets order; it
asserts that each step lands on an unused label or closes the orbit, so
a key that leaves the labels is caught.  right_cosets asserts that each
representative is its own key, so a key that moves the labels among
themselves is caught as well.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add

from .exact import Mat2, divisor_sums, divisors, xgcd
from .geodesic import AlgorithmMismatch, ClosedGeodesic
from .geodesic import intersect_winding_cycle, intersect_winding_enum

__all__ = [
    "right_cosets",
    "manin_pairings",
    "merel_pairings",
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
    return divisor_sums(n, 1, p)[n]


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
    g, x, z = xgcd(a // A, p * (b // A))
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
                 for A in divisors(n) if A % p
                 for j in range(n // A))
    assert all(_coset_key(*y.entries(), n, p) == (y.a, y.c) for y in reps), \
        "coset rep is not its own key"
    return reps


def manin_pairings(tables, N, p):
    """<T_n Q, W>, n = 1..N, for the points Q of the given Manin tables:
    one tuple per table, indexed by n - 1.

    T_n W is minus the paths (infinity -> b/d) over the left cosets
    Gamma0(p)(a, b; 0, d), ad = n, p not dividing a, 0 <= b < d, through
    the convergents of b/d from 1/0: the edge h0/k0 -> h1/k1 has key
    p1_key(e k0, k1), e = h1 k0 - h0 k1 = -1, 1, -1, ...  A path depends
    only on b/d, so one depth-first walk over the continued fractions
    [0; q1, ..., qm], qm >= 2, of the reduced fractions of denominator at
    most N visits each once, carrying the path's table sums; v[d] adds
    them up over denominator d, and row n is -sum over d | n of
    tau_p(n / d) v[d], over the cosets with a | n / d.

    The h sums travel packed in one integer, table c in bits
    [c w, c w + w).  Packing is linear, so a row's lanes are exact while
    its entries stay below 2^(w - 1) in size: the cosets of n <= N have
    at most 2 N^3 edges, each weighing at most the largest table entry.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    top = max((abs(x) for t in tables for x in t.values()), default=0)
    w = (2 * N ** 3 * top).bit_length() + 1
    get = {k: sum(t.get(k, 0) << w * c for c, t in enumerate(tables))
           for k in set().union(*tables)}.get
    inv = [pow(x, -1, p) if x % p else 0 for x in range(N + 1)]
    v = [0] * (N + 1)
    v[1] = get(0, 0)                        # 0/1: the edge 1/0 -> 0/1
    stack = [(0, 1, 1, v[1])]               # k0, k1, e, the path's sums
    while stack:
        k0, k1, e, s = stack.pop()
        ek, q, d = e * k1, 1, k1 + k0
        while d <= N:
            i = inv[d]
            child = s + get(ek * i % p if i else p, 0)  # p1_key(e k1, d)
            if q > 1:
                v[d] += child
            if d + k1 <= N:
                stack.append((k1, d, -e, child))
            q, d = q + 1, d + k1
    tau = divisor_sums(N, 0, p)
    rows = [0] * (N + 1)
    for d, x in enumerate(v):
        if x:
            for m in range(1, N // d + 1):
                rows[m * d] -= tau[m] * x
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = [[] for _ in tables]
    for x in rows[1:]:
        for row in out:
            row.append(((x & mask) ^ half) - half)
            x = (x - row[-1]) >> w
    return tuple(map(tuple, out))


def merel_pairings(tables, N, p):
    """<T_n Q, W>, n = 1..N, for the points Q of the given Manin tables, by
    Merel's set X_n (Merel 1994, Universal Fourier expansions of modular
    forms): one tuple per table, indexed by n - 1.

    X_n holds the (a, b; c, d) with ad - bc = n, a > b >= 0 and
    d > c >= 0; each adds the entry of its bottom row (c : d), key
    p1_key(d, c), rows (0, 0) mod p left out.  The rows (0 : d), p not
    dividing d, come in closed form: a copies of key p at n = a d.  For
    0 < c < d and a >= 1 the a matrices (a, b; c, d) give the n from
    a (d - c) + c to a d in steps of c: diff marks such a run where it
    starts and one step past its end (a run cut at N needs no end), and
    a prefix sum of stride c adds the runs of c up, so the pass visits
    each bottom row and each run once, not each matrix.  The tables
    travel packed, table i in bits [i w, i w + w), exact since X_n has
    at most n^3 matrices.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    top = max((abs(x) for t in tables for x in t.values()), default=0)
    w = (N ** 3 * top).bit_length() + 1
    packed = {}
    for i, t in enumerate(tables):
        for k, x in t.items():
            packed[k] = packed.get(k, 0) + (x << w * i)
    get, vp = packed.get, packed.get(p, 0)
    inv = [pow(c, -1, p) if c % p else 0 for c in range(N + 1)]
    rows = [0] * (N + 1)
    for d in range(1, N + 1):
        if d % p:
            for n in range(d, N + 1, d):
                rows[n] += n // d * vp
    for c in range(1, N):
        ic, diff = inv[c], [0] * (N + 1)
        for d in range(c + 1, N + 1):
            v = get(d * ic % p, 0) if ic else vp if d % p else 0
            if v:
                for n in range(d, N + 1, d - c):    # starts a (d - c) + c
                    diff[n] += v
                for n in range(d + c, N + 1, d):    # ends a d + c
                    diff[n] -= v
        for n in range(2 * c + 1, N + 1):
            diff[n] += diff[n - c]
        rows = list(map(add, rows, diff))
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum(half << w * i for i in range(len(tables)))   # lanes >= 0
    return tuple(tuple(((x + bias) >> w * i & mask) - half for x in rows[1:])
                 for i in range(len(tables)))


def double_cosets(Q, n):
    """One coset representative per orbit of the stabilizer of Q acting
    on the right cosets by left multiplication: the first label of each
    orbit in right_cosets order, each orbit walked once."""
    if n < 1:
        raise ValueError("n must be positive")
    p = Q.p
    ga, gb, gc, gd = Q.gamma.entries()
    reps = right_cosets(n, p)
    free = {(y.a, y.c) for y in reps}
    out = []
    for y in reps:
        start = (y.a, y.c)
        if start not in free:
            continue
        free.remove(start)
        out.append(y)
        key = start
        while True:
            A, C = key
            D = n // A
            key = _coset_key(ga * A + gb * C, gb * D,
                             gc * A + gd * C, gd * D, n, p)
            if key == start:
                break
            assert key in free, "stabilizer does not permute the cosets"
            free.remove(key)
    return tuple(out)


def hecke_translate(Q, n):
    """The closed geodesics delta^{-1} Q over double coset reps delta,
    from double_cosets(Q, n).

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


def pair_with_twisted_cycle(cycle, n):
    """(<T_n cycle, winding geodesic>, number of translates) for a cycle
    given as (coeff, Q) pairs: the coeff-weighted sum of winding
    intersection numbers over the Hecke translates of each closed
    geodesic Q, its double cosets walked once, each translate counted by
    intersect_winding_cycle and intersect_winding_enum, looked up at call
    time; a disagreement raises AlgorithmMismatch naming the translate.

    The sum over one period of each translate is <T_n Q, W> only when
    the discriminant of Q is fundamental, as an RM point's is (see the
    module docstring).  Otherwise a translate's order can have a smaller
    conductor and more units, so its stabilizer can be larger than the
    conjugate of Q's and one period is then only part of its share of
    T_n Q.  For Q = [-4, 6, 9], disc 180 = 6^2 * 5, at p = 11 the
    translates give -40 and -60 at n = 2 and 3 where the Manin row gives
    -52 and -68."""
    total = count = 0
    for coeff, Q in cycle:
        for t in hecke_translate(Q, n):
            val, other = intersect_winding_cycle(t), intersect_winding_enum(t)
            if val != other:
                raise AlgorithmMismatch("translate %r: cycle=%r enum=%r"
                                        % (t.form, val, other))
            total += coeff * val
            count += 1
    return total, count

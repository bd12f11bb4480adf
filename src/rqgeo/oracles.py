"""Test oracles: slow, independent routes to what the pipeline computes.

The production path (field -> cycle -> Hecke -> intersection -> series)
calls none of these, and neither the package nor the command line
imports this module; the tests import it to check the fast routes
against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Mat2, QuadIrr, squarefree_part
from .field import _rho, automorph, form_cycle, reduce_form
from .geodesic import _cusp_orbit, _inverses, _p1_key
from .lvalue import kronecker

__all__ = [
    "canonical_rep",
    "sl2_equivalence",
    "multiply_ideals",
    "minus_cf_cycle",
    "gamma0_equivalent",
    "zeta_F_0_numeric",
]


def canonical_rep(f):
    """Deterministic representative of the proper equivalence class of f."""
    return min(form_cycle(f))


def sl2_equivalence(f, g):
    """A matrix m with f.apply(m) == g, or None if inequivalent."""
    if f.disc() != g.disc():
        raise ValueError("discriminant mismatch")
    rf, mf = reduce_form(f)
    rg, mg = reduce_form(g)
    cur, walk = rf, Mat2.identity()
    for _ in range(10000):
        if cur == rg:
            m = mf * walk * mg.adjugate()
            assert f.apply(m) == g
            return m
        cur, step = _rho(cur)
        walk = walk * step
        if cur == rf:
            return None
    raise RuntimeError("cycle walk did not close")


def multiply_ideals(d, basis1, basis2):
    """Z-module product of two ideals given by (w1, w2) bases; HNF basis out.

    Returns a pair (w1, w2) generating the product module over Z.  Used as
    the brute-force oracle for Gauss composition.
    """
    lam = QuadIrr(d, 1, 2, d)
    prods = [x * y for x in basis1 for y in basis2]
    # write each product as (p + q*lam)/den over a common denominator
    rows = []
    den = 1
    for z in prods:
        # z = (u + v sqrt(D'))/w with D' the squarefree core; convert to d
        q = Fraction(2 * z.v * _core_scale(z, d), z.w)
        p = Fraction(z.u, z.w) - q * Fraction(d, 2)
        rows.append((p, q))
        den = math.lcm(den, p.denominator, q.denominator)
    mat = [(int(p * den), int(q * den)) for p, q in rows]
    h = _hnf2(mat)
    (e, f), (g, k) = h
    w1 = (QuadIrr(e, 0, 1, d) + lam * f) / den
    w2 = (QuadIrr(g, 0, 1, d) + lam * k) / den
    return w1, w2


def _core_scale(z, d):
    # scale factor between sqrt(core) stored in z and sqrt(d)
    if z.v == 0:
        return 0
    core, f = squarefree_part(d)
    assert z.D == core
    return Fraction(1, f)


def _hnf2(rows):
    """Hermite normal form of an integer matrix with 2 columns, full rank."""
    rows = [list(r) for r in rows if r != (0, 0)]
    # clear the second column down to one pivot
    while True:
        nz = [r for r in rows if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        piv = nz[0]
        for r in nz[1:]:
            qt = r[1] // piv[1]
            r[0] -= qt * piv[0]
            r[1] -= qt * piv[1]
    piv2 = next(r for r in rows if r[1] != 0)
    rest = [r for r in rows if r is not piv2]
    g = 0
    for r in rest:
        assert r[1] == 0
        g = math.gcd(g, abs(r[0]))
    assert g > 0
    if piv2[1] < 0:
        piv2 = [-piv2[0], -piv2[1]]
    piv2[0] %= g
    return (g, 0), (piv2[0], piv2[1])


def minus_cf_cycle(w):
    """Digits of the purely periodic minus continued fraction cycle
    entered by the quadratic irrational w (b_k >= 2 on the cycle).

    Zagier's reference route to the partial zeta values: the class of a
    form [a, b, c] with a > 0 has zeta(A, 0) = (1/12) * sum(b_k - 3) over
    the cycle entered by its plus root.
    """
    seen = {}
    digits = []
    for _ in range(10 ** 6):
        if w in seen:
            return tuple(digits[seen[w]:])
        seen[w] = len(digits)
        b = -((-w).floor())
        digits.append(b)
        w = (b - w).inverse()
    raise RuntimeError("minus continued fraction did not become periodic")


def gamma0_equivalent(f, g, p):
    """Whether f and g are properly equivalent under Gamma0(p)."""
    if f.disc() != g.disc():
        return False
    m = sl2_equivalence(f, g)
    if m is None:
        return False
    hit = _cusp_orbit(automorph(f), p)
    return bool(hit[_p1_key(m.a, m.c, p, _inverses(p))])


def _dual_stabilizer(Q, delta, n):
    """Stabilizer of the translated geodesic computed the slow way: the
    minimal power of Q.gamma whose delta-conjugate is integral and lies
    in Gamma0(p).  A test oracle for the automorph-based generator."""
    gamma = Q.gamma
    adj = delta.adjugate()
    M = gamma
    for _ in range(10 ** 6):
        B = adj * M * delta
        if not any(e % n for e in B.entries()):
            cand = Mat2(B.a // n, B.b // n, B.c // n, B.d // n)
            if cand.c % Q.p == 0:
                return cand
        M = M * gamma
    raise RuntimeError("conjugated stabilizer not found")


def zeta_F_0_numeric(d):
    """Numeric oracle for zeta_F(0) through the factorization
    zeta_F = zeta * L(chi_d): Hurwitz-zeta evaluation at s = 0."""
    import mpmath

    L = mpmath.mpf(0)
    for a in range(1, d):
        ch = kronecker(d, a)
        if ch:
            L += ch * mpmath.zeta(0, mpmath.mpf(a) / d)
    return float(mpmath.zeta(0) * L)

"""Oriented geodesics, RM points and winding intersection numbers.

An oriented closed geodesic on Y0(p) is a primitive indefinite form f
taken with its sign: it runs from the plus root of f to the minus root,
so -f is the reversed geodesic.  Its stabilizer in Gamma0(p) is the
automorph A of f raised to the length of the orbit of infinity under A
in P^1(F_p); everything else is derived from f on demand.

Two independent algorithms compute the intersection number of a closed
geodesic on Y0(p) with the winding geodesic from 0 to infinity:

* intersect_winding_cycle sums sgn(a) over the forms in the proper
  Gamma0(p)-class of Q whose root geodesic separates 0 from infinity
  (those with a*c < 0).  It finds them in one walk along the river of
  the Conway topograph of Q.form, one automorph period long, carrying
  only the transition matrix mod p; an edge counts when a column of
  that matrix lies in the orbit of infinity in P^1(F_p) under the
  automorph;
* intersect_winding_enum walks the Farey tessellation along one period
  of the closed geodesic and adds up signed crossings with translates
  of the imaginary axis.

Everything is exact; there is no floating point in any sign decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import INF, Mat2, is_prime, mobius
from .field import QuadForm, _divisors, automorph, reduce_form, sl2_equivalence

__all__ = [
    "Geodesic",
    "ClosedGeodesic",
    "RmPointPair",
    "TwistedCycle",
    "InertPrime",
    "NonTransverse",
    "choose_r",
    "rm_point",
    "rm_point_pair",
    "straddle",
    "intersect_winding_cycle",
    "intersect_winding_enum",
    "twisted_cycle",
    "gamma0_automorph",
    "gamma0_equivalent",
]


class InertPrime(Exception):
    """The rational prime is inert in F; the whole series vanishes."""


class NonTransverse(Exception):
    """A geodesic endpoint sits exactly on the winding geodesic."""


class Geodesic:
    """Oriented geodesic from alpha to beta (boundary points)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        if alpha == beta:
            raise ValueError("degenerate geodesic")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def reversed(self):
        return Geodesic(self.beta, self.alpha)

    def __repr__(self):
        return "Geodesic(%r, %r)" % (self.alpha, self.beta)


def _boundary_sign(x):
    if x is INF:
        return None
    if isinstance(x, int):
        s = (x > 0) - (x < 0)
    elif isinstance(x, Fraction):
        s = (x > 0) - (x < 0)
    else:
        s = x.sign()
    if s == 0:
        raise NonTransverse("geodesic endpoint at 0")
    return s


def straddle(g):
    """Intersection of g with the winding geodesic from 0 to infinity.

    +1 if beta < 0 < alpha, -1 if alpha < 0 < beta, 0 otherwise.
    """
    sa = _boundary_sign(g.alpha)
    sb = _boundary_sign(g.beta)
    if sa is None or sb is None:
        return 0
    if sb < 0 < sa:
        return 1
    if sa < 0 < sb:
        return -1
    return 0


class ClosedGeodesic:
    """Oriented closed geodesic on Y0(p): a primitive form whose sign is
    the orientation, which runs from the plus root w to the minus root
    wsig.  Negating the form reverses the geodesic."""

    __slots__ = ("form", "p")

    def __init__(self, form, p):
        form, _ = form.primitive()
        if form.disc() <= 0 or math.isqrt(form.disc()) ** 2 == form.disc():
            raise ValueError("form must have positive nonsquare discriminant")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def w(self):
        return self.form.plus_root()

    @property
    def wsig(self):
        return self.form.minus_root()

    @property
    def gamma(self):
        """Generator of the proper stabilizer of the geodesic in Gamma0(p)."""
        gamma = gamma0_automorph(self.form, self.p)
        w, wsig = self.w, self.wsig
        assert gamma.det == 1 and gamma.c % self.p == 0
        assert mobius(gamma, w) == w and mobius(gamma, wsig) == wsig
        return gamma

    def reversed(self):
        a, b, c = self.form
        return ClosedGeodesic(QuadForm(-a, -b, -c), self.p)

    def translate(self, g):
        """The geodesic g^{-1} . Q for g in Gamma0(p) (det 1)."""
        assert g.det == 1 and g.c % self.p == 0
        return ClosedGeodesic(self.form.apply(g), self.p)

    def __repr__(self):
        return "ClosedGeodesic(form=%r, p=%d)" % (self.form, self.p)


class RChoice(tuple):
    """Output of choose_r: (r, N0)."""

    def __new__(cls, r, N0):
        return tuple.__new__(cls, (r, N0))

    @property
    def r(self):
        return self[0]

    @property
    def N0(self):
        return self[1]


def choose_r(F, p, r=None):
    """A square root r of d_F mod 4p with r^2 > d_F: the given one, which
    is checked, or else the smallest positive one.

    Raises ValueError when p is not an odd prime unramified in F or r is
    not such a root, and InertPrime when d_F is not a square mod p.
    """
    d = F.d_F
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if d % p == 0:
        raise ValueError("p ramifies in F")
    if pow(d, (p - 1) // 2, p) != 1:
        raise InertPrime("d_F = %d is a nonresidue mod %d" % (d, p))
    if r is None:
        r = 1
        while (r * r - d) % (4 * p) or r * r <= d:
            r += 1
    elif (r * r - d) % (4 * p) or r * r <= d:
        raise ValueError("invalid square root r = %d of d_F mod 4p" % r)
    return RChoice(r, (r * r - d) // 2)


def base_form(F, rc, sign=1):
    """The distinguished level-p form with root (r + sqrt(d_F))/N0."""
    r = sign * rc.r
    return QuadForm(rc.N0 // 2, -r, 1)


def rm_point(F, G, cls, p, rc, sign=1):
    """RM point of the given narrow class: a ClosedGeodesic whose form
    satisfies p | a and b = -r (mod 2p), with deterministic search order.
    """
    d = F.d_F
    r = sign * rc.r
    for k in _spiral():
        b = -r + 2 * p * k
        m = (b * b - d) // 4
        if m == 0:
            continue
        assert (b * b - d) % 4 == 0 and m % p == 0
        for e in _divisors(abs(m)):
            if e % p:
                continue
            for a in (e, -e):
                f = QuadForm(a, b, m // a)
                if f.content() == 1 and G.classify(f) == cls:
                    return ClosedGeodesic(f, p)
    raise RuntimeError("unreachable")


def _spiral():
    yield 0
    k = 1
    while k < 10000:
        yield k
        yield -k
        k += 1
    raise RuntimeError("rm point search exhausted")


class RmPointPair(tuple):
    def __new__(cls, class_index, r, point_plus, point_minus):
        return tuple.__new__(cls, (class_index, r, point_plus, point_minus))

    class_index = property(lambda s: s[0])
    r = property(lambda s: s[1])
    point_plus = property(lambda s: s[2])
    point_minus = property(lambda s: s[3])


def rm_point_pair(F, G, cls, p, rc):
    return RmPointPair(cls, rc.r,
                       rm_point(F, G, cls, p, rc, +1),
                       rm_point(F, G, cls, p, rc, -1))


class TwistedCycle(tuple):
    """Formal sum of closed geodesics with character coefficients."""

    def __new__(cls, terms):
        return tuple.__new__(cls, tuple(terms))

    @property
    def terms(self):
        return tuple(self)


def twisted_cycle(F, G, psi, p, rc):
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    terms = []
    for cls in range(G.h):
        pair = rm_point_pair(F, G, cls, p, rc)
        coeff = psi(cls)
        terms.append((coeff, pair.point_plus))
        terms.append((coeff, pair.point_minus))
    return TwistedCycle(terms)


# ---------------------------------------------------------------------------
# algorithm 1: one walk along the river of the Conway topograph
#
# Let f = Q.form.  The forms with a*c < 0 in the proper SL2(Z)-class of f
# are the edges of the river of f's topograph: the edge between the
# faces e1 (value a > 0) and e2 (value c < 0) stands for the two forms
# [a, b, c] = f.apply(m), m = (e1 | e2), and [c, -b, a] = f.apply(m S),
# S = (0, -1; 1, 0).  The automorph of f shifts the river by one period,
# so one period meets every such form exactly once.  A form f.apply(m)
# lies in the Gamma0(p)-class of f exactly when some automorph power
# times m lies in Gamma0(p), that is when the first column of m, as a
# point of P^1(F_p), lies in the orbit of infinity = (1 : 0) under the
# automorph.


@lru_cache(maxsize=None)
def _inverses(p):
    return [0] + [pow(i, -1, p) for i in range(1, p)]


def _p1_key(x, y, p, inv):
    """Index in 0..p of the point (x : y) of P^1(F_p); p is infinity."""
    return p if y % p == 0 else x * inv[y % p] % p


def _cusp_orbit(A, p):
    """Membership table, indexed by _p1_key, of the orbit of infinity
    under A acting on P^1(F_p)."""
    inv = _inverses(p)
    a, b, c, d = A.mod(p)
    hit = bytearray(p + 1)
    x, y = 1, 0
    while True:
        k = _p1_key(x, y, p, inv)
        if hit[k]:
            # A permutes P^1(F_p), so the first repeat closes the orbit
            return hit
        hit[k] = 1
        x, y = (a * x + b * y) % p, (c * x + d * y) % p


def gamma0_automorph(form, p):
    """Generator of the stabilizer of form in Gamma0(p): the least power
    of the totally positive automorph A that lies in Gamma0(p).  A^k is
    in Gamma0(p) exactly when it fixes infinity in P^1(F_p), so k is the
    length of the orbit of infinity under A."""
    A = automorph(form)
    return A ** sum(_cusp_orbit(A, p))


def gamma0_equivalent(f, g, p):
    """Whether f and g are properly equivalent under Gamma0(p)."""
    if f.disc() != g.disc():
        return False
    m = sl2_equivalence(f, g)
    if m is None:
        return False
    hit = _cusp_orbit(automorph(f), p)
    return bool(hit[_p1_key(m.a, m.c, p, _inverses(p))])


def intersect_winding_cycle(Q):
    """Winding intersection number by one walk along the river: the sum
    of sgn(a) over the forms [a, b, c] with a*c < 0 in the Gamma0(p)-class
    of Q.form.  The class of -f holds the negatives of the forms in the
    class of f, so reversing Q negates the sum."""
    p = Q.p
    inv = _inverses(p)
    hit = _cusp_orbit(automorph(Q.form), p)
    (a, b, c), m = reduce_form(Q.form)     # reduced, so a*c < 0
    # the transition matrix from Q.form, mod p, by columns (x0, y0), (x1, y1)
    x0, x1, y0, y1 = m.mod(p)
    if a < 0:
        a, b, c = c, -b, a
        x0, x1, y0, y1 = x1, -x0 % p, y1, -y0 % p
    start = (a, b, c)
    total = 0
    while True:
        # [a, b, c] counts +1 and [c, -b, a] counts -1 (_p1_key inlined)
        total += (hit[x0 * inv[y0] % p if y0 else p]
                  - hit[x1 * inv[y1] % p if y1 else p])
        s = a + b + c               # value on e1 + e2, never 0
        if s > 0:
            a, b = s, b + 2 * c     # e1 <- e1 + e2
            x0, y0 = (x0 + x1) % p, (y0 + y1) % p
        else:
            b, c = b + 2 * a, s     # e2 <- e1 + e2
            x1, y1 = (x0 + x1) % p, (y0 + y1) % p
        if (a, b, c) == start:
            return total


# ---------------------------------------------------------------------------
# algorithm 2: Farey tessellation walk along one period of the geodesic
#
# Translates of the imaginary axis by Gamma0(p) are exactly the Farey
# edges (u, v) (|cross(u, v)| = 1) for which exactly one endpoint has
# denominator divisible by p (infinity = 1/0 counts as divisible).  The
# walk visits, in order, every Farey edge crossed by the geodesic and
# keeps those whose crossing lies on the fundamental arc from the apex
# tau0 (inclusive) to gamma.tau0 (exclusive).


def _cmp_frac_quad(pn, pd, q):
    """sign(pn/pd - q) for pd > 0 and q a QuadIrr."""
    X = pn * q.w - pd * q.u
    Y = pd * q.v
    # sign of X - Y*sqrt(D)
    if Y == 0:
        return (X > 0) - (X < 0)
    if X <= 0 and Y >= 0:
        return -1
    if X >= 0 and Y <= 0:
        return 1
    d = X * X - Y * Y * q.D
    s = (d > 0) - (d < 0)
    return s if X > 0 else -s


def _inside(pt, lo, hi):
    """Whether the boundary point pt = (num, den) lies in (lo, hi)."""
    pn, pd = pt
    if pd == 0:
        return False
    return _cmp_frac_quad(pn, pd, lo) > 0 and _cmp_frac_quad(pn, pd, hi) < 0


def _crossing_x(edge, m1, rho2):
    """x-coordinate of the crossing of a Farey edge with the circle of
    center m1 and squared radius rho2 (both Fractions)."""
    (un, ud), (vn, vd) = edge
    if ud == 0 or vd == 0:
        n, d = (vn, vd) if ud == 0 else (un, ud)
        return Fraction(n, d)
    u = Fraction(un, ud)
    v = Fraction(vn, vd)
    m2 = (u + v) / 2
    r2 = ((u - v) / 2) ** 2
    return (rho2 - r2 + m2 * m2 - m1 * m1) / (2 * (m2 - m1))


def _proj_eq(a, b):
    return a[0] * b[1] - a[1] * b[0] == 0


def _edge_sign(edge, w, wsig, p):
    """straddle of the pull-back of the geodesic from w to wsig through
    the edge's coset rep, or 0 when the edge is not a Gamma0(p) translate
    of the imaginary axis."""
    (un, ud), (vn, vd) = edge
    up, vp = ud % p == 0, vd % p == 0
    if up == vp:
        assert not (up and vp)
        return 0
    if vp:
        (un, ud), (vn, vd) = (vn, vd), (un, ud)
    if un * vd - vn * ud == -1:
        vn, vd = -vn, -vd
    delta = Mat2(un, vn, ud, vd)
    assert delta.det == 1 and delta.c % p == 0
    inv = delta.adjugate()
    return straddle(Geodesic(mobius(inv, w), mobius(inv, wsig)))


def intersect_winding_enum(Q, basepoint_shift=None):
    """Winding intersection number by direct enumeration of crossings.

    basepoint_shift, if given, is a Fraction added to the x-coordinate
    of the default base point (the apex); the result must not depend on
    it, which the tests exercise.
    """
    f = Q.form
    a, b, c = f
    disc = f.disc()
    m1 = Fraction(-b, 2 * a)
    rho2 = Fraction(disc, 4 * a * a)
    w, wsig, gamma, p = Q.w, Q.wsig, Q.gamma, Q.p
    w_lo, w_hi = (w, wsig) if w < wsig else (wsig, w)
    # base point on the geodesic: apex by default, shifted for testing
    if basepoint_shift is None:
        x0, y0sq = m1, rho2
    else:
        x0 = m1 + basepoint_shift
        y0sq = rho2 - basepoint_shift * basepoint_shift
        assert y0sq > 0, "base point off the geodesic"
    x1, _ = _apply_to_circle_point(gamma, x0, y0sq)
    if x0 == x1:
        raise RuntimeError("degenerate fundamental arc")
    # the base-point end of the arc is included, the translated end not
    if x0 < x1:
        lo, hi, lo_inc, hi_inc = x0, x1, True, False
    else:
        lo, hi, lo_inc, hi_inc = x1, x0, False, True
    edge, tprev = _start_edge(w_lo, w_hi, m1, rho2, hi)
    total = 0
    for _ in range(10 ** 8):
        # step across the current edge into the next Farey triangle
        u, v = edge
        t = (u[0] + v[0], u[1] + v[1])
        if _proj_eq(t, tprev):
            t = (u[0] - v[0], u[1] - v[1])
        t = _norm_pt(t)
        e1, e2 = (u, t), (t, v)
        nxt = e1 if _inside(u, w_lo, w_hi) != _inside(t, w_lo, w_hi) else e2
        tprev = v if nxt is e1 else u
        edge = nxt
        xstar = _crossing_x(edge, m1, rho2)
        if xstar < lo or (xstar == lo and not lo_inc):
            return total
        if (lo < xstar < hi) or (xstar == lo and lo_inc) \
                or (xstar == hi and hi_inc):
            total += _edge_sign(edge, w, wsig, p)
    raise RuntimeError("walk did not terminate")


def _norm_pt(t):
    n, d = t
    g = math.gcd(abs(n), abs(d))
    if g:
        n, d = n // g, d // g
    if d < 0:
        n, d = -n, -d
    return (n, d)


def _apply_to_circle_point(g, x, ysq):
    """Image of the hyperbolic point (x, y) with y^2 = ysq under g,
    returned as (x', y'^2); everything stays rational."""
    A, B, C, D = g.a, g.b, g.c, g.d
    N = (C * x + D) ** 2 + C * C * ysq
    assert N != 0
    xp = ((A * x + B) * (C * x + D) + A * C * ysq) / N
    ypsq = ysq * g.det ** 2 / N ** 2
    return xp, ypsq


def _start_edge(w_lo, w_hi, m1, rho2, hi):
    """A Farey edge crossing the geodesic strictly to the right of the
    arc window, with the walk oriented toward decreasing x.

    Returns (edge, previous_third) priming the triangle walk.
    """
    # continued fraction convergents of w_hi straddle it, so consecutive
    # convergents eventually give crossing edges arbitrarily close to it
    x = w_hi
    h0, k0 = 1, 0
    a0 = x.floor()
    h1, k1 = a0, 1
    x = 1 / (x - a0)
    while True:
        u, v = _norm_pt((h0, k0)), _norm_pt((h1, k1))
        if _inside(u, w_lo, w_hi) != _inside(v, w_lo, w_hi):
            xs0 = _crossing_x((u, v), m1, rho2)
            if xs0 > hi:
                break
        an = x.floor()
        h0, k0, h1, k1 = h1, k1, an * h1 + h0, an * k1 + k0
        x = 1 / (x - an)
    # choose the previous-third vertex so the first step decreases x
    edge = (u, v)
    thirds = ((u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1]))
    for i, tcand in enumerate(thirds):
        t = _norm_pt(tcand)
        nxt = (u, t) if _inside(u, w_lo, w_hi) != _inside(t, w_lo, w_hi) \
            else (t, v)
        if _crossing_x(nxt, m1, rho2) < xs0:
            return edge, _norm_pt(thirds[1 - i])
    raise RuntimeError("could not orient the walk")

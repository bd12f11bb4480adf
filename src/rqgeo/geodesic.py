"""Closed geodesics, RM points and winding intersection numbers.

An oriented closed geodesic on Y0(p) is a primitive indefinite form f
taken with its sign: it runs from the plus root of f to the minus root,
so -f is the reversed geodesic.  Its stabilizer in Gamma0(p) is the
automorph A of f raised to the length of the orbit of infinity under A
in P^1(F_p); everything else is derived from f on demand.  Each narrow
class has an RM point for +r and one for -r (rm_point_pair), and the
psi-twisted cycle is the tuple of (psi(class), RM point) pairs.

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
  of the closed geodesic, in the original coordinates and without
  reducing the form, and adds up signed crossings with translates of the
  imaginary axis.  A Farey vertex (x, y) lies between the roots exactly
  when f(x, y) * a < 0, and the period ends at the stabilizer's image of
  the first crossed edge, so the walk is integer arithmetic throughout.

Everything is exact; there is no floating point in any sign decision.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import Mat2, is_prime, mobius
from .field import QuadForm, _divisors, automorph, reduce_form

__all__ = [
    "ClosedGeodesic",
    "InertPrime",
    "RChoice",
    "choose_r",
    "rm_point",
    "rm_point_pair",
    "twisted_cycle",
    "gamma0_automorph",
    "intersect_winding_cycle",
    "intersect_winding_enum",
]


class InertPrime(Exception):
    """The rational prime is inert in F; the whole series vanishes."""


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


def rm_point_pair(F, G, cls, p, rc):
    """The RM points (plus, minus) of the class for +r and -r."""
    return rm_point(F, G, cls, p, rc, +1), rm_point(F, G, cls, p, rc, -1)


def twisted_cycle(F, G, psi, p, rc):
    """The psi-twisted cycle: (psi(cls), Q) for the +r and the -r RM point
    Q of each narrow class."""
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    return tuple((psi(cls), Q) for cls in range(G.h)
                 for Q in rm_point_pair(F, G, cls, p, rc))


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
# geodesic of f = [a, b, c] crosses the Farey edge (u, v) exactly when
# one end lies between the roots and the other does not, and the point
# (x, y) lies between the roots exactly when f(x, y) * a < 0.  The
# crossed edges, in order along the geodesic, form a sequence that the
# stabilizer gamma shifts by one period; so the walk starts at a crossed
# edge E0, counts it, and steps from triangle to triangle until the
# edge it reaches is gamma E0 or gamma^-1 E0, whichever lies ahead.


def _straddle(alpha, beta):
    """Intersection of the geodesic from alpha to beta, two irrational
    boundary points, with the winding geodesic from 0 to infinity: +1 if
    beta < 0 < alpha, -1 if alpha < 0 < beta, 0 otherwise."""
    sa, sb = alpha.sign(), beta.sign()
    assert sa and sb, "geodesic endpoint at 0"
    return (sa - sb) // 2


def _edge_sign(edge, w, wsig, p):
    """_straddle of the pull-back of the geodesic from w to wsig through
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
    return _straddle(mobius(inv, w), mobius(inv, wsig))


def _norm_pt(t):
    """The boundary point t = (num, den) in lowest terms with den >= 0,
    and infinity as (1, 0)."""
    n, d = t
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if d < 0 or (d == 0 and n < 0):
        n, d = -n, -d
    return (n, d)


def _start_edge(w, inside):
    """The first pair of consecutive continued-fraction convergents of w,
    starting from 0/1 and 1/0, that lie on opposite sides of the
    geodesic.  Convergents close in on the endpoint w from alternate
    sides, so such a pair exists."""
    h0, k0, h1, k1 = 0, 1, 1, 0
    x = w
    while inside((h0, k0)) == inside((h1, k1)):
        an = x.floor()
        h0, k0, h1, k1 = h1, k1, an * h1 + h0, an * k1 + k0
        x = 1 / (x - an)
    return _norm_pt((h0, k0)), _norm_pt((h1, k1))


def intersect_winding_enum(Q):
    """Winding intersection number by direct enumeration of crossings:
    the sum of _edge_sign over the Farey edges that one period of the
    geodesic crosses."""
    f = Q.form
    a = f.a
    w, wsig, gamma, p = Q.w, Q.wsig, Q.gamma, Q.p

    def inside(t):
        return f.value(*t) * a < 0

    edge = _start_edge(w, inside)
    stops = []
    for m in (gamma, gamma.adjugate()):     # gamma and gamma^-1 (det 1)
        s, t = (_norm_pt((m.a * x + m.b * y, m.c * x + m.d * y))
                for x, y in edge)
        stops += [(s, t), (t, s)]
    u, v = edge
    tprev = _norm_pt((u[0] - v[0], u[1] - v[1]))
    total = 0
    while edge not in stops:
        total += _edge_sign(edge, w, wsig, p)
        # step across the current edge into the next Farey triangle
        u, v = edge
        t = _norm_pt((u[0] + v[0], u[1] + v[1]))
        if t == tprev:
            t = _norm_pt((u[0] - v[0], u[1] - v[1]))
        if inside(t) != inside(u):
            edge, tprev = (u, t), v
        else:
            edge, tprev = (t, v), u
    return total

"""Test oracles: slow, independent routes to what the pipeline computes.

The production path (field -> cycle -> Hecke -> intersection -> series)
calls none of these, and neither the package nor the command line
imports this module; the tests import it to check the fast routes
against them, with ``QuadIrr``, the exact (u + v sqrt(D))/w, as the
reference type for roots, ideal bases and units.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .exact import Mat2, divisor_sums, squarefree_part
from .field import QuadForm, _steps, automorph, form_cycle, reduce_form

__all__ = [
    "QuadIrr",
    "plus_root",
    "minus_root",
    "mobius",
    "ideal_to_form",
    "canonical_rep",
    "sl2_equivalence",
    "multiply_ideals",
    "minus_cf_cycle",
    "gamma0_equivalent",
    "translate",
    "manin_table_farey",
    "manin_counts",
    "merel_counts",
    "pairing_row",
    "kronecker",
    "zeta_F_0_numeric",
]


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

    def __gt__(self, other):
        return _qcmp(self, other) > 0

    def __repr__(self):
        if self.v == 0:
            return "QuadIrr(%d/%d)" % (self.u, self.w)
        return "QuadIrr((%d %+d*sqrt(%d))/%d)" % (self.u, self.v, self.D, self.w)

    def __float__(self):
        return (self.u + self.v * math.sqrt(self.D)) / self.w


def _qcmp(x, y):
    """Compare a QuadIrr with a QuadIrr or rational value exactly."""
    return (x - y).sign()


def plus_root(f):
    """The root (-b + sqrt(disc)) / (2a) of the form f."""
    return QuadIrr(-f.b, 1, 2 * f.a, f.disc())


def minus_root(f):
    return QuadIrr(-f.b, -1, 2 * f.a, f.disc())


def mobius(m, x):
    """Exact Moebius action of m on the quadratic irrational x: the
    reference route for the integer sign and root tests of the Farey
    walk and the Hecke translates."""
    assert x.v, "rational point"
    # numerator A + B sqrt(D), denominator C + E sqrt(D), all over x.w;
    # the denominator is irrational, hence of nonzero norm
    A, B = m.a * x.u + m.b * x.w, m.a * x.v
    C, E = m.c * x.u + m.d * x.w, m.c * x.v
    return QuadIrr(A * C - B * E * x.D, B * C - A * E, C * C - E * E * x.D, x.D)


def ideal_to_form(d, w1, w2):
    """Form of the Z-module Z w1 + Z w2 (fractional ideal of disc-d order).

    Orientation: the basis is swapped if needed so that
    (w1 conj(w2) - conj(w1) w2)/sqrt(d) > 0; then
    f(x, y) = N(x w1 + y w2)/N(module).  With this convention the ideal
    [a0, (-b0 + sqrt(d))/2] maps to [a0, b0, (b0^2 - d)/(4 a0)].
    """
    rt = QuadIrr(0, 1, 1, d)
    orient = (w1 * w2.conjugate() - w1.conjugate() * w2) / rt
    assert orient.is_rational
    ov = orient.as_fraction()
    assert ov != 0
    if ov < 0:
        w1, w2 = w2, w1
        ov = -ov
    nm = ov  # norm of the module
    a = w1.norm() / nm
    b = (w1 * w2.conjugate() + w1.conjugate() * w2)
    assert b.is_rational
    b = b.as_fraction() / nm
    c = w2.norm() / nm
    assert a.denominator == b.denominator == c.denominator == 1
    f = QuadForm(int(a), int(b), int(c))
    assert f.disc() == d, (f.disc(), d)
    return f


def canonical_rep(f):
    """Deterministic representative of the proper equivalence class of f."""
    return min(form_cycle(f)[0])


def sl2_equivalence(f, g):
    """A matrix m with f.apply(m) == g, or None if inequivalent."""
    if f.disc() != g.disc():
        raise ValueError("discriminant mismatch")
    rf, mf = reduce_form(f)
    rg, mg = reduce_form(g)
    forms, deltas = form_cycle(rf)
    if rg not in forms:
        return None
    m = mf * _steps(deltas[:forms.index(rg)]) * mg.adjugate()
    assert f.apply(m) == g
    return m


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
    """Whether f and g are properly equivalent under Gamma0(p).  Every
    proper equivalence is +-A^k m, A the automorph of f and m the one
    sl2_equivalence finds; A mod p has order at most 2(p + 1)."""
    if f.disc() != g.disc():
        return False
    m = sl2_equivalence(f, g)
    if m is None:
        return False
    A = automorph(f)
    for _ in range(2 * (p + 1) + 1):
        if m.c % p == 0:
            return True
        m = A * m
    return False


def translate(Q, g):
    """The closed geodesic g^-1 . Q for g in Gamma0(p) (det 1)."""
    assert g.det == 1 and g.c % Q.p == 0
    return type(Q)(Q.form.apply(g), Q.p)


def _dual_stabilizer(Q, delta, n):
    """Stabilizer of the translated geodesic computed the slow way: the
    minimal power of Q.gamma whose delta-conjugate is integral and lies
    in Gamma0(p).  A test oracle for the automorph-based generator."""
    gamma = Q.gamma
    adj = delta.adjugate()
    M = gamma
    for _ in range(10 ** 6):
        B = adj * M * delta
        if not any(e % n for e in B):
            cand = Mat2(B.a // n, B.b // n, B.c // n, B.d // n)
            if cand.c % Q.p == 0:
                return cand
        M = M * gamma
    raise RuntimeError("conjugated stabilizer not found")


def _key(x, y, p):
    """The point (x : y) of P^1(F_p) as an index in 0..p, p for infinity."""
    return p if y % p == 0 else x * pow(y, -1, p) % p


def _lowest(x, y):
    """The boundary point x/y in lowest terms with y >= 0, infinity as
    (1, 0)."""
    g = math.gcd(x, y)
    x, y = x // g, y // g
    return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)


def manin_table_farey(Q):
    """The reference for geodesic.manin_table: walk the Farey
    tessellation along one Gamma0(p)-period of Q, as
    intersect_winding_enum does, and add the sign of each crossed edge at
    the P^1(F_p) point of its bottom row.  The result is a list of p + 1
    entries indexed by key, zeros included; manin_table keeps only the
    nonzero ones.

    The crossed edge between u and v is h(0 -> infinity) for
    h = (u | v) in SL2(Z), v negated if need be, and its sign is +1 when
    h^-1 takes the geodesic from the positive half line to the negative
    one, -1 the other way, from the Moebius images of Q's roots.  It adds
    the sign at (ud : vd), the bottom row of h, and minus the sign at
    (vd : -ud), that of h S, the reversed edge; the point (c : d) has the
    index of (d : c) in _key.
    """
    f, p = Q.form, Q.p
    a, b, c = f
    plus, minus = plus_root(f), minus_root(f)

    def inside(x, y):
        return (a * x * x + b * x * y + c * y * y) * a < 0

    # the least automorph power in Gamma0(p): A mod p has order at most
    # 2(p + 1)
    A = automorph(f)
    gamma = A
    for _ in range(2 * (p + 1)):
        if gamma.c % p == 0:
            break
        gamma = gamma * A
    assert gamma.c % p == 0, "no automorph power in Gamma0(p)"
    # the first pair of consecutive convergents of the plus root, from
    # 0/1 and 1/0, on opposite sides of the geodesic
    w, (h0, k0, h1, k1) = plus, (0, 1, 1, 0)
    while inside(h0, k0) == inside(h1, k1):
        an = w.floor()
        h0, k0, h1, k1 = h1, k1, an * h1 + h0, an * k1 + k0
        w = (w - an).inverse()
    edge = (_lowest(h0, k0), _lowest(h1, k1))
    stops = []
    for m in (gamma, gamma.adjugate()):
        s, t = (_lowest(m.a * x + m.b * y, m.c * x + m.d * y)
                for x, y in edge)
        stops += [(s, t), (t, s)]
    table = [0] * (p + 1)
    uin = inside(*edge[0])
    while edge not in stops:
        (un, ud), (vn, vd) = edge
        if un * vd - vn * ud == -1:
            vn, vd = -vn, -vd
        h = Mat2(un, vn, ud, vd)
        assert h.det == 1
        sp = mobius(h.adjugate(), plus).sign()
        sm = mobius(h.adjugate(), minus).sign()
        assert sp == -sm, "walked edge is not crossed"
        table[_key(vd, ud, p)] += sp
        table[_key(-ud, vd, p)] -= sp
        u, v = edge
        t = (u[0] + v[0], u[1] + v[1])
        edge = (u, t) if inside(*t) != uin else (t, v)
    return table


def manin_counts(N, p):
    """The reference for hecke.manin_pairings: T_n of the winding geodesic
    in unimodular edges, for every n <= N, as a tuple whose entry n - 1
    holds the nonzero (k, R_n[k]) in increasing k, R_n[k] minus the
    number of edges of bottom row k = p1_key(d, c) on the paths
    (infinity -> b/d) over the left cosets (a, b; 0, d) of T_n, so
    <T_n Q, W> = sum over k of R_n[k] manin_table(Q).get(k, 0)
    (pairing_row).

    It walks the tree of manin_pairings, keeping each path's keys instead
    of its table sums: prim[d] holds the edge keys of the reduced
    fractions of denominator d, and R_n = -sum over d | n of
    tau_p(n / d) prim[d], a count row per n.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    inv = [pow(x, -1, p) if x % p else 0 for x in range(N + 1)]
    prim = [[] for _ in range(N + 1)]
    prim[1].append(0)                       # 0/1: the edge 1/0 -> 0/1
    stack = [(0, 1, 1, (0,))]               # k0, k1, e, the keys so far
    while stack:
        k0, k1, e, path = stack.pop()
        ek, q, d = e * k1, 1, k1 + k0
        while d <= N:
            key = ek * inv[d] % p if inv[d] else p      # p1_key(e k1, d)
            child = path + (key,)
            if q > 1:
                prim[d] += child
            if d + k1 <= N:
                stack.append((k1, d, -e, child))
            q, d = q + 1, d + k1
    tau = divisor_sums(N, 0, p)
    rows = [{} for _ in range(N + 1)]
    for d in range(1, N + 1):
        counts = Counter(prim[d]).items()
        for m in range(1, N // d + 1):
            row, t = rows[m * d], tau[m]
            for key, c in counts:
                row[key] = row.get(key, 0) - t * c
    return tuple(tuple(sorted((k, c) for k, c in row.items() if c))
                 for row in rows[1:])


@lru_cache(maxsize=4)
def merel_counts(N, p):
    """The reference for hecke.merel_pairings: T_n of the winding geodesic
    by Merel's set X_n, for every n <= N, as a tuple whose entry n - 1
    holds the (k, count) of the bottom rows (c : d), keyed
    k = p1_key(d, c), of the matrices (a, b; c, d) with ad - bc = n,
    a > b >= 0 and d > c >= 0, rows that are (0, 0) mod p left out
    (Merel 1994, Universal Fourier expansions of modular forms), in
    increasing k.  So <T_n Q, W> = sum over k of count times
    the entry k of geodesic.manin_table(Q) (pairing_row).

    One pass over (a, b, c) serves every n: ad - bc >= a + c (a - b),
    and the d > c with ad - bc <= N form one range, n stepping by a
    along it.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    inv = [pow(c, -1, p) if c % p else 0 for c in range(N + 1)]
    counts = [{} for _ in range(N + 1)]
    for a in range(1, N + 1):
        for b in range(a):
            c = 0
            while a + c * (a - b) <= N:
                n, ic = a * (c + 1) - b * c, inv[c]
                for d in range(c + 1, (N + b * c) // a + 1):
                    if ic or d % p:
                        k = d * ic % p if ic else p         # p1_key(d, c)
                        row = counts[n]
                        row[k] = row.get(k, 0) + 1
                    n += a
                c += 1
    return tuple(tuple(sorted(row.items())) for row in counts[1:])


def pairing_row(table, counts):
    """<T_n Q, W> for n = 1..N, indexed by n - 1, from the Manin table of
    Q (a missing key counts 0) and a count table of T_n W."""
    return tuple(sum(c * table[k] for k, c in row if k in table)
                 for row in counts)


def kronecker(a, b):
    """The Kronecker symbol (a/b) (Cohen, GTM 138, Algorithm 1.4.10)."""
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    k = 1
    while b % 2 == 0:
        b //= 2
        if a % 8 in (3, 5):
            k = -k
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    # b is odd and positive: reciprocity until a vanishes
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                k = -k
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % abs(a), abs(a)
    return k if b == 1 else 0


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

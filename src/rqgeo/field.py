"""Real quadratic field data and the narrow class group.

The class group backend is forms-only: narrow ideal classes are
represented by proper equivalence classes of primitive integral binary
quadratic forms of discriminant d_F.  Ideals enter as Z-bases and are
converted to forms through a fixed orientation convention.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .exact import Mat2, QuadIrr, squarefree_part

__all__ = [
    "FieldData",
    "QuadForm",
    "NarrowClassGroup",
    "ClassCharacter",
    "build_field",
    "narrow_class_group",
    "all_characters",
    "odd_characters",
    "class_of_ideal",
    "ideal_to_form",
    "pell_plus",
    "automorph",
    "reduce_form",
    "form_cycle",
]


class QuadForm(tuple):
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    def __new__(cls, a, b, c):
        return tuple.__new__(cls, (a, b, c))

    @property
    def a(self):
        return self[0]

    @property
    def b(self):
        return self[1]

    @property
    def c(self):
        return self[2]

    def disc(self):
        return self[1] * self[1] - 4 * self[0] * self[2]

    def content(self):
        return math.gcd(math.gcd(abs(self[0]), abs(self[1])), abs(self[2]))

    def primitive(self):
        g = self.content()
        return QuadForm(self[0] // g, self[1] // g, self[2] // g), g

    def apply(self, m):
        """Right action: (f.apply(m))(x, y) = f(m11 x + m12 y, m21 x + m22 y)."""
        a, b, c = self
        p, q, r, s = m.a, m.b, m.c, m.d
        return QuadForm(a * p * p + b * p * r + c * r * r,
                        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
                        a * q * q + b * q * s + c * s * s)

    def value(self, x, y):
        return self[0] * x * x + self[1] * x * y + self[2] * y * y

    def plus_root(self):
        """The root (-b + sqrt(disc)) / (2a)."""
        return QuadIrr(-self[1], 1, 2 * self[0], self.disc())

    def minus_root(self):
        return QuadIrr(-self[1], -1, 2 * self[0], self.disc())

    def __repr__(self):
        return "QuadForm(%d, %d, %d)" % self


def _is_reduced(f):
    # indefinite reduction: |sqrt(D) - 2|a|| < b < sqrt(D)
    a, b, c = f
    D = f.disc()
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a) - b
    return (t < 0 or t * t < D) and D < (2 * abs(a) + b) ** 2


def _rho(f):
    """One reduction step; returns (form, matrix) with f.apply(m) = form."""
    a, b, c = f
    D = f.disc()
    ac = abs(c)
    s = math.isqrt(D)
    # pick b' = -b mod 2|c| inside the reduction window
    lo = (-ac + 1) if ac > s else (s - 2 * ac + 1)
    bp = lo + ((-b - lo) % (2 * ac))
    delta = (bp + b) // (2 * c)
    cp = (bp * bp - D) // (4 * c)
    m = Mat2(0, -1, 1, delta)
    g = QuadForm(c, bp, cp)
    assert f.apply(m) == g
    return g, m


def reduce_form(f):
    """Reduce an indefinite form; returns (g, m) with f.apply(m) = g reduced."""
    m = Mat2.identity()
    g = f
    for _ in range(10000):
        if _is_reduced(g):
            return g, m
        g, step = _rho(g)
        m = m * step
    raise RuntimeError("reduction did not terminate for %r" % (f,))


def form_cycle(f):
    """The cycle of reduced forms properly equivalent to f, in rho order."""
    g, _ = reduce_form(f)
    cyc = [g]
    h, _ = _rho(g)
    while h != g:
        cyc.append(h)
        h, _ = _rho(h)
    return cyc


@lru_cache(maxsize=None)
def pell_plus(D):
    """Smallest (t, u), t, u > 0, with t^2 - D u^2 = 4.

    Gives the fundamental totally positive unit (t + u sqrt(D))/2 of the
    order of discriminant D.  Obtained as the product of the transition
    matrices around one period of the reduction cycle of the principal
    form, which is the fundamental automorph; brute-forcing u is far too
    slow once the regulator grows.
    """
    assert D > 0 and squarefree_part(D)[0] != 1
    b0 = D % 2
    g, _ = reduce_form(QuadForm(1, b0, (b0 * b0 - D) // 4))
    cur, m = g, Mat2.identity()
    while True:
        cur, step = _rho(cur)
        m = m * step
        if cur == g:
            break
    assert g.apply(m) == g
    t = abs(m.a + m.d)
    u = abs(m.c) // abs(g.a)
    assert t * t - D * u * u == 4 and u > 0
    return t, u


def automorph(f):
    """Generator of the proper automorphism group of f (trace > 2)."""
    fp, _ = f.primitive()
    t, u = pell_plus(fp.disc())
    a, b, c = fp
    return Mat2((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)


class FieldData:
    """Invariants of the real quadratic field Q(sqrt(D))."""

    def __init__(self, D, d_F, lam, eps, eps_plus, unit_norm):
        self.D = D
        self.d_F = d_F
        self.lam = lam
        self.eps = eps
        self.eps_plus = eps_plus
        self.unit_norm = unit_norm

    def __repr__(self):
        return "FieldData(D=%d, d_F=%d, unit_norm=%+d)" % (self.D, self.d_F, self.unit_norm)


def build_field(D):
    if D <= 1:
        raise ValueError("D must exceed 1")
    s, f = squarefree_part(D)
    if f != 1:
        raise ValueError("D must be squarefree")
    d_F = D if D % 4 == 1 else 4 * D
    lam = QuadIrr(d_F, 1, 2, d_F)
    # eps_plus = (t + u sqrt(d_F))/2 is eps**2 when the fundamental unit
    # eps = (s + v sqrt(d_F))/2 has norm -1, and then t = s^2 + 2, u = s v
    t, u = pell_plus(d_F)
    s = math.isqrt(t - 2)
    if s * s == t - 2 and u % s == 0 and s * s - d_F * (u // s) ** 2 == -4:
        eps = QuadIrr(s, u // s, 2, d_F)
        return FieldData(D, d_F, lam, eps, eps * eps, -1)
    eps = QuadIrr(t, u, 2, d_F)
    return FieldData(D, d_F, lam, eps, eps, 1)


def _reduced_forms(D):
    out = []
    s = math.isqrt(D)
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        m = (b * b - D) // 4
        if m >= 0:
            continue
        for a in _divisors(-m):
            for aa in (a, -a):
                c = m // aa
                f = QuadForm(aa, b, c)
                if f.content() == 1 and _is_reduced(f):
                    out.append(f)
    return out


def _divisors(n):
    assert n > 0
    ds = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            ds.append(i)
            if i != n // i:
                ds.append(n // i)
        i += 1
    return sorted(ds)


def gauss_compose(f1, f2):
    """Dirichlet composition of primitive forms of equal discriminant.

    f2 is first moved within its class so its leading coefficient is
    coprime to that of f1; the concordant middle coefficient then comes
    from CRT.
    """
    D = f1.disc()
    assert D == f2.disc()
    a1, b1, _ = f1
    f2 = _coprime_rep(f2, a1)
    a2, b2, _ = f2
    assert math.gcd(a1, a2) == 1
    # B = b1 mod 2a1, B = b2 mod 2a2 (b1, b2 share the parity of D)
    m2 = abs(a2)
    t = 0 if m2 == 1 else ((b2 - b1) // 2) * pow(a1, -1, m2) % m2
    B = b1 + 2 * a1 * t
    A = a1 * a2
    assert (B * B - D) % (4 * A) == 0
    out = QuadForm(A, B, (B * B - D) // (4 * A))
    assert out.content() == 1
    return out


def _coprime_rep(f, n):
    """An equivalent form whose leading coefficient is coprime to n."""
    n = abs(n)
    if n <= 1 or math.gcd(f.a, n) == 1:
        return f
    for y in range(50):
        for x in range(1, 50):
            for sx in ((x,) if y == 0 else (x, -x)):
                if math.gcd(sx, y) == 1 and math.gcd(f.value(sx, y), n) == 1:
                    u, v = _unimodular_complete(sx, y)
                    return f.apply(Mat2(sx, u, y, v))
    raise ArithmeticError("no coprime representative found")


def _unimodular_complete(x, y):
    """(u, v) with x*v - u*y = 1."""
    g, s, t = _xgcd(x, y)
    assert g == 1
    return -t, s


def _xgcd(a, b):
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


class NarrowClassGroup:
    """Cl(F)^+ as proper classes of primitive forms of discriminant d_F."""

    def __init__(self, field, reps, table, sqrt_class):
        self.field = field
        self.class_reps = reps
        self.group_table = table
        self.class_of_principal_sqrt_dF = sqrt_class
        # the reduced forms of a class make up its one rho cycle
        self._class_of = {g: i for i, r in enumerate(reps)
                          for g in form_cycle(r)}

    @property
    def h(self):
        return len(self.class_reps)

    def classify(self, form):
        if form.disc() != self.field.d_F:
            raise ValueError("discriminant mismatch")
        fp, _ = form.primitive()
        return self._class_of[reduce_form(fp)[0]]

    def compose(self, i, j):
        return self.group_table[i][j]

    def identity_index(self):
        for i in range(self.h):
            if all(self.group_table[i][j] == j for j in range(self.h)):
                return i
        raise RuntimeError("no identity")

    def inverse(self, i):
        e = self.identity_index()
        for j in range(self.h):
            if self.group_table[i][j] == e:
                return j
        raise RuntimeError("no inverse")

    def positive_rep(self, i):
        """A representative form with positive leading coefficient."""
        for f in form_cycle(self.class_reps[i]):
            if f.a > 0:
                return f
        raise RuntimeError("cycle has no positive form")


def narrow_class_group(F):
    d = F.d_F
    forms = _reduced_forms(d)
    cycles = []
    seen = set()
    for f in forms:
        if f in seen:
            continue
        cyc = form_cycle(f)
        seen.update(cyc)
        cycles.append(cyc)
    # the principal class first, the others by their least reduced form
    b0 = d % 2
    principal, _ = reduce_form(QuadForm(1, b0, (b0 * b0 - d) // 4))
    cycles.sort(key=lambda cyc: (principal not in cyc, min(cyc)))
    classes = [min(cyc) for cyc in cycles]
    G = NarrowClassGroup(F, classes, None, None)
    positive = [G.positive_rep(i) for i in range(G.h)]
    G.group_table = [[G.classify(gauss_compose(fi, fj)) for fj in positive]
                     for fi in positive]
    G.class_of_principal_sqrt_dF = _sqrt_class(F, G)
    return G


def _sqrt_class(F, G):
    d = F.d_F
    # the ideal (sqrt(d_F)) = sqrt(d) * O with O = Z[(d + sqrt(d))/2]
    w1 = QuadIrr(0, 1, 1, d)
    w2 = w1 * F.lam
    return G.classify(ideal_to_form(d, w1, w2))


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


def _lcm(a, b):
    return a * b // math.gcd(a, b)


def class_of_ideal(G, spec):
    """Narrow class index of an ideal.

    Accepts a QuadForm, a pair of integers (a0, b0) meaning the Z-basis
    [a0, (-b0 + sqrt(d))/2], or a pair of QuadIrr generators.
    """
    d = G.field.d_F
    if isinstance(spec, QuadForm):
        return G.classify(spec)
    w1, w2 = spec
    if isinstance(w1, int) and isinstance(w2, int):
        a0, b0 = w1, w2
        assert (b0 * b0 - d) % (4 * a0) == 0
        return G.classify(QuadForm(a0, b0, (b0 * b0 - d) // (4 * a0)))
    return G.classify(ideal_to_form(d, w1, w2))


class ClassCharacter:
    """A character of the narrow class group.

    Internally stored as exact exponents: the value on class i is
    exp(2 pi i * exponents[i] / modulus).  Calling the character yields
    exact integers +-1 when the order divides 2 and complex doubles
    otherwise.
    """

    def __init__(self, group, exponents, modulus):
        self.group = group
        g = modulus
        for e in exponents:
            g = math.gcd(g, e)
        self.exponents = tuple(e // g for e in exponents)
        self.modulus = modulus // g
        self.order = self.modulus

    def _value(self, ex):
        m = self.modulus
        if 2 * ex % m == 0:
            return 1 if ex % m == 0 else -1
        return cmath.exp(2j * cmath.pi * ex / m)

    def __call__(self, i):
        return self._value(self.exponents[i])

    @property
    def values(self):
        return tuple(self._value(e) for e in self.exponents)

    @property
    def totally_odd(self):
        ex = self.exponents[self.group.class_of_principal_sqrt_dF]
        return 2 * ex % self.modulus == 0 and ex % self.modulus != 0

    def inverse(self):
        return ClassCharacter(self.group,
                              [(-e) % self.modulus for e in self.exponents],
                              self.modulus)

    def is_trivial(self):
        return all(e % self.modulus == 0 for e in self.exponents)

    def __eq__(self, o):
        return (isinstance(o, ClassCharacter)
                and self.exponents == o.exponents
                and self.modulus == o.modulus)

    def __hash__(self):
        return hash((self.exponents, self.modulus))

    def __repr__(self):
        return "ClassCharacter(order=%d, exponents=%r)" % (self.order, self.exponents)


def _element_generators(G):
    """Greedy generating set plus exponent vectors for every element."""
    h = G.h
    e = G.identity_index()
    gens = []
    span = {e: ()}
    for x in range(h):
        if x in span:
            continue
        gens.append(x)
        newspan = {}
        for y, vec in span.items():
            cur, k = y, 0
            while True:
                key = vec + (k,)
                if cur not in newspan:
                    newspan[cur] = key
                cur = G.compose(cur, x)
                k += 1
                if cur == y:
                    break
        span = newspan
        if len(span) == h:
            break
    # pad exponent vectors to full generator count
    ng = len(gens)
    span = {x: vec + (0,) * (ng - len(vec)) for x, vec in span.items()}
    return gens, span


def all_characters(G):
    h = G.h
    gens, span = _element_generators(G)
    ng = len(gens)
    m = 1
    orders = []
    for x in range(h):
        o, cur = 1, x
        e = G.identity_index()
        while cur != e:
            cur = G.compose(cur, x)
            o += 1
        orders.append(o)
    for o in orders:
        m = _lcm(m, o)
    # relations: exponent vectors must map consistently
    relations = []
    for x in range(h):
        for gi, g in enumerate(gens):
            y = G.compose(x, g)
            vec = list(span[x])
            vec[gi] += 1
            rel = tuple(a - b for a, b in zip(vec, span[y]))
            relations.append(rel)
    chars = set()
    for t in _tuples(ng, m):
        if all(sum(a * b for a, b in zip(t, rel)) % m == 0 for rel in relations):
            exps = tuple(sum(a * b for a, b in zip(t, span[x])) % m
                         for x in range(h))
            chars.add(exps)
    assert len(chars) == h, "character count mismatch"
    return [ClassCharacter(G, exps, m) for exps in sorted(chars)]


def _tuples(n, m):
    if n == 0:
        yield ()
        return
    for rest in _tuples(n - 1, m):
        for v in range(m):
            yield rest + (v,)


def odd_characters(G):
    """Characters that are finite parts of totally odd Hecke characters.

    Criterion: value -1 on the class of the principal ideal (sqrt(d_F)).
    Empty when the fundamental unit has norm -1.
    """
    return [ch for ch in all_characters(G) if ch.totally_odd]

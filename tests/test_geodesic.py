import json
import math
import os
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rqgeo.exact import Mat2, divisors, is_prime, squarefree_part
from rqgeo.field import (
    QuadForm,
    _reduced_forms,
    _steps,
    automorph,
    build_field,
    form_cycle,
    narrow_class_group,
    odd_characters,
)
from rqgeo.geodesic import (
    _norm_pt,
    _start_edge,
    ClosedGeodesic,
    InertPrime,
    choose_r,
    gamma0_automorph,
    intersect_winding_cycle,
    intersect_winding_enum,
    manin_table,
    manin_table_enum,
    p1_key,
    rm_points,
    twisted_cycle,
)
from rqgeo.hecke import hecke_translate
from rqgeo.oracles import (
    gamma0_equivalent,
    manin_table_farey,
    minus_root,
    plus_root,
    sl2_equivalence,
    translate,
)

CONFIGS = ((3, 11), (3, 13), (6, 5), (7, 3))
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks", "golden")


def _setup(D, p):
    F = build_field(D)
    G = narrow_class_group(F)
    psi = odd_characters(G)[0]
    return F, G, psi, choose_r(F, p)


def _capped_power_search(form, p):
    """The least power of the automorph in Gamma0(p), found by trying
    A, A^2, ... up to 3(p+2) (the orbit of infinity has at most p+1
    points, so the cap is never reached)."""
    A = automorph(form)
    M = A
    for _ in range(3 * (p + 2)):
        if M.c % p == 0:
            return M
        M = M * A
    raise AssertionError("automorph has no power in Gamma0(p)")


def _random_form(rng):
    """A random primitive form of positive nonsquare discriminant."""
    while True:
        f = QuadForm(rng.randrange(-30, 31), rng.randrange(-30, 31),
                     rng.randrange(-30, 31))
        disc = f.disc()
        if disc > 0 and math.isqrt(disc) ** 2 != disc and f.content() == 1:
            return f


class TestChooseR:
    def test_values(self):
        assert choose_r(build_field(3), 11) == 10
        assert choose_r(build_field(3), 13) == 8
        assert choose_r(build_field(6), 5) == 8
        assert choose_r(build_field(7), 3) == 8

    def test_congruence_and_minimality(self):
        for D, p in CONFIGS:
            F = build_field(D)
            r = choose_r(F, p)
            d = F.d_F
            assert (r * r - d) % (4 * p) == 0
            assert r * r > d
            for s in range(1, r):
                assert (s * s - d) % (4 * p) != 0 or s * s <= d

    def test_inert(self):
        with pytest.raises(InertPrime):
            choose_r(build_field(3), 5)

    def test_ramified_rejected(self):
        with pytest.raises(ValueError):
            choose_r(build_field(3), 3)
        # also with a root that is valid mod 4p: 6^2 = 24 mod 12
        with pytest.raises(ValueError, match="ramifies"):
            choose_r(build_field(6), 3, r=6)

    def test_explicit_r(self):
        F = build_field(6)
        assert choose_r(F, 5, r=8) == 8
        assert choose_r(F, 5, r=-8) == -8
        assert choose_r(F, 5, r=18) == 18
        for r in (7, 2, -2):
            with pytest.raises(ValueError, match="invalid square root"):
                choose_r(F, 5, r=r)
        with pytest.raises(InertPrime):
            choose_r(build_field(3), 5, r=8)

    def test_default_is_the_least_root(self):
        # the Tonelli-Shanks root lifted mod 2p gives the r that stepping
        # r = 1, 2, ... finds, for every squarefree D < 300 at every split
        # p <= 97
        def linear_search(d, p):
            r = 1
            while (r * r - d) % (4 * p) or r * r <= d:
                r += 1
            return r
        cases = 0
        for D in range(2, 300):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            for p in range(3, 98, 2):
                if (not is_prime(p) or F.d_F % p == 0
                        or pow(F.d_F, (p - 1) // 2, p) != 1):
                    continue
                assert choose_r(F, p) == linear_search(F.d_F, p), (D, p)
                cases += 1
        assert cases == 2022

    def test_large_prime(self):
        # O(log p): p = 2^61 - 1 splits in Q(sqrt(5))
        p = 2 ** 61 - 1
        r = choose_r(build_field(5), p)
        assert r == 659791110852991619
        assert (r * r - 5) % (4 * p) == 0 and r < 2 * p

    def test_composite_rejected(self):
        # rejected before the residue test (which 28 passes mod 9)
        for p in (9, 25):
            with pytest.raises(ValueError, match="odd prime"):
                choose_r(build_field(7), p)


def _convergents(w):
    """0/1, 1/0 and then the continued-fraction convergents of w, from
    QuadIrr floors."""
    h0, k0, h1, k1 = 0, 1, 1, 0
    yield h0, k0
    yield h1, k1
    x = w
    while True:
        an = x.floor()
        h0, k0, h1, k1 = h1, k1, an * h1 + h0, an * k1 + k0
        yield h1, k1
        x = 1 / (x - an)


def _value(f, x, y):
    return f.a * x * x + f.b * x * y + f.c * y * y


def test_start_edge_follows_the_convergents():
    # the integer partial quotients, with their floor for Q < 0, give the
    # convergents of the QuadIrr route; a query off that sequence fails at
    # once instead of walking on
    rng = random.Random(31)
    forms = [_random_form(rng) for _ in range(300)]
    forms += [t.form for D, p in CONFIGS for _, Q in _cycle_terms(D, p)
              for n in (2, 5, 7) for t in hecke_translate(Q, n)]
    assert any(f.a < 0 for f in forms)
    for f in forms:
        conv = _convergents(plus_root(f))
        reached, asked = [], []

        def inside(t):
            # call j asks for convergent (j + 1) // 2
            k = (len(asked) + 1) // 2
            while len(reached) <= k:
                reached.append(next(conv))
            assert t == reached[k], (f, asked, t)
            asked.append(t)
            return _value(f, *t) * f.a < 0
        edge = _start_edge(f, f.disc(), inside)
        assert edge == (_norm_pt(asked[-2]), _norm_pt(asked[-1]))
        assert _value(f, *asked[-2]) * _value(f, *asked[-1]) < 0


def _first_hit_rm_form(F, G, cls, p, s):
    """The form of the RM point of one class for the root s, by a search
    of its own restarted for every class: the first primitive candidate
    [a, b, (b^2 - d_F)/(4a)] of the class, b = -s + 2pk with k = 0, 1,
    -1, 2, ..., then p | a by increasing |a|, +a before -a."""
    d = F.d_F
    for k in range(10000):
        for j in ((0,) if k == 0 else (k, -k)):
            b = -s + 2 * p * j
            m = (b * b - d) // 4
            for e in divisors(abs(m)):
                for a in ((e, -e) if e % p == 0 else ()):
                    f = QuadForm(a, b, m // a)
                    if f.content() == 1 and G.classify(f) == cls:
                        return f


def _golden_pairs():
    with open(os.path.join(GOLDEN_DIR, "fields.json")) as fh:
        entries = json.load(fh)["entries"]
    return sorted({(e["D"], e["p"]) for e in entries})


class TestRmPoint:
    def test_rm_point_constraints(self):
        for D, p in CONFIGS:
            F, G, psi, r = _setup(D, p)
            for sign in (1, -1):
                points = rm_points(F, G, p, sign * r)
                assert len(points) == G.h
                for cls, Q in enumerate(points):
                    assert Q.form.a % p == 0
                    assert (Q.form.b + sign * r) % (2 * p) == 0
                    assert Q.form.disc() == F.d_F
                    assert G.classify(Q.form) == cls

    def test_equals_per_class_search(self):
        # one search gives each class the point that a search restarted
        # for that class alone finds, at +-r and +-(r + 2p), on
        # every golden fields pair, the matrix pairs, and fields whose
        # unit has norm -1 (there f and -f share a class, so the order
        # +a before -a decides the point)
        pairs = _golden_pairs()
        assert len(pairs) == 161
        norm_minus_one = [(D, p) for D in (2, 5, 10, 13, 29, 41)
                          for p in (3, 5, 7, 11, 13) if D % p]
        for D, p in pairs + list(CONFIGS) + norm_minus_one:
            F = build_field(D)
            G = narrow_class_group(F)
            try:
                r0 = choose_r(F, p)
            except InertPrime:
                continue
            for s in (r0, -r0, r0 + 2 * p, -r0 - 2 * p):
                want = [_first_hit_rm_form(F, G, cls, p, s)
                        for cls in range(G.h)]
                got = [Q.form for Q in rm_points(F, G, p, s)]
                assert got == want, (D, p, s)

    def test_explicit_large_r(self):
        # the other square root class mod 2p for d_F = 12, p = 13
        F = build_field(3)
        G = narrow_class_group(F)
        d = F.d_F
        r = 18
        assert (r * r - d) % (4 * 13) == 0
        assert choose_r(F, 13, r=r) == r
        target = QuadForm(78, -18, 1)
        cls = G.classify(target)
        Q = rm_points(F, G, 13, r)[cls]
        assert gamma0_equivalent(Q.form, target, 13)

    def test_pair_signs(self):
        F, G, psi, r = _setup(6, 5)
        plus, minus = (rm_points(F, G, 5, s)[0] for s in (r, -r))
        assert (plus.form.b + r) % (2 * 5) == 0
        assert (minus.form.b - r) % (2 * 5) == 0
        # the root's sign alone picks the point: swapping the roots swaps
        # the points
        swapped = [rm_points(F, G, 5, s)[0] for s in (-r, r)]
        assert [Q.form for Q in swapped] == [minus.form, plus.form]


class TestClosedGeodesic:
    def test_stabilizer_fixes_endpoints(self):
        for D, p in CONFIGS:
            F, G, psi, r = _setup(D, p)
            Q = rm_points(F, G, p, r)[0]
            g = Q.gamma
            assert g.det == 1 and g.c % p == 0
            assert g.a + g.d > 2

    def test_gamma0_automorph_minimal(self):
        f = QuadForm(10, -8, 1)
        m = gamma0_automorph(f, 5)
        assert m.c % 5 == 0
        assert f.apply(m) == f

    def test_gamma0_automorph_equals_power_search(self):
        rng = random.Random(7)
        for p in (3, 5, 7, 11, 13):
            for _ in range(40):
                f = _random_form(rng)
                assert gamma0_automorph(f, p) == _capped_power_search(f, p)

    def test_orientation_reversal(self):
        for D, p in CONFIGS:
            F, G, psi, r = _setup(D, p)
            Q = rm_points(F, G, p, r)[0]
            R = Q.reversed()
            assert R.form == QuadForm(*(-e for e in Q.form))
            assert plus_root(R.form) == minus_root(Q.form)
            assert minus_root(R.form) == plus_root(Q.form)
            assert R.gamma * Q.gamma == Mat2(1, 0, 0, 1)
            assert R.reversed().form == Q.form

    def test_slots(self):
        Q = ClosedGeodesic(QuadForm(20, -16, 2), 5)
        assert tuple(Q) == (QuadForm(10, -8, 1), 5)
        assert not hasattr(Q, "__dict__")
        assert Q.form == QuadForm(10, -8, 1)

    def test_values_are_immutable_and_equal_by_value(self):
        f = QuadForm(20, -16, 2)
        for value, field in ((Mat2(2, 1, 1, 1), "a"), (f, "a"),
                             (ClosedGeodesic(f, 5), "form")):
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
            with pytest.raises(AttributeError):
                value.x = 5
        Q, R = ClosedGeodesic(f, 5), ClosedGeodesic(QuadForm(10, -8, 1), 5)
        assert Q is not R and Q == R and hash(Q) == hash(R)
        assert Q != ClosedGeodesic(f, 7) and Q != Q.reversed()

    def test_square_disc_rejected(self):
        with pytest.raises(ValueError):
            ClosedGeodesic(QuadForm(1, 3, 2), 5)


class TestGamma0Equivalence:
    def test_reflexive_on_translates(self):
        # for [1, 2, -2] the SL2(Z) equivalence that sl2_equivalence finds
        # is outside Gamma0(5) for some translates, so the oracle has to
        # step through powers of the automorph
        rng = random.Random(3)
        outside = 0
        for f in (QuadForm(10, -8, 1), QuadForm(1, 2, -2)):
            for _ in range(8):
                j = rng.randrange(-4, 5)
                k = rng.randrange(-2, 3)
                g = Mat2(1, j, 0, 1) * Mat2(1, 0, 5 * k, 1)
                assert gamma0_equivalent(f, f.apply(g), 5)
                outside += sl2_equivalence(f, f.apply(g)).c % 5 != 0
        assert outside > 0

    def test_sl2_but_not_gamma0(self):
        # [1,2,-2] and its S-translate are SL2- but not Gamma0(5)-equivalent
        f = QuadForm(1, 2, -2)
        g = f.apply(Mat2(0, -1, 1, 0))
        assert not gamma0_equivalent(f, g, 5)
        assert gamma0_equivalent(f, g, 1)


class TestIntersection:
    def test_cycle_equals_enum_base_points(self):
        for D, p in CONFIGS:
            F, G, psi, r = _setup(D, p)
            T = twisted_cycle(F, G, psi, p, r)
            for _, Q in T:
                assert intersect_winding_cycle(Q) == intersect_winding_enum(Q)

    def test_known_values(self):
        # per-geodesic intersection numbers at the base level
        F, G, psi, r = _setup(6, 5)
        T = twisted_cycle(F, G, psi, 5, r)
        vals = [intersect_winding_cycle(Q) for _, Q in T]
        coeffs = [c for c, _ in T]
        assert sum(c * v for c, v in zip(coeffs, vals)) == -4

    def test_orientation_flip_negates(self):
        for D, p in ((6, 5), (7, 3)):
            F, G, psi, r = _setup(D, p)
            Q = rm_points(F, G, p, r)[0]
            assert intersect_winding_cycle(Q.reversed()) == -intersect_winding_cycle(Q)
            assert intersect_winding_enum(Q.reversed()) == -intersect_winding_enum(Q)

    def test_gamma0_translate_invariance(self):
        rng = random.Random(11)
        F, G, psi, r = _setup(6, 5)
        Q = rm_points(F, G, 5, r)[1]
        base = intersect_winding_cycle(Q)
        for _ in range(6):
            g = Mat2(1, rng.randrange(-3, 4), 0, 1) * Mat2(1, 0, 5 * rng.randrange(-2, 3), 1)
            R = translate(Q, g)
            assert intersect_winding_cycle(R) == base
            assert intersect_winding_enum(R) == base

    def test_infinity_has_one_key(self):
        # the walk compares edges as sets of normalised points, so every
        # (x, 0) must be the same point
        assert _norm_pt((-3, 0)) == _norm_pt((-1, 0)) == (1, 0)
        assert _norm_pt((4, -6)) == (-2, 3)


@lru_cache(maxsize=None)
def _cycle_terms(D, p):
    F, G, psi, r = _setup(D, p)
    return twisted_cycle(F, G, psi, p, r)


@settings(max_examples=100, deadline=None)
@given(config=st.sampled_from(CONFIGS + ((15, 7), (21, 5), (33, 17), (7, 19))),
       n=st.integers(1, 12), pick=st.integers(0, 10 ** 6),
       j=st.integers(-3, 3), k=st.integers(-2, 2))
def test_river_walk_equals_farey_walk(config, n, pick, j, k):
    # a random translate of a random term, moved by a random Gamma0(p)
    # element: the river walk and the Farey walk must agree
    D, p = config
    terms = _cycle_terms(D, p)
    _, Q = terms[pick % len(terms)]
    translates = hecke_translate(Q, n)
    t = translates[(pick // len(terms)) % len(translates)]
    t = translate(t, Mat2(1, j, 0, 1) * Mat2(1, 0, p * k, 1))
    # the Farey oracle signs every edge it walks by the Moebius images of
    # the roots, a translate of the axis or not
    table = manin_table_enum(t)
    assert manin_table(t) == table == _nonzero(manin_table_farey(t))
    assert intersect_winding_cycle(t) == table.get(p, 0) == \
        intersect_winding_enum(t)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 97)),
       a=st.integers(-12, 12), b=st.integers(-12, 12), c=st.integers(-12, 12))
def test_manin_table_equals_farey_walk(p, a, b, c):
    # the table read off the reduction cycle, one turn per row in the
    # orbit, against a Farey walk over one Gamma0(p)-period signed by the
    # Moebius images of the roots
    f = QuadForm(a, b, c)
    disc = f.disc()
    assume(disc > 0 and math.isqrt(disc) ** 2 != disc and f.content() == 1)
    Q = ClosedGeodesic(f, p)
    table = manin_table(Q)
    assert table == _nonzero(manin_table_farey(Q)), (f, p)
    assert table == manin_table_enum(Q), (f, p)
    assert table.get(p, 0) == intersect_winding_cycle(Q)
    assert manin_table(Q.reversed()) == {k: -v for k, v in table.items()}
    # the edge of bottom row (c : d) reversed has bottom row (d : -c)
    for d in range(p):
        assert table.get(p1_key(d, 1, p), 0) == \
            -table.get(p1_key(-1, d, p), 0)
    # the edges of bottom rows (c : d), (d : -c-d) and (-c-d : c) bound a
    # Farey triangle
    for c, d in [(1, d) for d in range(p)] + [(0, 1)]:
        rows = (c, d), (d, -c - d), (-c - d, c)
        assert sum(table.get(p1_key(y, x, p), 0) for x, y in rows) == 0, \
            (f, p, c, d)


@pytest.mark.parametrize("D, p", [(91, 9999973), (174, 9999991)])
def test_manin_tables_at_large_p_are_sparse(D, p):
    # an RM point's table has a few dozen nonzero entries out of p + 1,
    # and both walks hold only those: no memory of the order of p
    F = build_field(D)
    G = narrow_class_group(F)
    r = choose_r(F, p)
    points = [Q for s in (r, -r) for Q in rm_points(F, G, p, s)]
    tracemalloc.start()
    try:
        for Q in points:
            table = manin_table(Q)
            assert table == manin_table_enum(Q), (D, p, Q)
            assert table and 0 not in table.values(), Q
            assert all(0 <= k <= p for k in table), Q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def _nonzero(entries):
    """The nonzero entries of a list indexed by P^1 key, as a dict."""
    return {k: v for k, v in enumerate(entries) if v}


def _key(x, y, p):
    """The point (x : y) of P^1(F_p) as an index in 0..p, p for infinity."""
    return p if y % p == 0 else x * pow(y, -1, p) % p


def _topograph_river(g, p):
    """One period of the river of the reduced form g, stepped through the
    Conway topograph one edge at a time: the number of edges, and the
    tally of +1 at the P^1(F_p) key of each edge's face of positive value
    and -1 at that of its face of negative value."""
    a, b, c = g
    e1, e2 = (1, 0), (0, 1)
    if a < 0:
        # the edge's forms are [c, -b, a] and g itself
        a, b, c = c, -b, a
        e1, e2 = (0, 1), (-1, 0)
    start, edges, tally = (a, b, c), 0, [0] * (p + 1)
    while True:
        tally[_key(*e1, p)] += 1
        tally[_key(*e2, p)] -= 1
        edges += 1
        t = a + b + c               # the value on e1 + e2, never 0 here
        e = (e1[0] + e2[0], e1[1] + e2[1])
        if t > 0:
            a, b, e1 = t, b + 2 * c, e
        else:
            b, c, e2 = b + 2 * a, t, e
        if (a, b, c) == start:
            return edges, tally


def _orbit_sums(A, tally, p):
    """For each key k, the sum of the tally over the orbit of k under A."""
    sums = []
    for k in range(p + 1):
        x, y = (k, 1) if k < p else (1, 0)
        orbit = set()
        while _key(x, y, p) not in orbit:
            orbit.add(_key(x, y, p))
            x, y = A.a * x + A.b * y, A.c * x + A.d * y
        sums.append(sum(tally[j] for j in orbit))
    return sums


def test_reduction_cycle_is_one_river_period():
    # every cycle of reduced forms of a translate discriminant
    # n^2 d_F / g^2 = m^2 d_F, m <= 40: the product of the cycle's steps
    # is the automorph up to sign, the cycle spans sum |delta| river
    # edges, one river period, and the cycle number of g moved by M,
    # which M^-1 reduces back to g, is the topograph's tally summed over
    # the automorph's orbit of M infinity = key k.  The walk takes each
    # run mod p and visits only its first |delta| mod p edges one by one;
    # each pair has runs of two laps or more, |delta| >= 2p
    cycles = edges = visits = 0
    for D, p in CONFIGS + ((15, 7),):
        d_F = build_field(D).d_F
        longest = 0
        for m in range(1, 41):
            seen = set()
            for g in _reduced_forms(m * m * d_F):
                if g in seen:
                    continue
                forms, deltas = form_cycle(g)
                seen.update(forms)
                A = automorph(g)
                assert _steps(deltas) in (A, tuple(-e for e in A)), g
                period, tally = _topograph_river(g, p)
                assert sum(abs(delta) for delta in deltas) == period, g
                sums = _orbit_sums(A, tally, p)
                for k in range(p + 1):
                    M = Mat2(k, -1, 1, 0) if k < p else Mat2(1, 0, 0, 1)
                    t = ClosedGeodesic(g.apply(M), p)
                    assert intersect_winding_cycle(t) == sums[k], (g, k)
                cycles, edges = cycles + 1, edges + period
                visits += sum(abs(delta) % p for delta in deltas)
                longest = max([longest] + [abs(delta) for delta in deltas])
        assert longest >= 2 * p, (D, p, longest)
    assert (cycles, edges, visits) == (1376, 121700, 32380)


class TestTwistedCycle:
    def test_structure_d12(self):
        F, G, psi, r = _setup(3, 13)
        T = twisted_cycle(F, G, psi, 13, r)
        assert len(T) == 2 * G.h == 4
        assert sorted(c for c, _ in T) == [-1, -1, 1, 1]

    def test_rejects_even_character(self):
        F = build_field(3)
        G = narrow_class_group(F)
        r = choose_r(F, 13)
        from rqgeo.field import all_characters
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(ValueError):
            twisted_cycle(F, G, triv, 13, r)

"""Real quadratic fields, narrow class groups, and odd characters.

Walks through the exact arithmetic layer: fundamental units via the
reduction cycle, narrow classes as proper form classes, and the
selection of totally odd characters (the ones an Eisenstein series can
be attached to).
"""

from rqgeo import all_characters, build_field, narrow_class_group, odd_characters
from rqgeo.field import pell_plus

for D in (3, 5, 6, 7, 10):
    F = build_field(D)
    G = narrow_class_group(F)
    t, u = pell_plus(F.d_F)
    print("D = %d   d_F = %d   unit norm %+d   h+ = %d" % (
        D, F.d_F, F.unit_norm, G.h))
    print("  fundamental Pell solution: t = %d, u = %d" % (t, u))
    print("  class representatives:",
          [tuple(G.positive_rep(i)) for i in range(G.h)])
    odd = odd_characters(G)
    for ch in all_characters(G):
        tag = "totally odd" if ch.totally_odd else (
            "trivial" if ch.is_trivial() else "even")
        print("  character exponents %s  values %s  (%s)" % (
            list(ch.exponents), tuple(ch(i) for i in range(G.h)), tag))
    if not odd:
        # happens exactly when the field has a unit of norm -1
        print("  -> no admissible character: unit norm is -1")
    print()

print("Note how D = 5 and D = 10 (norm -1 units) admit no totally odd")
print("character, while D = 3, 6, 7 each admit exactly one.")

"""RM points, twisted cycles, and the two intersection algorithms.

For F = Q(sqrt(6)) and p = 5 we build the psi-twisted cycle of closed
geodesics and intersect each Hecke translate with the winding geodesic
(the image of the imaginary axis in Y0(p)), using two algorithms that
share nothing but the exact arithmetic layer:

  cycle  - entry p of the form's Manin table: walk its reduction
           cycle, each step a run of |delta| edges of the river of its
           Conway topograph, and count the straddling forms (a*c < 0)
           of one automorph period that lie in the Gamma0(p)-class;
  enum   - follow the Farey cutting sequence of the geodesic from one
           crossed edge to its image under the Gamma0(p) stabilizer,
           telling the sides of each vertex by the sign of the form.

The series itself builds no translate: T_n moves onto the winding
geodesic, whose Hecke images are fixed sums of unimodular edges, so one
Manin table of p + 1 crossing numbers per point gives every pairing
(manin_pairings sums the tables along those edges for every n <= N in
one continued-fraction walk).
"""

from rqgeo import (
    build_field,
    choose_r,
    hecke_translate,
    intersect_winding_cycle,
    intersect_winding_enum,
    manin_pairings,
    manin_table,
    narrow_class_group,
    odd_characters,
    twisted_cycle,
)

D, p = 6, 5
F = build_field(D)
G = narrow_class_group(F)
psi = odd_characters(G)[0]
r = choose_r(F, p)
print("d_F = %d, p = %d, chosen square root r = %d (r^2 = d_F mod 4p)"
      % (F.d_F, p, r))

cyc = twisted_cycle(F, G, psi, p, r)
print("\ntwisted cycle: %d closed geodesics (one +r and one -r per class);"
      % len(cyc))
print("each is a signed primitive form, oriented from its plus root to its"
      " minus root")
for coeff, Q in cyc:
    print("  coeff %+d   form %s" % (coeff, tuple(Q.form)))

print("\nper-translate intersection numbers, both algorithms:")
for n in (1, 2, 3, 4):
    total = 0
    rows = []
    for coeff, Q in cyc:
        for t in hecke_translate(Q, n):
            a = intersect_winding_cycle(t)
            b = intersect_winding_enum(t)
            assert a == b
            rows.append((tuple(t.form), a))
            total += coeff * a
    print("  n = %d: pairing %d from %d translates %s"
          % (n, total, len(rows), rows if n == 1 else "..."))
tables = [(coeff, manin_table(Q)) for coeff, Q in cyc]
print("\nManin tables, the nonzero entries: key k for the bottom row (1 : k),"
      " p for (0 : 1):")
for coeff, table in tables:
    print("  coeff %+d   %s" % (coeff, dict(sorted(table.items()))))
print("the same pairings from the Manin tables alone, one walk for all n:")
rows = manin_pairings([table for _, table in tables], 4, p)
for n in (1, 2, 3, 4):
    pairing = sum(coeff * row[n - 1] for (coeff, _), row in zip(tables, rows))
    print("  n = %d: rows %s, pairing %d"
          % (n, [row[n - 1] for row in rows], pairing))
print("\nevery pairing is even (both square roots trace the same locus)")
print("and the series coefficient is a_n = -2 * pairing.")

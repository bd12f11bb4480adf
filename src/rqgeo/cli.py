"""Command-line interface: JSON/CSV reports and batch verification.

Subcommands: field, classgroup, chars, rmpoints, intersect, series,
verify, verify-analytic; each takes only the options it reads.  Exit
codes: 0 success (including inert primes, which yield a structured zero
series), 2 verification mismatch (a failed check, or the two
intersection algorithms disagreeing on a translate), 3 domain errors
(bad input, a malformed command line included, or a character this
version cannot handle exactly), 4 internal error (a broken invariant:
AssertionError or RuntimeError).

verify walks the Hecke translates twice: once with both intersection
algorithms for the report series, whose pairing table the pm_halves and
psi_inverse checks read back, and once with the cycle algorithm for the
series at r + 2p.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from .exact import QuadIrr, is_prime
from .field import (
    all_characters,
    build_field,
    narrow_class_group,
    odd_characters,
    pell_plus,
)
from .geodesic import InertPrime, choose_r, rm_point_pair, twisted_cycle
from .hecke import hecke_translate, right_cosets, sigma1
from .series import (
    AlgorithmMismatch,
    diagonal_restriction,
    intersection_algorithm,
    modularity_check,
    pairing_table,
)

__all__ = ["main", "run"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


class DomainFailure(Exception):
    pass


class VerificationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization


def _jsonable(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, QuadIrr):
        return {"u": v.u, "v": v.v, "w": v.w, "D": v.D}
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _flatten(prefix, v, rows):
    if isinstance(v, dict):
        for k, x in v.items():
            _flatten("%s.%s" % (prefix, k) if prefix else str(k), x, rows)
    elif isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v):
        for i, x in enumerate(v):
            _flatten("%s[%d]" % (prefix, i), x, rows)
    else:
        rows.append((prefix, v))


def emit(report, fmt, stream=None):
    stream = stream or sys.stdout
    payload = _jsonable(report)
    if fmt == "json":
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    elif fmt == "csv":
        rows = []
        _flatten("", payload, rows)
        w = csv.writer(stream)
        w.writerow(("key", "value"))
        for k, v in rows:
            w.writerow((k, json.dumps(v) if isinstance(v, list) else v))
    else:
        rows = []
        _flatten("", payload, rows)
        for k, v in rows:
            stream.write("%-28s %s\n" % (k, v))


# ---------------------------------------------------------------------------
# shared setup


def _field(args):
    try:
        return build_field(args.D)
    except ValueError as exc:
        raise DomainFailure(str(exc))


def _character(G, args):
    odd = odd_characters(G)
    if not odd:
        raise DomainFailure(
            "no admissible character: every totally odd character requires "
            "unit norm +1 (d_F = %d has a unit of norm -1)" % G.field.d_F)
    idx = args.char_index
    if not 0 <= idx < len(odd):
        raise DomainFailure("char-index %d out of range (have %d odd "
                            "characters)" % (idx, len(odd)))
    if odd[idx].order > 2:
        raise DomainFailure(
            "characters of order %d are not supported yet: their values "
            "are not exact" % odd[idx].order)
    return odd[idx]


def _require_p(args):
    if args.p % 2 == 0 or not is_prime(args.p):
        raise DomainFailure("p must be an odd prime")
    return args.p


def _base_report(args, **extra):
    rep = {"schema_version": SCHEMA_VERSION, "D": getattr(args, "D", None),
           "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# subcommands


def cmd_field(args):
    F = _field(args)
    t, u = pell_plus(F.d_F)
    return _base_report(
        args, d_F=F.d_F, unit_norm=F.unit_norm,
        fundamental_unit=F.eps, totally_positive_unit=F.eps_plus,
        pell_plus={"t": t, "u": u})


def cmd_classgroup(args):
    F = _field(args)
    G = narrow_class_group(F)
    t, u = pell_plus(F.d_F)
    data = {"h": G.h,
            "reps": [list(G.positive_rep(i)) for i in range(G.h)],
            "table": [[G.compose(i, j) for j in range(G.h)]
                      for i in range(G.h)],
            "sqrt_class": G.class_of_principal_sqrt_dF,
            "pell_plus": {"t": t, "u": u}}
    return _base_report(args, d_F=F.d_F, classgroup=data)


def cmd_chars(args):
    F = _field(args)
    G = narrow_class_group(F)
    chars = all_characters(G)
    odd = odd_characters(G)
    listing = [{"exponents": list(ch.exponents),
                "values": [ch(i) for i in range(G.h)],
                "totally_odd": ch.totally_odd,
                "trivial": ch.is_trivial()} for ch in chars]
    rep = _base_report(args, d_F=F.d_F, h=G.h, characters=listing,
                       odd_count=len(odd))
    if not odd:
        rep["message"] = "no admissible character"
    return rep


def cmd_rmpoints(args):
    F = _field(args)
    p = _require_p(args)
    G = narrow_class_group(F)
    try:
        rc = choose_r(F, p, args.r)
    except InertPrime as exc:
        return _base_report(args, d_F=F.d_F, p=p, inert=True,
                            message=str(exc))
    data = {"r": rc.r, "N0": rc.N0, "classes": []}
    for cls in range(G.h):
        plus, minus = rm_point_pair(F, G, cls, p, rc)
        data["classes"].append({"class_index": cls,
                                "form_plus": list(plus.form),
                                "form_minus": list(minus.form)})
    return _base_report(args, d_F=F.d_F, p=p, inert=False, rmpoints=data)


def cmd_intersect(args):
    F = _field(args)
    p = _require_p(args)
    G = narrow_class_group(F)
    psi = _character(G, args)
    try:
        rc = choose_r(F, p, args.r)
    except InertPrime as exc:
        return _base_report(args, d_F=F.d_F, p=p, inert=True,
                            message=str(exc))
    n = args.n
    intersect = intersection_algorithm(args.algorithm)
    translates = total = 0
    for coeff, Q in twisted_cycle(F, G, psi, p, rc):
        ts = hecke_translate(Q, n)
        translates += len(ts)
        total += coeff * sum(intersect(t) for t in ts)
    return _base_report(args, d_F=F.d_F, p=p, r=rc.r, n=n,
                        algorithm=args.algorithm,
                        translates=translates,
                        right_cosets=len(right_cosets(n, p)),
                        pairing=total)


def _series_report(args, F, G, psi, p, algorithm):
    S = diagonal_restriction(F, G, psi, p, N=args.N, r=args.r,
                             algorithm=algorithm)
    rep = _base_report(
        args, d_F=F.d_F, p=p, r=S.metadata["r"], kappa=2,
        convention_sign=S.metadata["pairing_factor"],
        psi_exponents=list(psi.exponents),
        constant=Fraction(S.constant),
        coeffs={n: S.coeffs[n] for n in sorted(S.coeffs)},
        inert=S.inert)
    return rep, S


def cmd_series(args):
    F = _field(args)
    p = _require_p(args)
    G = narrow_class_group(F)
    psi = _character(G, args)
    rep, _ = _series_report(args, F, G, psi, p, args.algorithm)
    return rep


def cmd_verify(args):
    F = _field(args)
    p = _require_p(args)
    G = narrow_class_group(F)
    psi = _character(G, args)
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "passed": bool(ok), "detail": detail})

    # the report series itself checks cycle == enum on every translate;
    # after a mismatch it is computed again with the cycle algorithm
    algorithm = "both"
    try:
        rep, S = _series_report(args, F, G, psi, p, algorithm)
        dual = (True, "cycle==enum for n=1..%d" % args.N)
    except AlgorithmMismatch as exc:
        algorithm = "cycle"
        rep, S = _series_report(args, F, G, psi, p, algorithm)
        dual = (False, str(exc))
    if S.inert:
        record("inert", True, "p is inert: zero series")
        rep["checks"] = checks
        rep["passed"] = True
        return rep
    record("dual_algorithm", *dual)

    mod = modularity_check(S)
    record("modularity", mod.passed,
           mod.message or ("mode=%s" % mod.mode))

    # the RM points of r + 2p are other forms: a second table
    shifted = diagonal_restriction(F, G, psi, p, N=args.N,
                                   r=S.metadata["r"] + 2 * p)
    record("r_plus_2p", shifted == S)
    # each class has an RM point of +r and one of -r; the halving in
    # series._coefficient assumes that the two halves pair equally.  The
    # rows are those of the report series, read back from its table.
    table = pairing_table(F, G, p, S.metadata["r"], args.N, algorithm)
    weights = [psi(cls) for cls in range(G.h)]

    def half(k):
        return [sum(w * rows[k][i] for w, rows in zip(weights, table))
                for i in range(args.N)]
    record("pm_halves", half(0) == half(1),
           "+r and -r halves pair equally for n=1..%d" % args.N)
    # psi^-1 reuses the report's table; it can differ from psi only for
    # characters of order > 2
    inv = diagonal_restriction(F, G, psi.inverse(), p, N=args.N, r=args.r,
                               algorithm=algorithm)
    record("psi_inverse", inv == S)

    counts = all(len(right_cosets(n, p)) == sigma1(n, None)
                 for n in range(1, min(args.N, 30) + 1) if n % p)
    record("coset_counts", counts, "sigma1 oracle")

    ok = all(c["passed"] for c in checks)
    rep["checks"] = checks
    rep["passed"] = ok
    if not ok:
        raise VerificationFailure(rep)
    return rep


def cmd_verify_analytic(args):
    from . import analytic as an
    checks = []

    def record(name, err, tol):
        checks.append({"name": name, "max_error": float(err),
                       "tolerance": tol, "passed": bool(err < tol)})

    err = max(abs(an.bessel_K(0.5, a) - an.bessel_K_half_closed(a))
              / an.bessel_K_half_closed(a)
              for a in (0.1, 0.5, 1, 2, 5, 10, 20, 50))
    record("bessel_half", err, 1e-10)

    import random
    rng = random.Random(5)

    def nz():
        v = 0
        while abs(v) < 0.2:
            v = rng.uniform(-3, 3)
        return v

    worst = 0.0
    for N in (1, 2, 3):
        cases = [tuple((nz(), 0) for _ in range(N)),
                 tuple((0, nz()) for _ in range(N)),
                 tuple((nz(), nz()) for _ in range(N))]
        for x, s in zip(cases, (0.3, 0.3, 0.7)):
            a, b = an.J_closed(x, s), an.J_quadrature(x, s)
            worst = max(worst, abs(a - b) / max(1, abs(a)))
    record("J_closed_forms", worst, 1e-8)

    record("J_negative_norm",
           abs(an.J_quadrature(((1, 1), (1, -3)), 0)), 1e-8)

    worst = 0.0
    for x in (((1, 1), (1, 1)), ((-1, -1), (-1, -1)), ((1, -1), (1, 1))):
        worst = max(worst,
                    abs(an.phi0_integral(x) - an.phi0_expected(x)))
    record("phi0_signs", worst, 1e-6)

    taus = (0.3 + 1.2j, -0.7 + 0.8j)
    worst = max(abs(an.Z_inf(taus, 3, 2, s) - an.Z_inf_quadrature(taus, 3, 2, s))
                for s in (0, 0.35, -0.5))
    record("Z_inf", worst, 1e-8)

    rep = _base_report(args, checks=checks,
                       passed=all(c["passed"] for c in checks))
    rep.pop("D", None)
    if not rep["passed"]:
        raise VerificationFailure(rep)
    return rep


# ---------------------------------------------------------------------------
# driver


# the options of each subcommand beyond --format; None means no field
# either
COMMANDS = {
    "field": (cmd_field, ()),
    "classgroup": (cmd_classgroup, ()),
    "chars": (cmd_chars, ()),
    "rmpoints": (cmd_rmpoints, ("p", "r")),
    "intersect": (cmd_intersect, ("p", "r", "char-index", "n", "algorithm")),
    "series": (cmd_series, ("p", "r", "char-index", "N", "algorithm")),
    "verify": (cmd_verify, ("p", "r", "char-index", "N", "no-cache")),
    "verify-analytic": (cmd_verify_analytic, None),
}

OPTIONS = {
    "p": dict(type=int, required=True, help="odd prime level"),
    "r": dict(type=int, default=None,
              help="override the square root of d_F mod 4p"),
    "char-index": dict(type=int, default=0,
                       help="index into the totally odd characters"),
    "N": dict(type=int, default=30, help="q-expansion truncation"),
    "n": dict(type=int, default=1, help="Hecke operator index"),
    "algorithm": dict(choices=("cycle", "enum", "both"), default="cycle"),
    # does nothing; accepted because benchmarks/worker.py passes it
    "no-cache": dict(action="store_true", help=argparse.SUPPRESS),
}


class _Parser(argparse.ArgumentParser):
    """Bad command-line input is a domain error: usage and message on
    stderr, exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    ap = _Parser(
        prog="rqgeo",
        description="Diagonal restrictions of p-stabilized Eisenstein "
                    "series over real quadratic fields, from geodesic "
                    "intersection numbers.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        sp = sub.add_parser(name)
        if options is not None:
            sp.add_argument("--D", type=int, required=True,
                            help="squarefree integer defining F = Q(sqrt(D))")
            for opt in options:
                sp.add_argument("--" + opt, **OPTIONS[opt])
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    return ap


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # --help (0) or bad usage (EXIT_DOMAIN)
        return exc.code
    fn = COMMANDS[args.command][0]
    try:
        report = fn(args)
    except (DomainFailure, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationFailure as exc:
        emit(exc.args[0], args.format)
        return EXIT_MISMATCH
    except AlgorithmMismatch as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except (AssertionError, RuntimeError) as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL
    emit(report, args.format)
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

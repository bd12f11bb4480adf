"""Command-line interface: JSON/CSV reports and batch verification.

Subcommands: field, classgroup, chars, rmpoints, intersect, series,
verify, verify-analytic; each takes only the options it reads.  parse
reads the command line from the COMMANDS and OPTIONS tables as argparse
did, with no argparse import, and builds --help from them too.  Exit
codes: 0 success (including inert primes, which yield a structured zero
series), 2 verification mismatch (a report with passed false, or the two
intersection algorithms disagreeing on a translate in intersect), 3
domain error (a malformed command line, or a DomainError: bad input, D
above MAX_D, a level above MAX_LEVEL for series, verify and intersect,
--N of series and verify or --n of intersect above MAX_N, a character
this version cannot handle exactly, or verify-analytic without mpmath),
4 internal error (any other exception, printed with its type and no
traceback).

verify builds its series at r, then compares the Manin tables of the h
RM points (h the narrow class number) of r + 2p (r - 2p for r < 0) with
r's class by class (r_plus_2p), and those of -(r + 2p) at sigma(c) with
r's at c negated (pm_halves).  dual_algorithm runs check_pairing_table
on the three roots: the 3h Manin tables against their Farey walks, r's
h rows against one pass over Merel's set; verify builds no Hecke
translate.  intersect sums both intersection algorithms over the
twisted cycle's translates.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .exact import DomainError
from .field import (
    all_characters,
    build_field,
    narrow_class_group,
    odd_characters,
    pell_plus,
)
from .geodesic import AlgorithmMismatch, InertPrime, check_level, choose_r
from .geodesic import rm_points, twisted_cycle
from .hecke import pair_with_twisted_cycle, right_cosets
from .series import (
    check_pairing_table,
    diagonal_restriction,
    manin_tables,
    modularity_check,
)

__all__ = ["main", "run"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# the largest p of series, verify and intersect: no Manin table grows with
# p, but the RM-point search and the periods of intersect's translates do
MAX_LEVEL = 10 ** 7
# the largest --N of series and verify and --n of intersect: verify's pass
# over Merel's set takes time like N^2 log N, and the series walks every
# continued fraction of denominator at most N, time like N^2
MAX_N = 2000
# the largest D of every command, each of which computes a Pell unit
MAX_D = 10 ** 10


# ---------------------------------------------------------------------------
# serialization


def _jsonable(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
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
        rows.append((prefix, json.dumps(v) if isinstance(v, list) else v))


def render(report, fmt):
    """The report as text, every integer in full: Python's limit on the
    digits of int-to-str (3.10.7 and later) is lifted while it renders,
    and an integer past a limit left in place is a DomainError."""
    payload, out = _jsonable(report), io.StringIO()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        rows = []
        _flatten("", payload, rows)
        if fmt == "csv":
            import csv          # loaded by the runs that write csv only
            csv.writer(out).writerows([("key", "value")] + rows)
        else:
            out.writelines("%-28s %s\n" % row for row in rows)
        return out.getvalue()
    except ValueError as exc:
        raise DomainError(exc) from None
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# shared setup


def _setup(args):
    """(F, G, psi, p) of intersect, series and verify, p <= MAX_LEVEL and
    --N (or intersect's --n) <= MAX_N."""
    if args.p > MAX_LEVEL:
        raise DomainError("p = %d is above the largest supported level %d"
                          % (args.p, MAX_LEVEL))
    name = "N" if hasattr(args, "N") else "n"
    size = getattr(args, name)
    if size > MAX_N:
        raise DomainError("--%s %d is above MAX_N = %d" % (name, size, MAX_N))
    F = build_field(args.D)
    # refused before the class group, which takes seconds at large D: a
    # unit of norm -1 leaves no totally odd character
    if F.unit_norm < 0:
        raise DomainError(
            "no admissible character: every totally odd character requires "
            "unit norm +1 (d_F = %d has a unit of norm -1)" % F.d_F)
    check_level(F, args.p)
    G = narrow_class_group(F)
    odd, idx = odd_characters(G), args.char_index
    if not 0 <= idx < len(odd):
        raise DomainError("char-index %d out of range (have %d odd "
                          "characters)" % (idx, len(odd)))
    return F, G, odd[idx], args.p


def _base_report(args, **extra):
    rep = {"schema_version": SCHEMA_VERSION, "D": getattr(args, "D", None),
           "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# subcommands


def _unit(F, x, y):
    """The unit (x + y sqrt(d_F))/2 as (u + v sqrt(D))/w in lowest terms."""
    v = y if F.d_F == F.D else 2 * y        # sqrt(4D) = 2 sqrt(D)
    g = math.gcd(x, v, 2)
    return {"u": x // g, "v": v // g, "w": 2 // g, "D": F.D}


def cmd_field(args):
    F = build_field(args.D)
    t, u = pell_plus(F.d_F)
    return _base_report(
        args, d_F=F.d_F, unit_norm=F.unit_norm,
        fundamental_unit=_unit(F, *F.unit), totally_positive_unit=_unit(F, t, u),
        pell_plus={"t": t, "u": u})


def cmd_classgroup(args):
    F = build_field(args.D)
    G = narrow_class_group(F)
    t, u = pell_plus(F.d_F)
    # the group is abelian: each unordered pair is composed once
    upper = [[G.compose(i, j) for j in range(i, G.h)] for i in range(G.h)]
    data = {"h": G.h,
            "reps": [list(G.positive_rep(i)) for i in range(G.h)],
            "table": [[upper[min(i, j)][abs(i - j)] for j in range(G.h)]
                      for i in range(G.h)],
            "sqrt_class": G.class_of_principal_sqrt_dF,
            "pell_plus": {"t": t, "u": u}}
    return _base_report(args, d_F=F.d_F, classgroup=data)


def _value(ch, i):
    """ch(i) where it is real (+-1), else the string zeta_m^e."""
    try:
        return ch(i)
    except DomainError:
        return "zeta_%d^%d" % (ch.order, ch.exponents[i])


def cmd_chars(args):
    F = build_field(args.D)
    G = narrow_class_group(F)
    chars = all_characters(G)
    odd = [ch for ch in chars if ch.totally_odd]
    listing = [{"exponents": list(ch.exponents),
                "values": [_value(ch, i) for i in range(G.h)],
                "totally_odd": ch.totally_odd,
                "trivial": ch.is_trivial()} for ch in chars]
    rep = _base_report(args, d_F=F.d_F, h=G.h, characters=listing,
                       odd_count=len(odd))
    if not odd:
        rep["message"] = "no admissible character"
    return rep


def cmd_rmpoints(args):
    F = build_field(args.D)
    p = args.p
    try:        # before the class group, which a refused p does not need
        r = choose_r(F, p, args.r)
    except InertPrime as exc:
        return _base_report(args, d_F=F.d_F, p=p, inert=True,
                            message=str(exc))
    G = narrow_class_group(F)
    # N0 = 2 N((-r + sqrt(d_F))/2)
    pairs = zip(rm_points(F, G, p, r), rm_points(F, G, p, -r))
    data = {"r": r, "N0": (r * r - F.d_F) // 2, "classes": [
        {"class_index": cls, "form_plus": list(plus.form),
         "form_minus": list(minus.form)}
        for cls, (plus, minus) in enumerate(pairs)]}
    return _base_report(args, d_F=F.d_F, p=p, inert=False, rmpoints=data)


def cmd_intersect(args):
    F, G, psi, p = _setup(args)
    n = args.n
    if n < 1:
        raise DomainError("n must be positive")
    # the twisted cycle pairs psi itself: a psi that is not real is
    # refused (DomainError) at every p, before choose_r can find p inert
    for c in range(G.h):
        psi(c)
    try:
        r = choose_r(F, p, args.r)
    except InertPrime as exc:
        return _base_report(args, d_F=F.d_F, p=p, inert=True,
                            message=str(exc))
    pairing, translates = pair_with_twisted_cycle(
        twisted_cycle(F, G, psi, p, r), n)
    return _base_report(args, d_F=F.d_F, p=p, r=r, n=n,
                        translates=translates,
                        right_cosets=len(right_cosets(n, p)),
                        pairing=pairing)


def _series_report(args, F, G, psi, p):
    S = diagonal_restriction(F, G, psi, p, N=args.N, r=args.r)
    rep = _base_report(
        args, d_F=F.d_F, p=p, r=S.metadata["r"], kappa=2,
        convention_sign=S.metadata["pairing_factor"],
        psi_exponents=list(psi.exponents),
        constant=Fraction(S.constant),
        coeffs={n: S.coeffs[n] for n in sorted(S.coeffs)},
        inert=S.inert)
    return rep, S


def cmd_series(args):
    return _series_report(args, *_setup(args))[0]


def cmd_verify(args):
    F, G, psi, p = _setup(args)
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "passed": bool(ok), "detail": detail})

    rep, S = _series_report(args, F, G, psi, p)
    rep["checks"] = checks      # filled in by record
    if S.inert:
        record("inert", True, "p is inert: zero series")
        rep["passed"] = True
        return rep
    # asked first: a level with no model is a domain error before any
    # table is checked; the report keeps the checks' order
    mod = modularity_check(S)
    # r + 2p away from zero, so that (r + 2p)^2 > d_F, and its opposite
    r = S.metadata["r"]
    shifted = r + 2 * p if r > 0 else r - 2 * p
    roots = (r, shifted, -shifted)
    try:
        check_pairing_table(F, G, p, roots, args.N)
        record("dual_algorithm", True, "cycle==Farey Manin table per RM "
               "point, manin==Merel rows for n=1..%d" % args.N)
    except AlgorithmMismatch as exc:
        record("dual_algorithm", False, str(exc))
    record("modularity", mod.passed,
           mod.message or ("mode=%s" % mod.mode))

    # A row of the series (hecke.manin_pairings) and its pairing with
    # Merel's set are linear maps of the point's Manin table, a
    # Gamma0(p)-invariant: equal tables give equal rows for every N, and
    # opposite tables opposite rows.  The RM points of r + 2p have
    # b = -r (mod 2p) and are Gamma0(p)-equivalent to those of r class by
    # class (Gross-Kohnen-Zagier); the constant term needs no check, as
    # (p, r + 2p) = (p, r)
    table, shifted_table, opposite = (
        [t for _, t in manin_tables(F, G, p, s)] for s in roots)
    record("r_plus_2p", shifted_table == table)
    # the identity the series reads through psi.trace: the table of
    # sigma(c) at the opposite root is the negated table of c, here of
    # points other than -f_c, so their Gamma0(p)-equivalence is checked
    record("pm_halves",
           [opposite[G.sigma(c)] for c in range(G.h)]
           == [{k: -v for k, v in t.items()} for t in table],
           "Manin tables of sigma(c) at -(r + 2p) equal the negated "
           "tables of c at r")
    # psi^-1 reuses the report's table.  The series reads psi only
    # through psi.trace, and psi^-1 = conj(psi) has the same traces, so
    # this holds by construction (README, "How it is verified")
    inv = diagonal_restriction(F, G, psi.inverse(), p, N=args.N, r=args.r)
    record("psi_inverse", inv == S)

    rep["passed"] = all(c["passed"] for c in checks)
    return rep


def cmd_verify_analytic(args):
    try:
        from .analytic import identity_checks
    except ModuleNotFoundError as exc:
        raise DomainError("verify-analytic needs the 'analytic' extra: %s"
                          % exc)
    checks = identity_checks()
    rep = _base_report(args, checks=checks,
                       passed=all(c["passed"] for c in checks))
    rep.pop("D", None)
    return rep


# ---------------------------------------------------------------------------
# driver


# the options of each subcommand beyond --format and --help
COMMANDS = {
    "field": (cmd_field, ("D",)),
    "classgroup": (cmd_classgroup, ("D",)),
    "chars": (cmd_chars, ("D",)),
    "rmpoints": (cmd_rmpoints, ("D", "p", "r")),
    "intersect": (cmd_intersect, ("D", "p", "r", "char-index", "n")),
    "series": (cmd_series, ("D", "p", "r", "char-index", "N")),
    "verify": (cmd_verify, ("D", "p", "r", "char-index", "N", "no-cache")),
    "verify-analytic": (cmd_verify_analytic, ()),
}

# name: (int, bool for a flag, or a tuple of choices; the default, or ...
# when the option is required; its line of --help, None to hide it)
OPTIONS = {
    "D": (int, ..., "squarefree integer defining F = Q(sqrt(D))"),
    "p": (int, ..., "odd prime level"),
    "r": (int, None, "override the square root of d_F mod 4p"),
    "char-index": (int, 0, "index into the totally odd characters"),
    "N": (int, 30, "q-expansion truncation"),
    "n": (int, 1, "Hecke operator index"),
    # does nothing; accepted because benchmarks/worker.py passes it
    "no-cache": (bool, False, None),
    "format": (("json", "csv", "text"), "json", "json, csv or text"),
    "help": (bool, False, "show this help and exit (also -h)"),
}

# the options of rqgeo itself (None) and of each command
_NAMES = {None: ("help",), **{command: names + ("format", "help")
                              for command, (_, names) in COMMANDS.items()}}


def _usage(command, full=False):
    """The usage line of rqgeo or of a command; with full, its --help,
    which adds a line for each command or for each option shown."""
    words = [command or "{%s} ..." % ",".join(COMMANDS)]
    lines = [] if command else [_usage(c)[len("usage: "):] for c in COMMANDS]
    for name in _NAMES[command]:
        kind, default, text = OPTIONS[name]
        if text is not None:
            word = "--" + name + ("" if kind is bool else " " + name.upper())
            words.append(word if default is ... else "[%s]" % word)
            lines.append("%-24s %s" % (word, text))
    return " ".join(["usage: rqgeo"] + words) + (
        "".join("\n  " + line for line in lines) if full else "")


def _read(token, names):
    """argparse's reading of a token: None for a value, else the pair (the
    option it names, None for an unknown one; the value after =, or None)."""
    spelled, eq, value = token.partition("=")
    value = value if eq else None
    if spelled == "-h":
        return "help", value
    if spelled[:2] != "--" or spelled == "--":
        return None                     # a value, a negative number too
    hits = ([n for n in names if "--" + n == spelled]       # or a prefix
            or [n for n in names if ("--" + n).startswith(spelled)])
    return hits[0] if len(hits) == 1 else None, value


def parse(argv):
    """The command line as argparse read it: --opt value or --opt=value,
    a unique prefix of an option's name, negative values, the last of a
    repeated option.  --help and -h write the help to stdout and raise
    SystemExit(0); a usage error raises SystemExit(EXIT_DOMAIN)."""
    command, values, extras, tokens = None, {}, [], iter(argv)
    try:
        for token in tokens:
            read = _read(token, _NAMES[command])
            if read is None and command is None:
                if token not in COMMANDS:
                    raise ValueError("invalid command %r" % token)
                command = token
                continue
            name, value = read or (None, None)
            if name is None:            # refused once the line is read
                extras.append(token)
                continue
            kind = OPTIONS[name][0]
            if kind is bool and value is not None:
                raise ValueError("--%s takes no value" % name)
            if name == "help":
                sys.stdout.write(_usage(command, full=True) + "\n")
                raise SystemExit(EXIT_OK)
            if value is None and kind is not bool:
                value = next(tokens, None)
                if value is None or _read(value, _NAMES[command]):
                    raise ValueError("--%s expects a value" % name)
            if kind is int:
                value = int(value)      # its ValueError names the value
            elif kind is not bool and value not in kind:
                raise ValueError("--%s: invalid choice %r" % (name, value))
            values[name] = True if kind is bool else value
        if command is None:
            raise ValueError("a command is required")
        missing = ["--" + name for name in _NAMES[command]
                   if OPTIONS[name][1] is ... and name not in values]
        if missing or extras:
            raise ValueError("required: " + ", ".join(missing) if missing
                             else "unrecognized: " + " ".join(extras))
    except ValueError as exc:
        sys.stderr.write("%s\nrqgeo: error: %s\n" % (_usage(command), exc))
        raise SystemExit(EXIT_DOMAIN)
    return SimpleNamespace(command=command, **{
        name.replace("-", "_"): values.get(name, OPTIONS[name][1])
        for name in _NAMES[command] if name != "help"})


def run(argv=None):
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:   # --help (0) or bad usage (EXIT_DOMAIN)
        return exc.code
    try:
        if getattr(args, "D", 0) > MAX_D:       # before any Pell unit
            raise DomainError("D %d is above MAX_D = %d" % (args.D, MAX_D))
        report = COMMANDS[args.command][0](args)
        # all rendered first: a failure writes nothing and exits below
        text = render(report, args.format)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except AlgorithmMismatch as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return EXIT_MISMATCH if report.get("passed") is False else EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

"""One benchmark pass: a fresh interpreter that imports rqgeo from the
checkout's ``src`` and runs a list of jobs in sequence, so every
``lru_cache`` starts cold.

    python3 benchmarks/worker.py SPEC.json OUT.json
    python3 benchmarks/worker.py --import-only

SPEC holds ``jobs``, ``job_limit_s``, ``trace`` and ``spans_path``; OUT
receives the outputs of every job, the pass's wall, CPU and reference
seconds (see SpeedProbe), its peak RSS and, when traced, its counters.
``--import-only`` times ``import rqgeo, rqgeo.cli`` and prints it as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# The speed probe: a fixed slice of pure-Python work (tuples, dict
# updates, small-int arithmetic, like the pipeline) and its time on an
# idle core of the 2-core x86-64 sandbox the baselines in README.md
# come from.
PROBE_PERIOD_S = 0.1
PROBE_NOMINAL_S = 0.0005


def _probe_work():
    d = {}
    s = 0
    for i in range(2000):
        t = (i * 7919 % 10007, i & 255)
        d[t] = d.get(t, 0) + 1
        s += t[0] * t[1] % 13
    return s


class JobTimeout(Exception):
    pass


class SpeedProbe:
    """Wall time referred to a nominal machine speed.

    On a shared machine the same work takes up to 1.6 times longer when
    other tenants load the core.  Every PROBE_PERIOD_S a timer runs the
    probe; the wall time since the previous probe, times PROBE_NOMINAL_S
    over the probe's own time, adds to ``ref_s``.  ``ref_s`` is the time
    the work would have taken at nominal speed; the probes' own time is
    left out.  The timer also enforces the job time limit.
    """

    def __init__(self):
        self.ref_s = 0.0
        self.slowdowns = []
        self.deadline = None
        self.busy = False
        self.last = time.perf_counter()

    def tick(self, *_):
        if self.busy:                   # the timer fired inside a tick
            return
        self.busy = True
        try:
            t0 = time.perf_counter()
            _probe_work()
            t1 = time.perf_counter()
            self.ref_s += (t0 - self.last) * PROBE_NOMINAL_S / (t1 - t0)
            self.slowdowns.append((t1 - t0) / PROBE_NOMINAL_S)
            self.last = t1
        finally:
            self.busy = False
        if self.deadline is not None and t1 > self.deadline:
            self.deadline = None
            raise JobTimeout()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick()


def import_rqgeo():
    """Import rqgeo and rqgeo.cli from SRC; returns the package and the
    import's raw and reference seconds."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        ref0 = probe.ref_s
        import rqgeo
        import rqgeo.cli
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(rqgeo.__file__))
    if where != os.path.join(SRC, "rqgeo"):
        raise SystemExit("rqgeo imported from %s, not from %s" % (where, SRC))
    return rqgeo, elapsed, probe.ref_s - ref0


def exact(v):
    """Canonical text of an exact rational; anything else is an error."""
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        v = Fraction(v["num"], v["den"])
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise TypeError("inexact coefficient %r" % (v,))
    return str(Fraction(v))


def _series_output(S, psi):
    return {"exponents": list(psi.exponents),
            "constant": exact(S.constant),
            "coeffs": [exact(S.coeffs[n]) for n in range(1, S.N + 1)]}


def run_series(rqgeo, job, every_character):
    field, series = rqgeo.field, rqgeo.series
    F = field.build_field(job["D"])
    G = field.narrow_class_group(F)
    chars = field.odd_characters(G)
    if not every_character:
        chars = chars[:1]
    out = []
    for psi in chars:
        S = series.diagonal_restriction(F, G, psi, job["p"], N=job["N"],
                                        algorithm="cycle")
        check = series.modularity_check(S)
        if not check.passed:
            raise AssertionError("modularity check failed at n=%s (%s)"
                                 % (check.first_fail, check.message))
        out.append(_series_output(S, psi))
    return out


def run_verify(rqgeo, job):
    argv = ["verify", "--D", str(job["D"]), "--p", str(job["p"]),
            "--N", str(job["N"]), "--no-cache"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = rqgeo.cli.run(argv)
    if code != 0:
        raise AssertionError("rqgeo verify exited %d: %s"
                             % (code, stderr.getvalue().strip()[-200:]))
    rep = json.loads(stdout.getvalue())
    if rep.get("passed") is not True:
        raise AssertionError("rqgeo verify did not pass")
    n_max = max(int(n) for n in rep["coeffs"])
    return [{"exponents": rep["psi_exponents"],
             "constant": exact(rep["constant"]),
             "coeffs": [exact(rep["coeffs"][str(n)]) for n in range(1, n_max + 1)]}]


def run_job(rqgeo, job):
    if job["kind"] == "series":
        return run_series(rqgeo, job, every_character=False)
    if job["kind"] == "field":
        return run_series(rqgeo, job, every_character=True)
    if job["kind"] == "verify":
        return run_verify(rqgeo, job)
    raise ValueError("unknown job kind %r" % job["kind"])


def run_pass(spec):
    rqgeo, import_s, import_ref_s = import_rqgeo()
    recorder = None
    if spec["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    limit = spec["job_limit_s"]
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with SpeedProbe() as probe:
        for job in spec["jobs"]:
            if recorder:
                recorder.job = job["id"]
            res = {"id": job["id"], "ok": True, "reason": None, "chars": []}
            probe.tick()
            t0, ref0 = time.perf_counter(), probe.ref_s
            probe.deadline = t0 + limit
            try:
                res["chars"] = run_job(rqgeo, job)
            except JobTimeout:
                res.update(ok=False, reason="timeout after %g s" % limit)
            except Exception as exc:
                res.update(ok=False, reason="%s: %s" % (type(exc).__name__, str(exc)[:200]))
            probe.deadline = None
            probe.tick()
            res["elapsed_s"] = time.perf_counter() - t0
            res["ref_s"] = probe.ref_s - ref0
            results.append(res)
    out = {"wall_s": time.perf_counter() - wall0,
           "cpu_s": time.process_time() - cpu0,
           "ref_s": probe.ref_s,
           "slowdown": statistics.median(probe.slowdowns),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "import_s": import_s,
           "import_ref_s": import_ref_s,
           "version": rqgeo.__version__,
           "jobs": results}
    if recorder:
        out["counters"] = recorder.counters()
        recorder.write(spec["spans_path"])
    return out


def main(argv):
    if argv == ["--import-only"]:
        _, import_s, import_ref_s = import_rqgeo()
        print(json.dumps({"import_s": import_s, "import_ref_s": import_ref_s}))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        spec = json.load(fh)
    out = run_pass(spec)
    with open(argv[1], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

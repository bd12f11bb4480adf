"""rqgeo benchmark: runs one workload from outside the package and checks
every coefficient for exactness.

    python3 benchmarks/run.py --workload series --seed 0 --seconds 32 --trace 0

Each pass is a fresh interpreter (see worker.py) with a fresh
RQGEO_CACHE_DIR inside the checkout.  Untraced runs repeat passes for
about ``--seconds`` and report end-to-end medians, with times in
reference seconds (see worker.SpeedProbe); ``--trace 1`` runs one
untraced and two traced passes and reports per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import DETERMINISTIC, layer_metrics, read_spans  # noqa: E402
from workloads import GOLDEN_DIR, WORKLOADS, make_jobs  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
JOB_LIMIT_S = 30        # the slowest job takes about 5 s at the seed code
RUN_DEADLINE_S = 170    # every run ends within 180 s
SETUP_STARTS = 5
MIN_PASSES = 2
IMPORTTIME_STARTS = 3


class Run:
    """State of one benchmark run: its scratch directory inside the
    checkout, its deadline and the jobs it attempted."""

    def __init__(self, workload, seed):
        self.jobs = make_jobs(workload, seed)
        with open(os.path.join(GOLDEN_DIR, workload + ".json")) as fh:
            self.golden = {e["id"]: e["chars"] for e in json.load(fh)["entries"]}
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
        self.passes = 0
        self.pass_walls = []
        self.attempted = 0
        self.failures = []
        self.correct = True
        self.version = None
        self.raw = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass                        # another run still uses it

    def python(self, args):
        """Run a fresh interpreter with a fresh RQGEO_CACHE_DIR; it is
        killed at the run deadline."""
        env = dict(os.environ, PYTHONHASHSEED="0",
                   RQGEO_CACHE_DIR=os.path.join(self.tmp, "cache-%d" % self.passes))
        return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))

    def import_time(self, importtime=False):
        """Raw and reference seconds of ``import rqgeo, rqgeo.cli`` in a
        fresh interpreter, or with ``importtime`` the -X importtime split."""
        args = (["-X", "importtime"] if importtime else []) + [WORKER, "--import-only"]
        proc = self.python(args)
        if proc.returncode != 0:
            raise SystemExit("import probe failed:\n" + proc.stderr[-2000:])
        if importtime:
            return parse_importtime(proc.stderr)
        return json.loads(proc.stdout)

    def run_pass(self, trace):
        """One fresh interpreter over all jobs; returns its report, with
        failed jobs marked, or None when the worker itself failed."""
        self.passes += 1
        spec_path = os.path.join(self.tmp, "spec-%d.json" % self.passes)
        out_path = os.path.join(self.tmp, "out-%d.json" % self.passes)
        spans_path = os.path.join(self.tmp, "spans-%d.jsonl" % self.passes)
        with open(spec_path, "w") as fh:
            json.dump({"jobs": self.jobs, "job_limit_s": JOB_LIMIT_S,
                       "trace": trace, "spans_path": spans_path}, fh)
        self.attempted += len(self.jobs)
        try:
            proc = self.python([WORKER, spec_path, out_path])
            error = None if proc.returncode == 0 else (
                "worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-300:]))
        except subprocess.TimeoutExpired:
            error = "pass stopped at the %d s run deadline" % RUN_DEADLINE_S
        if error:
            self.failures += [(job["id"], error) for job in self.jobs]
            return None
        with open(out_path) as fh:
            report = json.load(fh)
        self.version = report["version"]
        self.pass_walls.append((round(report["wall_s"], 3), round(report["ref_s"], 3)))
        for res in report["jobs"]:
            if res["ok"] and res["chars"] != self.golden.get(res["id"]):
                res.update(ok=False, reason="output differs from the golden file")
                self.correct = False
            if not res["ok"]:
                self.failures.append((res["id"], res["reason"]))
        report["coeffs"] = sum(len(c["coeffs"]) + 1 for res in report["jobs"]
                               if res["ok"] for c in res["chars"])
        if trace:
            report["layers"] = layer_metrics(read_spans(spans_path))
        return report


def parse_importtime(text):
    """Cumulative seconds of the top-level rqgeo, sympy and mpmath imports
    from ``python -X importtime`` output."""
    cumulative = {}
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)$", line)
        if m and m.group(2) in ("rqgeo", "sympy", "mpmath"):
            cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
    return cumulative


def git_commit():
    """The checkout's commit read from .git, without walking out of it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, seconds):
    """Median end-to-end metrics over passes.  Passes repeat while the
    next one is projected to end within ``seconds``; at least MIN_PASSES
    run."""
    run.import_time()                     # writes the bytecode caches
    imports = [run.import_time() for _ in range(SETUP_STARTS)]
    reports = []
    start = time.monotonic()
    while True:
        rep = run.run_pass(trace=False)
        if rep is None:
            break
        reports.append(rep)
        n = len(reports)
        if n >= MIN_PASSES and (time.monotonic() - start) * (n + 1) / n > seconds:
            break
    if not reports:
        return None

    def med(key, rows=reports):
        return statistics.median(r[key] for r in rows)

    run.raw = {"wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
               "setup_s": med("import_s", imports), "slowdown": med("slowdown")}
    return {
        "wall_s": metric(med("ref_s"), "s"),
        "coeffs_per_s": metric(statistics.median(r["coeffs"] / r["ref_s"]
                                                 for r in reports), "1/s"),
        "setup_s": metric(med("import_ref_s", imports), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "success_frac": metric((run.attempted - len(run.failures)) / run.attempted,
                               "ratio"),
    }


COUNTER_UNITS = {"gc_s": "s", "geodesic.nonzero_frac": "ratio",
                 "geodesic.disc_max": "disc", "hecke.right_cosets.hit_frac": "ratio"}


def per_layer(run):
    """Per-layer metrics from two traced passes, checked against one
    untraced pass: same coefficients, and identical work counters."""
    imports = [run.import_time(importtime=True) for _ in range(IMPORTTIME_STARTS)]
    plain = run.run_pass(trace=False)
    traced = [run.run_pass(trace=True) for _ in range(2)]
    if plain is None or None in traced:
        return None
    for key in DETERMINISTIC:
        first, second = (r["counters"][key] for r in traced)
        if first != second:
            print("DETERMINISM FAILURE: counter %s is %r, then %r"
                  % (key, first, second), file=sys.stderr)
            run.correct = False
    plain_out = {r["id"]: r["chars"] for r in plain["jobs"] if r["ok"]}
    for rep in traced:
        for r in rep["jobs"]:
            if r["ok"] and r["id"] in plain_out and r["chars"] != plain_out[r["id"]]:
                print("TRACE FAILURE: %s traced differs from untraced" % r["id"],
                      file=sys.stderr)
                run.correct = False

    med = statistics.median
    out = {}
    for name in ("rqgeo", "sympy", "mpmath"):
        out["import.%s_s" % name] = metric(med(i.get(name, 0.0) for i in imports), "s")
    for key in traced[0]["layers"]:
        out[key] = metric(med(r["layers"][key] for r in traced), "s")
    for key, value in traced[0]["counters"].items():
        if key not in DETERMINISTIC:
            value = med(r["counters"][key] for r in traced)
        out[key] = metric(value, COUNTER_UNITS.get(key, "count"))
    out["trace.overhead_frac"] = metric(
        med(r["ref_s"] for r in traced) / plain["ref_s"] - 1, "ratio")
    run.raw = {"wall_s": med(r["wall_s"] for r in traced),
               "slowdown": med(r["slowdown"] for r in traced)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "rqgeo", "__init__.py")):
        print("error: no rqgeo sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    run = Run(args.workload, args.seed)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        run.close()
    if metrics is None:
        for job_id, reason in run.failures:
            print("FAILED %s: %s" % (job_id, reason), file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1

    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pass_wall_raw_ref_s": run.pass_walls, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "rqgeo_version": run.version,
        "git_commit": git_commit(), "raw": run.raw}}))
    for job_id, reason in run.failures:
        print("FAILED %s: %s" % (job_id, reason))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

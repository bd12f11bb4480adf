"""Regenerate the golden outputs under benchmarks/golden/ from the code
under src/.

    python3 benchmarks/make_golden.py

Run it only when a change is meant to alter the coefficients: the
benchmark compares every run against these files exactly.  The fields
pool is every squarefree D <= FIELDS_D_MAX with a totally odd character,
outside KNOWN_DEFECTS, paired with each prime of FIELDS_PRIMES that
splits in Q(sqrt(D)).  The recorded cost of each pair orders the pool
into the strata the draw samples from and balances each draw.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from rqgeo.exact import squarefree_part  # noqa: E402
from rqgeo.field import build_field, narrow_class_group, odd_characters  # noqa: E402
from rqgeo.geodesic import InertPrime, choose_r  # noqa: E402


# Each pool pair is timed after this cheap job, so its cost leaves out the
# one-off work of a fresh interpreter, in reference seconds (see
# worker.SpeedProbe) and as the fastest of a few runs, so it leaves out
# most of the noise of a shared machine.
WARM_UP = {"id": "warm-up", "kind": "field", "D": 3, "p": 11, "N": W.FIELDS_N}
COST_REPEATS = 3


def run_worker(jobs, tmp):
    spec = os.path.join(tmp, "spec.json")
    out = os.path.join(tmp, "out.json")
    with open(spec, "w") as fh:
        json.dump({"jobs": jobs, "job_limit_s": 120, "trace": False,
                   "spans_path": None}, fh)
    env = dict(os.environ, PYTHONHASHSEED="0", RQGEO_CACHE_DIR=os.path.join(tmp, "cache"))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec, out],
                   env=env, check=True)
    with open(out) as fh:
        results = json.load(fh)["jobs"]
    for res in results:
        if not res["ok"]:
            raise SystemExit("%s failed: %s" % (res["id"], res["reason"]))
    return results


def split_primes(F):
    out = []
    for p in W.FIELDS_PRIMES:
        try:
            choose_r(F, p)
        except (InertPrime, ValueError):
            continue
        out.append(p)
    return out


def field_pool_pairs():
    pairs = []
    for D in range(2, W.FIELDS_D_MAX + 1):
        if squarefree_part(D)[1] != 1 or D in W.KNOWN_DEFECTS:
            continue
        F = build_field(D)
        if odd_characters(narrow_class_group(F)):
            pairs += [(D, p) for p in split_primes(F)]
    return pairs


def write(name, entries):
    path = os.path.join(W.GOLDEN_DIR, name + ".json")
    with open(path, "w") as fh:
        fh.write('{"entries": [\n')
        fh.write(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
        fh.write("\n]}\n")
    print("wrote %s (%d entries)" % (path, len(entries)))


def main():
    os.makedirs(W.GOLDEN_DIR, exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as tmp:
        rng = random.Random(0)
        for name, make in (("series", W.series_jobs), ("verify", W.verify_jobs)):
            write(name, [{"id": r["id"], "chars": r["chars"]}
                         for r in run_worker(make(rng), tmp)])
        entries = []
        for D, p in field_pool_pairs():
            job = {"id": "field:D%d-p%d-N%d" % (D, p, W.FIELDS_N), "kind": "field",
                   "D": D, "p": p, "N": W.FIELDS_N}
            runs = [run_worker([WARM_UP, job], tmp)[1] for _ in range(COST_REPEATS)]
            entries.append({"id": job["id"], "D": D, "p": p,
                            "cost_s": round(min(r["ref_s"] for r in runs), 4),
                            "chars": runs[0]["chars"]})
        write("fields", entries)


if __name__ == "__main__":
    main()

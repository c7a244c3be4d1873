"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), for every workload of
``BENCHMARK.json`` and for its ``run_seconds``, in sequence, with its
table on stderr, then prints for each workload and metric the median, the first
and third quartiles, and the quartile spread (Q3 - Q1) / median next to
the metric's bound from ``BENCHMARK.json``.  A spread at or above a third
of the bound is flagged.  ``--seeds 1`` runs every workload once and so
prints every metric with its unit and sample count.  ``--out`` writes the
raw values, the summary and the machine (core count, Python version,
mpmath backend) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _machine():
    try:
        import mpmath
        import mpmath.libmp
        mp = f"mpmath {mpmath.__version__}, backend {mpmath.libmp.BACKEND}"
    except ImportError:
        mp = "mpmath not importable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "mpmath": mp}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    raw = {}
    for w in [wl["name"] for wl in bench["workloads"]]:
        raw[w] = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            raw[w].append(json.loads(out.strip().splitlines()[-1]))

    summary = {}
    print(f"{'workload':16s} {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for w, runs in raw.items():
        failed = sum(r["failed"] for r in runs)
        print(f"{w}: {len(runs)} runs, {failed} failed of "
              f"{sum(r['attempted'] for r in runs)} attempted")
        summary[w] = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "  <-- spread >= bound/3" if bound and spread >= bound / 3 else ""
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "unit": runs[0]["metrics"][name]["unit"]}
            print(f"{w:16s} {name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": _machine(), "seconds": bench["run_seconds"],
                       "trace": args.trace,
                       "seeds": args.seeds, "summary": summary, "runs": raw},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())

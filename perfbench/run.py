"""Verification-campaign benchmark for cmperiods.

    python3 perfbench/run.py --workload tate-sweep --seed 1 --seconds 30 --trace 0

Builds the workload's seeded campaign (see ``workloads.py``), then runs it
again and again, each time in a fresh interpreter (``worker.py``), until
``--seconds`` is used up, with at least two campaigns so that each
request's output digest can be compared between them.  Every response is
checked by ``checks.py``.  A human-readable table goes to stderr; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

With ``--trace 1`` the campaigns alternate between untraced and traced
(``tracing.py``); per-layer numbers come from the traced ones, and the
tracing overhead is the time the wrappers add, over the rest of the
traced campaign.

Times are reported in reference seconds: each request's latency is
multiplied by ``CAL_REF_S`` over the durations of the worker's calibration
loop sampled while the request ran and just before and after it (the
mean of the ratios), and the
set-up time by ``CAL_REF_S`` over the median sample around the import.
On a shared 2-core machine the CPU speed swings by up to 1.8x within
seconds and drifts over minutes, which no median within a run removes;
the calibration loop is slowed by the same contention, so the product is
steady.  The table on stderr also shows the raw campaign time and the
machine speed (reference over raw time).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from math import ceil

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
MIN_CAMPAIGNS = 2
CAMPAIGN_TIMEOUT_S = 150
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
NOT_MEASURED = -1
# duration of worker.calibrate at the reference speed (close to the
# fastest this loop runs on the shared 2-core machine of the baseline)
CAL_REF_S = 0.015


def _spawn(job, spool):
    """Run one job in a fresh interpreter; kill its process group on any error."""
    env = dict(os.environ, **({tracing.SPOOL_ENV: spool} if spool else {}))
    proc = subprocess.Popen(
        [sys.executable, WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=ROOT, text=True, start_new_session=True, env=env)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CAMPAIGN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err[-2000:]}")
    return json.loads(out)


def _tier(argv):
    return int(argv[argv.index("--prec") + 1])


def tail_percentile(campaign_size):
    """Highest percentile with at least 10 samples beyond it in the smallest run.

    Fixed by the campaign size, not by how many campaigns fit in the time,
    so every run of a workload reports the same percentile; 100 (the
    maximum) when even the median has fewer than 10 samples beyond it.
    """
    n = campaign_size * MIN_CAMPAIGNS
    return next((p for p in TAIL_PERCENTILES if n * (100 - p) >= 1000), 100)


def _nearest_rank(sorted_xs, p):
    return sorted_xs[max(0, ceil(p / 100 * len(sorted_xs)) - 1)]


def run_campaigns(reqs, seconds, trace, spool, started):
    """Setup probes, then campaigns until the time is used up."""
    setups = [_spawn({"setup_only": True}, spool) for _ in range(SETUP_PROBES)]
    kinds = (False, True) if trace else (False,)
    campaigns, took = [], {k: [] for k in kinds}
    while True:
        traced = kinds[len(campaigns) % len(kinds)]
        if len(campaigns) >= max(MIN_CAMPAIGNS, len(kinds)):
            predicted = statistics.median(took[traced])
            if time.perf_counter() - started + predicted > seconds:
                break
        t = time.perf_counter()
        res = _spawn({"requests": reqs, "trace": traced}, spool)
        took[traced].append(time.perf_counter() - t)
        setups.append(res)
        campaigns.append((traced, res))
    for _traced, res in campaigns:
        samples = res["samples"]
        for r in res["requests"]:
            # the samples taken during the request and its two neighbours
            first, end = r["cals"]
            near = samples[max(0, first - 1):end + 1]
            r["ref_s"] = r["latency_s"] * statistics.fmean(CAL_REF_S / c for c in near)
        res["time_s"] = sum(r["ref_s"] for r in res["requests"])
        res["raw_s"] = sum(r["latency_s"] for r in res["requests"])
    speed = statistics.median(r["time_s"] / r["raw_s"] for _t, r in campaigns)
    return ([r["setup_s"] * CAL_REF_S / statistics.median(r["cals"]) for r in setups],
            campaigns, speed)


def check_campaigns(reqs, campaigns):
    """Check every response; return (failed count, digit margins, rows per campaign).

    The digit margins are, per tier, each numeric row's ``digits_agreed``
    minus the request's target digits.
    """
    first_digest = {}
    failed, margins, rows = 0, defaultdict(list), []
    errors = []
    for _traced, res in campaigns:
        verified = 0
        for j, (argv, resp) in enumerate(zip(reqs, res["requests"])):
            err, report = checks.check_response(argv, resp["rc"], resp["out"])
            digest = hashlib.sha256(resp["out"].encode()).hexdigest()
            if first_digest.setdefault(j, digest) != digest:
                err = err or "output digest differs from the first campaign"
            if err:
                failed += 1
                errors.append(f"{' '.join(argv)}: {err} {resp['err'][-300:]}")
                continue
            verified += len(report)
            margins[_tier(argv)] += [r["digits_agreed"] - _tier(argv) for r in report
                                     if r["check"].startswith(checks.NUMERIC)]
        rows.append(verified)
    for line in errors[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    return failed, margins, rows


def end_to_end(reqs, setups, campaigns, rows, margins, speed):
    """Metric name -> (value, unit, sample count, note)."""
    plain = [res for traced, res in campaigns if not traced]
    walls = [res["time_s"] for res in plain]
    lat = sorted(r["ref_s"] for res in plain for r in res["requests"])
    tiers = sorted({_tier(a) for a in reqs})

    def tier_wall(tier):
        return statistics.median(
            sum(r["ref_s"] for a, r in zip(reqs, res["requests"]) if _tier(a) == tier)
            for res in plain)

    p_tail = tail_percentile(len(reqs))
    m = {
        "setup_s": (statistics.median(setups), "s", len(setups), ""),
        "wall_s": (statistics.median(walls), "s", len(walls),
                   f"{len(reqs)} requests; raw {statistics.median(walls) / speed:.4g} s"
                   f" at speed {speed:.3g}"),
    }
    for tier in (60, 120):
        m[f"wall_s.prec{tier}"] = (tier_wall(tier), "s", len(plain), "")
    m["wall_s.prec_max"] = (tier_wall(tiers[-1]), "s", len(plain), f"tier {tiers[-1]}")
    m["latency_p50_s"] = (statistics.median(lat), "s", len(lat), "")
    m["latency_tail_s"] = (_nearest_rank(lat, p_tail), "s", len(lat), f"p{p_tail}")
    m["checks_per_s"] = (statistics.median(
        n / res["time_s"] for (traced, res), n in zip(campaigns, rows) if not traced),
        "1/s", len(plain), "")
    m["peak_rss_mb"] = (statistics.median(res["rss_mb"] for res in plain), "MB",
                        len(plain), "")
    # the lowest tier mean: steady over seeds, and any tier can set it
    tier_margins = {t: statistics.fmean(ms) for t, ms in margins.items() if ms}
    low = min(tier_margins, key=tier_margins.get, default=None)
    m["digits_margin_min"] = (tier_margins.get(low, 0), "digits",
                              sum(map(len, margins.values())), f"tier {low}")
    return m


def per_layer(reqs, campaigns):
    """Metric name -> (value, unit, sample count, note) from the traced campaigns."""
    traced = [res for t, res in campaigns if t]
    plain = [res for t, res in campaigns if not t]
    summaries = [res["trace"] for res in traced]
    first = summaries[0]
    expected_workers = sum(
        sum(1 for d in range(3, int(a[a.index("--max-d") + 1]) + 1)
            if workloads.is_fundamental(d))
        for a in reqs if a[0] == "suite")
    for s in summaries:
        if s["cs_worker_calls"] != expected_workers:
            raise RuntimeError(f"collected {s['cs_worker_calls']} suite worker spans, "
                               f"expected {expected_workers}")
    m = {}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.calls"] = (first["calls"][name], "count", len(summaries), "")
        m[f"{name}.self_s"] = (statistics.median(
            s["self_s"][name] * r["time_s"] / r["raw_s"] for s, r in zip(summaries, traced)),
            "s", len(summaries), "")
    gamma_calls = first["calls"]["numkernel.log_gamma"]
    m["numkernel.log_gamma.distinct_ratio"] = (
        first["gamma_distinct"] / gamma_calls if gamma_calls else NOT_MEASURED,
        "ratio", gamma_calls, f"{first['gamma_distinct']} distinct keys")
    attempts, hits = first["recognize"]
    m["relint.recognize.hit_ratio"] = (
        hits / attempts if attempts else NOT_MEASURED, "ratio", attempts,
        "" if attempts else "not measured: no recognition on this workload")
    m["cli.suite.parallel_efficiency"] = (
        statistics.median(s["pool_busy"] / s["pool_wall_x_workers"] for s in summaries)
        if expected_workers else NOT_MEASURED, "ratio", len(summaries),
        "" if expected_workers else "not measured: no suite fan-out on this workload")
    # campaigns differ by about 5% from one another at the same speed, more
    # than tracing adds, so the overhead is the wrappers' own cost over the
    # rest of the campaign; the campaign ratio is shown beside it
    ratio = (statistics.median(r["time_s"] for r in traced)
             / statistics.median(r["time_s"] for r in plain) - 1)
    m["trace.overhead_frac"] = (
        statistics.median(s["wrapper_s"] / (r["raw_s"] - s["wrapper_s"])
                          for s, r in zip(summaries, traced)),
        "ratio", len(summaries), f"traced/untraced campaign time - 1: {ratio:+.3g}")
    return m


def _table(title, metrics):
    print(title, file=sys.stderr)
    for name, (value, unit, n, note) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:7s} n={n:<6d} {note}", file=sys.stderr)


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmperiods", "cli.py")):
        sys.exit(f"no program source under {ROOT}/src; run from a checkout")

    reqs = workloads.validate(args.workload, args.seed)
    # suite workers of traced campaigns spool their spans here, inside the
    # checkout, as the benchmark writes nowhere else
    with (tempfile.TemporaryDirectory(prefix=".perfbench-spool-", dir=ROOT)
          if args.trace else contextlib.nullcontext()) as spool:
        setups, campaigns, speed = run_campaigns(reqs, args.seconds, args.trace, spool,
                                                 started)
    failed, margins, rows = check_campaigns(reqs, campaigns)
    attempted = len(reqs) * len(campaigns)
    n_traced = sum(t for t, _ in campaigns)
    head = (f"{args.workload} seed={args.seed}: {len(campaigns)} campaigns "
            f"({n_traced} traced) of {len(reqs)} requests; "
            f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
    e2e = end_to_end(reqs, setups, campaigns, rows, margins, speed)
    _table(head, e2e)
    metrics = e2e
    if args.trace:
        metrics = per_layer(reqs, campaigns)
        _table("per layer (traced campaigns)", metrics)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()

"""One timed campaign in a fresh interpreter.

Reads a job from stdin, ``{"requests": [argv, ...], "trace": bool}``, and
writes one JSON object to stdout: the set-up time (import of
``cmperiods.cli`` plus building its parser), each request's latency, exit
code and output, the peak RSS and, when traced, the span summary.  Requests go one after another through
``cmperiods.cli.main(argv + ["--json"])``, so state the program builds up
inside the campaign is reused by later requests, and nothing carries over
to the next campaign.

Around the import, and every ``CAL_EVERY_S`` throughout the campaign (from
a SIGALRM handler, so also in the middle of a long request), the worker
times a fixed pure-Python big-integer loop (``calibrate``).  On a shared
machine the CPU speed swings by up to 1.8x within seconds; the loop's
times tell how fast the machine was while each request ran, so
``run.py`` can report times at one reference speed.  The time spent in
the loop is taken out of each request's latency.  A request that fans out
to worker processes is not sampled, since the loop would compete with the
workers for the cores.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CAL_EVERY_S = 0.25
CAL_STEPS = 6000
CAL_BURST = 3
_CAL_MOD = (1 << 521) - 1


def calibrate():
    """Seconds taken by a fixed loop of big-integer arithmetic, like mpmath's own."""
    t = time.perf_counter()
    x, y = 3 ** 300, 5 ** 200
    for k in range(CAL_STEPS):
        x = (x * y + k) % _CAL_MOD
        y = (y * 7 + (x >> 400)) % _CAL_MOD
    return time.perf_counter() - t


class _Sampler:
    """Runs calibrate() every CAL_EVERY_S while on; keeps each duration."""

    def __init__(self):
        self.cals = [calibrate()]
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        d = calibrate()
        self.cals.append(d)
        self.spent += d

    def on(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def off(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _fans_out(argv):
    return "--threads" in argv and int(argv[argv.index("--threads") + 1]) > 1


def _setup(cals):
    """Import the program from this checkout and build its parser; time both."""
    sys.path.insert(0, SRC)
    calibrate()  # warm-up
    cals += [calibrate() for _ in range(CAL_BURST)]
    t = time.perf_counter()
    import cmperiods.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t
    cals += [calibrate() for _ in range(CAL_BURST)]
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"cmperiods imported from {cli.__file__}, not {SRC}")
    return cli, setup_s


def main():
    if not os.path.isfile(os.path.join(SRC, "cmperiods", "cli.py")):
        sys.exit(f"no program source at {SRC}")
    job = json.load(sys.stdin)
    cals = []
    cli, setup_s = _setup(cals)
    result = {"setup_s": setup_s, "cals": cals}
    if job.get("setup_only"):
        json.dump(result, sys.stdout)
        return
    sampler = _Sampler()
    tracing = None
    if job["trace"]:
        import tracing
        tracing.install(lambda: time.perf_counter() - sampler.spent)
    rows = []
    sampler.on()
    for i, argv in enumerate(job["requests"]):
        out, err = io.StringIO(), io.StringIO()
        if tracing:
            tracing.start_request(i)
        if _fans_out(argv):
            sampler.off()
        first, spent = len(sampler.cals), sampler.spent
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # cli.main is looked up per call, so the traced wrapper is used
            try:
                rc = cli.main(argv + ["--json"])
            except SystemExit as exc:  # argparse rejects a request
                rc = exc.code
            except Exception:  # a crash fails this request, not the campaign
                rc = None
                traceback.print_exc()
        latency = time.perf_counter() - t - (sampler.spent - spent)
        if _fans_out(argv):
            sampler.on()
        if tracing:
            tracing.collect_children()
        rows.append({"latency_s": latency, "rc": rc, "out": out.getvalue(),
                     "err": err.getvalue(), "cals": [first, len(sampler.cals)]})
    sampler.off()
    result["samples"] = sampler.cals
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["requests"] = rows
    if tracing:
        result["trace"] = tracing.summary()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

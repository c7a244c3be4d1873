"""Spans around calls into each module's public functions, recorded from outside.

``install`` wraps every traced function and rebinds each name that refers
to it in any loaded ``cmperiods`` module, so by-name imports such as
``from .numkernel import log_gamma`` in five modules are all counted.
Spans (name, start, end, parent, request) are kept in memory; self time is
a span's duration minus that of its child spans, so a nested call (log-Gamma
inside ``epstein_jet``, ``recognize_rational`` inside ``recognize_sqrtp``) is
counted once.

``wrapper_cost`` times what each kind of wrapper adds to one call, so
that ``summary`` can put a figure on the tracing overhead.

``suite --threads N`` runs Chowla-Selberg checks in worker processes.  The
worker entry point ``cli._cs_worker`` is rebound to ``traced_cs_worker``,
which records the child's spans and writes them to a spool directory; the
parent reads them back after each request.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

TRACED = {
    "numkernel": ("log_gamma", "delta_lattice"),
    "epstein": ("epstein_jet", "theta_counts"),
    "lseries": ("dirichlet_jet",),
    "csperiods": ("cs_verify", "period_integral", "faltings_height_periods",
                  "faltings_height_L", "m_invariant", "make_report"),
    "fermat": ("tate_twist_certificate", "beta_period", "cm_type"),
    "quadforms": ("reduced_forms", "class_number", "class_number_dirichlet"),
    "heckechar": ("psi_M",),
    "relint": ("recognize_rational", "recognize_sqrtp"),
    "arith": ("factorize", "is_prime"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)
RECOGNIZERS = ("relint.recognize_rational", "relint.recognize_sqrtp")
CS_WORKER = "cli._cs_worker"
POOL = "cli.suite.pool"
SPOOL_ENV = "PERFBENCH_SPOOL"
COST_CALLS = 10000


class Recorder:
    """In-memory spans of one process, plus the counters measured at spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        self.spans = []        # [name, start, end, parent index or -1, request]
        self.stack = []
        self.request = -1
        self.gamma_keys = set()
        self.recognize = [0, 0]  # outermost attempts, hits
        self.pool_workers = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.request])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = self.clock()


_REC: Recorder | None = None
_ORIGINAL: dict = {}


def _gamma_key(args, kwargs):
    x = args[0] if args else kwargs["x"]
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    if isinstance(x, (int, Fraction)):
        xk = str(Fraction(x))
    else:
        xk = repr(getattr(x, "_mpf_", x))
    return f"{xk}|{ctx.target_digits}|{ctx.guard_digits}"


def _kind(name):
    """Which wrapper a span name gets: gamma, recognize or plain."""
    if name == "numkernel.log_gamma":
        return "gamma"
    return "recognize" if name in RECOGNIZERS else "plain"


def _wrap(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _REC
        rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    @functools.wraps(fn)
    def traced_gamma(*args, **kwargs):
        _REC.gamma_keys.add(_gamma_key(args, kwargs))
        return traced(*args, **kwargs)

    @functools.wraps(fn)
    def traced_recognize(*args, **kwargs):
        # an attempt is the outermost recognizer call: recognize_sqrtp
        # delegates to recognize_rational, which is not a second attempt
        rec = _REC
        outermost = not rec.stack or rec.spans[rec.stack[-1]][0] not in RECOGNIZERS
        out = traced(*args, **kwargs)
        if outermost:
            rec.recognize[0] += 1
            rec.recognize[1] += out is not None
        return out

    return {"gamma": traced_gamma, "recognize": traced_recognize,
            "plain": traced}[_kind(name)]


class _Ctx:
    target_digits, guard_digits = 120, 20


def _noop(x, ctx):
    return None


def _per_call(fn, args):
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(COST_CALLS):
            fn(*args)
        best = min(best, time.perf_counter() - t)
    return best / COST_CALLS


def wrapper_cost():
    """Seconds each kind of wrapper adds to one call, against a direct call.

    Timed on a no-op under a scratch recorder, so the spans and counters of
    this process are left as they are.
    """
    global _REC
    rec, _REC = _REC, Recorder()
    args = (Fraction(1, 7), _Ctx())
    try:
        direct = _per_call(_noop, args)
        return {_kind(name): _per_call(_wrap(name, _noop), args) - direct
                for name in ("numkernel.log_gamma", RECOGNIZERS[0], "cli.main")}
    finally:
        _REC = rec


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose lifetime in the parent is a span."""

    def __enter__(self):
        _REC.open(POOL)
        _REC.pool_workers.append(self._max_workers)
        return super().__enter__()

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            _REC.close()


def traced_cs_worker(task):
    """Runs in a suite worker process: the original worker under a fresh recorder."""
    global _REC
    if not _ORIGINAL:      # a spawned child starts from a fresh import
        install()
    if _REC.pid != os.getpid():
        _REC = Recorder()  # a forked child inherits the parent's open spans
    _REC.open(CS_WORKER)
    try:
        return _ORIGINAL[CS_WORKER](task)
    finally:
        _REC.close()
        _spool_out()


def _spool_out():
    path = os.path.join(os.environ[SPOOL_ENV],
                        f"{os.getpid()}-{time.perf_counter_ns()}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump({"spans": _REC.spans, "gamma_keys": sorted(_REC.gamma_keys),
                   "recognize": _REC.recognize}, fh)
    os.replace(path + ".tmp", path)
    _REC.spans, _REC.gamma_keys, _REC.recognize = [], set(), [0, 0]


def collect_children():
    """Merge spans the suite workers spooled since the last call."""
    spool = os.environ[SPOOL_ENV]
    for fname in sorted(os.listdir(spool)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(spool, fname)
        with open(path) as fh:
            child = json.load(fh)
        os.remove(path)
        base = len(_REC.spans)
        for name, start, end, parent, _req in child["spans"]:
            _REC.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               _REC.request])
        _REC.gamma_keys.update(child["gamma_keys"])
        _REC.recognize[0] += child["recognize"][0]
        _REC.recognize[1] += child["recognize"][1]


def _rebind(original, replacement):
    """Point every name bound to original in a cmperiods module at replacement."""
    found = False
    for modname, mod in list(sys.modules.items()):
        if modname != "cmperiods" and not modname.startswith("cmperiods."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"no binding of {original!r} found to trace")


def install(clock=time.perf_counter):
    """Wrap every traced function and rebind every name bound to it.

    Spans are timed with ``clock``, which may leave out time the caller
    spends on its own (the worker's calibration samples).
    """
    global _REC
    import cmperiods.cli as cli

    _REC = Recorder(clock)
    for modname, fns in TRACED.items():
        mod = sys.modules[f"cmperiods.{modname}"]
        for fn in fns:
            name = f"{modname}.{fn}"
            _ORIGINAL[name] = getattr(mod, fn)
            _rebind(_ORIGINAL[name], _wrap(name, _ORIGINAL[name]))
    _ORIGINAL[CS_WORKER] = cli._cs_worker
    _rebind(cli._cs_worker, traced_cs_worker)
    _rebind(ProcessPoolExecutor, TracedPool)
    for name, fn in _ORIGINAL.items():
        if any(v is fn for m, mod in sys.modules.items() if m.startswith("cmperiods")
               for v in vars(mod).values()):
            raise RuntimeError(f"{name} is still reachable untraced")


def start_request(index):
    _REC.request = index


def summary():
    """Per-function calls and self time, and the counters, for this process.

    ``wrapper_s`` is the time the wrappers added: each span's count times
    the cost of its kind of wrapper, spans of suite workers included.
    """
    spans = _REC.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _req in spans:
        if end is None:
            raise RuntimeError(f"span {name} was never closed")
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, (name, start, end, _parent, _req) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
    pools = [(end - start) for name, start, end, _p, _r in spans if name == POOL]
    worker_busy = sum(end - start for name, start, end, _p, _r in spans
                      if name == CS_WORKER)
    cost = wrapper_cost()
    return {
        "calls": {n: calls[n] for n in SPAN_NAMES},
        "wrapper_s": sum(calls[n] * cost[_kind(n)] for n in SPAN_NAMES),
        "self_s": {n: self_s[n] for n in SPAN_NAMES},
        "gamma_distinct": len(_REC.gamma_keys),
        "recognize": list(_REC.recognize),
        "pool_wall_x_workers": sum(w * t for w, t in zip(_REC.pool_workers, pools)),
        "pool_busy": worker_busy,
        "cs_worker_calls": calls[CS_WORKER],
    }

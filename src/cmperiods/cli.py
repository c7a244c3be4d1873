"""Command-line front door.

Each subcommand runs one or more two-sided identity checks and reports
them uniformly: human-readable lines by default, a stable JSON array
with --json (fields check, inputs, lhs_log, rhs_log, digits_agreed,
pass; numbers as decimal strings so output is byte-identical across
runs).  Exit codes: 0 all checks pass, 1 an identity check failed,
2 usage or domain error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from mpmath import mp

from .arith import MAX_N
from .csperiods import (IdentityReport, class_periods, cs_verify, exact_report,
                        faltings_height_L, faltings_height_periods, log_delta_pair,
                        m_invariant, make_report, unrecognized_report)
from .epstein import epstein_jet, epstein_jets
from .errors import ConsistencyError, DomainError, PrecisionError
from .fermat import cm_type, epsilon_rst, tate_twist_certificate
from .heckechar import psi_M
from .lseries import character_gamma_sum
from .numkernel import PrecisionContext, ln
from .quadforms import (Discriminant, QuadForm, class_number, class_number_dirichlet,
                        is_fundamental, reduced_forms)
from .relint import recognize_rational, recognize_sqrtp

_RECOGNIZE_MAX_DEN = 10 ** 12

_FALTINGS_PRIMES = (7, 11, 23, 43, 67, 163)
_PERIOD_PRIMES = (7, 11, 23, 31, 47)


def _parse_ints(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise DomainError(f"{what} takes {n} comma-separated integers")
    try:
        return tuple(int(x) for x in parts)
    except ValueError as exc:
        raise DomainError(f"bad {what}: {text!r}") from exc


def _cmd_class(args, ctx):
    disc = Discriminant(args.d)
    group = reduced_forms(disc)
    lines = [f"h(-{disc.d}) = {group.h}"]
    lines += [f"  {f.tuple()}" for f in group]
    rep = exact_report(f"class-number d={disc.d}", {"d": disc.d},
                       group.h, class_number_dirichlet(disc), ctx)
    return [rep], lines


def _cmd_verify_cs(args, ctx):
    return [cs_verify(args.d, ctx)], []


def _kronecker_class(disc, i, f, jet, ctx):
    with ctx.workprec():
        rhs = -log_delta_pair(f, ctx) / 12
    return make_report(f"kronecker-limit d={disc.d} class={i}",
                       {"d": disc.d, "class": i, "form": list(f.tuple())},
                       jet.deriv, rhs, ctx)


def _cmd_kronecker(args, ctx):
    disc = Discriminant(args.d)
    forms = list(reduced_forms(disc))
    if args.class_index is None:
        picked = list(enumerate(forms))
        jets = epstein_jets(forms, ctx)  # one pass over n for every class
    else:
        if not 0 <= args.class_index < len(forms):
            raise DomainError(f"--class must be in 0..{len(forms) - 1} for d={disc.d}")
        picked = [(args.class_index, forms[args.class_index])]
        jets = [epstein_jet(forms[args.class_index], ctx)]
    return [_kronecker_class(disc, i, f, jet, ctx)
            for (i, f), jet in zip(picked, jets)], []


def _periods(p, ctx):
    disc = Discriminant.prime(p)
    group, periods = class_periods(disc, ctx)
    with ctx.workprec():
        lines = [f"  class {f.tuple()}: {mp.nstr(val, 30)}" for f, val in zip(group, periods)]
        total = sum((ln(val) for val in periods), mp.mpf(0))
        rhs = group.h * ln(2 * mp.pi / disc.d) + character_gamma_sum(disc, ctx)
    rep = make_report(f"period-product p={disc.d}", {"p": disc.d}, total, rhs, ctx)
    return [rep], lines


def _faltings(p, ctx):
    disc = Discriminant.prime(p)
    rep = make_report(f"faltings-height p={disc.d}", {"p": disc.d},
                      faltings_height_periods(disc, ctx),
                      faltings_height_L(disc, ctx), ctx)
    return [rep], []


def _cmd_fermat(args, ctx):
    r, s, t = _parse_ints(args.rst, 3, "--rst")
    disc = Discriminant.prime(args.p)
    rec = cm_type(disc, r, s, t)
    eps = epsilon_rst(disc, r, s, t)
    lines = [f"phi = {rec.phi}",
             f"u = {rec.u}, v = {rec.v}, eps(r,s,t) = {eps}"]
    inputs = {"p": args.p, "rst": [rec.rst[0], rec.rst[1], rec.rst[2]]}
    cert = tate_twist_certificate(disc, r, s, t, ctx)
    exact = f"{cert.recognized}{'*sqrt(p)' if cert.kind == 'sqrtp' else ''}"
    lines.append(f"tate ratio recognized: {exact} (height {cert.height}, m = {cert.m})")
    rst = ",".join(map(str, rec.rst))
    reports = [
        exact_report(f"cm-type-size p={args.p} rst={rst}", inputs,
                     rec.u + rec.v, (args.p - 1) // 2, ctx),
        exact_report(f"cm-type-balance p={args.p} rst={rst}", inputs,
                     rec.u - rec.v, class_number_dirichlet(disc) * eps, ctx),
        cert.report,
    ]
    return reports, lines


def _cmd_hecke(args, ctx):
    a, b, c = _parse_ints(args.form, 3, "--form")
    f = QuadForm(a, b, c)
    disc = Discriminant.prime(args.p)
    beta = psi_M(f, disc)
    h = class_number_dirichlet(disc)
    power = a ** h
    try:  # every int the request prints, before any line is made
        x, y, norm, _ = map(str, (beta.x, beta.y, beta.norm, power))
    except ValueError as exc:  # CPython's guard against quadratic int-to-str time
        raise DomainError(f"beta = psi_M({a},{b},{c}) at p={args.p}, or its norm, has more "
                          f"than {sys.get_int_max_str_digits()} digits") from exc
    lines = [f"beta = ({x}, {y})   meaning ({x} + {y}*sqrt(-{args.p}))/2",
             f"N(beta) = {norm} {'=' if beta.norm == power else '!='} {a}^{h}"]
    rep = exact_report(f"hecke-psi p={args.p} form={a},{b},{c} beta=({x},{y})",
                       {"p": args.p, "form": [a, b, c]}, beta.norm, power, ctx)
    return [rep], lines


def _cmd_recognize(args, ctx):
    try:
        with ctx.workprec():
            x = mp.mpf(args.value)
    except ValueError as exc:
        raise DomainError(f"bad --value: {args.value!r}") from exc
    if args.sqrtp is None:
        rec = recognize_rational(x, _RECOGNIZE_MAX_DEN, ctx)
        suffix = ""
    else:
        rec = recognize_sqrtp(x, args.sqrtp, _RECOGNIZE_MAX_DEN, ctx)
        suffix = f"*sqrt({args.sqrtp})"
    inputs = {"value": args.value, "sqrtp": args.sqrtp}
    if rec is None:
        return [unrecognized_report("recognize", inputs, args.value)], ["unrecognized"]
    text = str(rec) + suffix
    rep = IdentityReport("recognize", inputs, args.value, text, ctx.target_digits, True)
    return [rep], [text]


def _cs_worker(task):
    d, prec = task
    ctx = PrecisionContext(prec)
    return cs_verify(d, ctx)


def _m_invariant_holds(p):
    """Whether m = sum of a/p over quadratic residues equals (p-1)/4 - h/2."""
    try:
        m_invariant(p)
    except ConsistencyError:
        return False
    return True


def _cmd_suite(args, ctx):
    maxd = args.max_d
    if not 3 <= maxd <= MAX_N:
        raise DomainError(f"--max-d must be in 3..{MAX_N}")
    ds = [d for d in range(3, maxd + 1) if is_fundamental(d)]
    reports = []

    agree = sum(1 for d in ds if class_number(d) == class_number_dirichlet(d))
    reports.append(exact_report(f"class-number-sweep 3<=d<={maxd}", {"max_d": maxd},
                                agree, len(ds), ctx))

    ps = [d for d in ds if Discriminant(d).is_prime_3mod4 and d >= 7]
    agree = sum(1 for p in ps if _m_invariant_holds(p))
    reports.append(exact_report(f"m-invariant-sweep p<={maxd}", {"max_d": maxd},
                                agree, len(ps), ctx))

    # the period and Faltings checks run first, so that forked workers
    # inherit the log-Gamma tables they build at this precision, and the
    # Delta pairs and character sums of their p, which the Chowla-Selberg
    # checks there read; their rows still follow the Chowla-Selberg rows
    tail = [rep for p in _PERIOD_PRIMES if p <= maxd for rep in _periods(p, ctx)[0]]
    tail += [rep for p in _FALTINGS_PRIMES if p <= maxd for rep in _faltings(p, ctx)[0]]
    tasks = [(d, ctx.target_digits) for d in ds]
    # a fork pool starts all its workers at the first submit: no more
    # than there are tasks or cores
    workers = min(args.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = -(-len(tasks) // workers)
            reports.extend(pool.map(_cs_worker, tasks, chunksize=chunk))
    else:
        reports.extend(_cs_worker(t) for t in tasks)
    return reports + tail, []


_HANDLERS = {
    "class": _cmd_class,
    "verify-cs": _cmd_verify_cs,
    "kronecker": _cmd_kronecker,
    "periods": lambda args, ctx: _periods(args.p, ctx),
    "faltings": lambda args, ctx: _faltings(args.p, ctx),
    "fermat": _cmd_fermat,
    "hecke": _cmd_hecke,
    "recognize": _cmd_recognize,
    "suite": _cmd_suite,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it."""
    top = argparse.ArgumentParser(
        prog="cmperiods",
        description="Verify Chowla-Selberg / CM period identities to high precision.")
    _global_flags(top, on_top=True)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        # a word that starts with "-" and a digit is a value, as in
        # "--value -1e-30": argparse's own pattern takes only -7 and -0.75
        # for numbers and reads -1e-30 as an unknown option
        p._negative_number_matcher = re.compile(r"-\.?\d")
        _global_flags(p, on_top=False)
        return p

    add("class", "reduced forms and the class number, two ways").add_argument(
        "--d", type=int, required=True, help="fundamental discriminant is -d")
    add("verify-cs", "Chowla-Selberg identity at -d").add_argument(
        "--d", type=int, required=True)
    p = add("kronecker", "per-class limit formula: Z_Q(0) and Z_Q'(0)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="single class index (default: all classes)")
    add("periods", "per-class period integrals and their product law").add_argument(
        "--p", type=int, required=True, help="prime = 3 mod 4, p > 3")
    add("faltings", "Faltings height from periods and from L'(0)").add_argument(
        "--p", type=int, required=True)
    p = add("fermat", "CM type and Tate-twist period certificate for x^p = y^r z^s w^t")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rst", required=True, help="triple r,s,t with r+s+t = 0 mod p")
    p = add("hecke", "Hecke character value on an ideal class")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--form", required=True, help="form a,b,c of discriminant -p")
    p = add("recognize", "reconstruct a rational (or rational*sqrt(p)) from digits")
    p.add_argument("--value", required=True)
    p.add_argument("--sqrtp", type=int, default=None)
    add("suite", "full invariant battery up to a discriminant bound").add_argument(
        "--max-d", dest="max_d", type=int, default=200)
    return top


def _global_flags(parser, on_top):
    # Declared on the top parser with real defaults and on every
    # subparser with SUPPRESS, so both flag positions work.
    kw = {} if on_top else {"default": argparse.SUPPRESS}
    parser.add_argument("--prec", type=int, help="target decimal digits (default 120)",
                        **({"default": 120} if on_top else kw))
    parser.add_argument("--json", action="store_true",
                        **({"default": False} if on_top else kw))
    parser.add_argument("--threads", type=int, help="parallel workers (suite only)",
                        **({"default": 1} if on_top else kw))
    parser.add_argument("--out", help="write the report to a file instead of stdout",
                        **({"default": None} if on_top else kw))


def _render(rep) -> str:
    mark = "pass" if rep.passed else "FAIL"
    return f"[{mark}] {rep.name}  ({rep.digits_agreed} digits agreed)"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse reads "--flag=--" as the empty list and calls no type on it
    if [] in vars(args).values():
        print("error: a flag given as --flag=-- has no value", file=sys.stderr)
        return 2
    if args.prec < 30:
        print("error: --prec must be at least 30", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("error: --threads must be positive", file=sys.stderr)
        return 2
    ctx = PrecisionContext(args.prec)
    try:
        reports, lines = _HANDLERS[args.command](args, ctx)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        msg = f"precision failure: {exc}"
        if exc.achieved_digits is not None:
            msg += f" (achieved {exc.achieved_digits} digits)"
        print(msg, file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1

    if args.json:
        text = json.dumps([rep.row(ctx) for rep in reports], indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(line + "\n" for line in lines + [_render(rep) for rep in reports])
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())

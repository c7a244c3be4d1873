"""Seeded request generators for the benchmark workloads, with a self-check.

Each workload is a closed loop with one client: a campaign is a list of
CLI argument vectors sent one after another through ``cmperiods.cli.main``.
The seed picks which requests of the workload's population go into the
campaign and in which order; the strata (how many requests of each kind,
at each precision tier) are fixed, so the cost of a campaign barely
depends on the seed.

All arithmetic here is the benchmark's own (trial division, Euler's
criterion, brute-force reduced forms), so a fault in the program cannot
make the generator emit an out-of-domain request, and a generator fault is
caught by ``validate`` before any request is sent.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

TIERS = (60, 120, 300)

# tate-sweep: fermat requests per tier at each prime; the rest of the
# population (hecke on each reduced form, class) is cheap and always sent.
TATE_PRIMES = {7: 2, 11: 4, 19: 8}
# cs-sweep: at each tier one verify-cs discriminant d <= CS_MAX_D from each
# of four narrow bands of estimated cost (cs_cost), drawn without
# replacement, and faltings and periods at primes of two narrow bands, so
# that the campaign's cost and latency percentiles barely depend on the seed.
# The bands leave out the d that the faltings, periods and suite requests
# also check, so that nearly every log-Gamma key is distinct.
CS_MAX_D = 200
CS_BANDS = ((26, 30), (43, 46), (80, 87), (126, 143))
CS_FALTINGS_PRIMES = (127, 131, 139)
CS_PERIODS_PRIMES = (71, 79, 83)
# The battery command rides along at every tier: it is the only request
# that fans out to worker processes (and runs the class-number and
# m-invariant sweeps).  A small bound keeps one campaign at a few seconds.
CS_SUITE_MAX_D = 30
CS_SUITE_THREADS = 2
# kronecker-jets: the 300 tier is left out (one d=7 jet takes 11 s at
# 200 digits).  For d=23 the seed draws class 1 or 2 at each tier, the two
# inverse classes, whose jets cost the same; the principal class is about
# 15% cheaper, so drawing it would make the campaign cost depend on the seed.
KRONECKER_CLASSES = {tier: ((7, (0,)), (23, (1, 2))) for tier in (60, 120)}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, isqrt(n) + 1))


def _squarefree(n: int) -> bool:
    return all(n % (k * k) for k in range(2, isqrt(n) + 1))


def is_fundamental(d: int) -> bool:
    """-d is a fundamental discriminant (d > 0)."""
    if d % 4 == 3:
        return _squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (1, 2) and _squarefree(d // 4)
    return False


def legendre(a: int, p: int) -> int:
    """(a | p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Primitive reduced forms (a, b, c) of discriminant -d, by brute force."""
    out = []
    for a in range(1, isqrt(d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    return out


def is_prime_3mod4(p: int) -> bool:
    return p > 3 and p % 4 == 3 and is_prime(p)


def mixed_triples(p: int) -> list[tuple[int, int, int]]:
    """Triples r + s + t = 0 mod p, all nonzero, with (r|p)+(s|p)+(t|p) = +-1."""
    out = []
    for r in range(1, p):
        for s in range(1, p):
            t = (-r - s) % p
            if t and abs(legendre(r, p) + legendre(s, p) + legendre(t, p)) == 1:
                out.append((r, s, t))
    return out


def _req(tier, *argv):
    return [*map(str, argv), "--prec", str(tier)]


def _tate(rng):
    reqs = []
    for tier in TIERS:
        for p, n in TATE_PRIMES.items():
            for r, s, t in rng.sample(mixed_triples(p), n):
                reqs.append(_req(tier, "fermat", "--p", p, "--rst", f"{r},{s},{t}"))
            for a, b, c in reduced_forms(p):
                reqs.append(_req(tier, "hecke", "--p", p, "--form", f"{a},{b},{c}"))
            reqs.append(_req(tier, "class", "--d", p))
    return reqs


def cs_cost(d: int) -> float:
    """Estimated cost of verify-cs at d, in log-Gamma calls.

    One log-Gamma call per a < d prime to d, and two delta_lattice calls
    per class, which together cost about 1.5 log-Gamma calls.
    """
    return sum(1 for a in range(1, d) if gcd(a, d) == 1) + 1.5 * len(reduced_forms(d))


def _cs(rng):
    shared = CS_FALTINGS_PRIMES + CS_PERIODS_PRIMES
    ds = [d for d in range(CS_SUITE_MAX_D + 1, CS_MAX_D + 1)
          if is_fundamental(d) and d not in shared]
    n = len(TIERS)
    bands = [rng.sample([d for d in ds if lo <= cs_cost(d) <= hi], n) for lo, hi in CS_BANDS]
    faltings = rng.sample(CS_FALTINGS_PRIMES, n)
    periods = rng.sample(CS_PERIODS_PRIMES, n)
    reqs = []
    for i, tier in enumerate(TIERS):
        reqs += [_req(tier, "verify-cs", "--d", band[i]) for band in bands]
        reqs.append(_req(tier, "faltings", "--p", faltings[i]))
        reqs.append(_req(tier, "periods", "--p", periods[i]))
        reqs.append(_req(tier, "suite", "--max-d", CS_SUITE_MAX_D,
                         "--threads", CS_SUITE_THREADS))
    return reqs


def _kronecker(rng):
    return [_req(tier, "kronecker", "--d", d, "--class", rng.choice(classes))
            for tier, picks in KRONECKER_CLASSES.items() for d, classes in picks]


GENERATORS = {
    "tate-sweep": _tate,
    "cs-sweep": _cs,
    "kronecker-jets": _kronecker,
}


def campaign(workload: str, seed: int) -> list[list[str]]:
    """The seeded campaign: argv lists (without --json), in sending order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = GENERATORS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def flags(argv):
    """The --flag value pairs of an argv list, after the subcommand."""
    it = iter(argv[1:])
    return {k: v for k, v in zip(it, it)}


def _domain_error(argv) -> str | None:
    """Why argv is outside the program's domain, or None if it is inside."""
    cmd, f = argv[0], flags(argv)
    tier = int(f.pop("--prec"))
    if tier not in TIERS:
        return f"tier {tier} not in {TIERS}"
    if cmd in ("verify-cs", "class"):
        return None if is_fundamental(int(f["--d"])) else "d not fundamental"
    if cmd in ("faltings", "periods"):
        return None if is_prime_3mod4(int(f["--p"])) else "p not a prime = 3 mod 4"
    if cmd == "fermat":
        p = int(f["--p"])
        rst = tuple(int(x) for x in f["--rst"].split(","))
        if not is_prime_3mod4(p):
            return "p not a prime = 3 mod 4"
        return None if rst in mixed_triples(p) else "triple not mixed"
    if cmd == "hecke":
        p = int(f["--p"])
        form = tuple(int(x) for x in f["--form"].split(","))
        if not is_prime_3mod4(p) or form not in reduced_forms(p) or form[0] % p == 0:
            return "form not a reduced form of -p prime to p"
        return None
    if cmd == "kronecker":
        d, i = int(f["--d"]), int(f["--class"])
        if not is_fundamental(d):
            return "d not fundamental"
        return None if 0 <= i < len(reduced_forms(d)) else "class index out of range"
    if cmd == "suite":
        ok = int(f["--max-d"]) >= 3 and int(f["--threads"]) >= 1
        return None if ok else "suite bound or thread count out of range"
    return f"unknown command {cmd}"


def validate(workload: str, seed: int) -> list[list[str]]:
    """Generate the campaign twice, check it is deterministic and in domain."""
    reqs = campaign(workload, seed)
    if campaign(workload, seed) != reqs:
        raise RuntimeError(f"generator for {workload} is not deterministic")
    for argv in reqs:
        why = _domain_error(argv)
        if why:
            raise RuntimeError(f"generator for {workload} emitted {argv}: {why}")
    return reqs

"""Workload "split": the calls behind ``phigamma idempotents``.

Each problem is one algebra: ``algebra_from_json``, ``tensor_idempotents``
and ``phi_orbit_transitivity``.  The problem set is fixed in shape and
drawn from the seed in detail: every (p, degree pattern) below appears
COPIES times per round, each time with its factors in a seeded order and
with seeded irreducible moduli.  The patterns mix coprime degrees (one
component) with equal and nested degrees (up to N/L components), for
N = prod(degrees) up to 64.

Patterns whose cost swings with the moduli by more than about a third
(degrees (4, 4, 4), and (2, 4, 8) for p >= 5) are left out: their split
time depends on which fixed vectors the nullspace returns first, so a seed
would move wall_s by more than any bound could absorb.
"""

from __future__ import annotations

import math
import random

import phigamma
import ref
from core import Problem, expect

PRIMES = (2, 3, 5, 7)
PATTERNS = (
    (2, 3), (3, 4), (2, 3, 5), (3, 4, 5), (2, 3, 4),
    (2, 2), (3, 3), (4, 4), (2, 4), (2, 6), (3, 6), (4, 8),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 4),
    (2, 4, 8),
)
SKIP = {(5, (2, 4, 8)), (7, (2, 4, 8))}
# four copies, so that p90 falls between the middle copies of one pattern
# (p = 7, (4, 8)) whose time moves with the moduli, not on the costlier of two
COPIES = 4
LABELS = "abcd"


def generate(seed, workdir):
    rng = random.Random(f"split-{seed}")
    configs = []
    for _ in range(COPIES):
        for p in PRIMES:
            for degs in PATTERNS:
                if (p, degs) in SKIP:
                    continue
                order = list(degs)
                rng.shuffle(order)
                configs.append({
                    "p": p,
                    "factors": [
                        {"n": n, "label": LABELS[i],
                         "modulus": ref.random_irreducible(p, n, rng)}
                        for i, n in enumerate(order)
                    ],
                })
    rng.shuffle(configs)
    return configs


def setup(configs):
    def split(cfg):
        dec = phigamma.tensor_idempotents(phigamma.algebra_from_json(cfg))
        orbits, transitive = phigamma.phi_orbit_transitivity(dec)
        return dec, orbits, transitive

    problems = []
    for i, cfg in enumerate(configs):
        degs = tuple(f["n"] for f in cfg["factors"])
        problems.append(Problem(
            name=f"split#{i} p={cfg['p']} degrees={degs}",
            kind="split",
            run=lambda cfg=cfg: split(cfg),
            plain=plain,
            verify=lambda out, cfg=cfg: verify(cfg, out),
            data=cfg,
        ))
    return problems


def plain(out):
    dec, orbits, transitive = out
    return {
        "idempotents": [[int(c) for c in e] for e in dec.idempotents],
        "component_degrees": [int(d) for d in dec.component_degrees],
        "orbits": [list(o) for o in orbits],
        "transitive": bool(transitive),
    }


def verify(cfg, out):
    p = cfg["p"]
    F = ref.FinitePart(p, [f["modulus"] for f in cfg["factors"]])
    L = math.lcm(*F.degrees)
    ell = F.N // L
    idems = [tuple(c % p for c in e) for e in out["idempotents"]]
    expect(len(idems) == ell, f"{len(idems)} components, expected N/L = {ell}")
    expect(all(d == L for d in out["component_degrees"]),
           f"component degrees {out['component_degrees']}, expected all {L}")
    expect(out["transitive"] and len(out["orbits"]) == 1, "Frobenius orbit not transitive")
    total = F.zero()
    for e in idems:
        expect(any(e), "zero idempotent")
        expect(F.mul(e, e) == e, "e*e != e")
        total = F.add(total, e)
    expect(total == F.one(), "idempotents do not sum to 1")
    # the partial Frobenii permute the idempotents, transitively
    index = {e: j for j, e in enumerate(idems)}
    seen, frontier = {0}, [0]
    while frontier:
        j = frontier.pop()
        for axis in range(len(F.degrees)):
            k = index.get(F.frob(idems[j], axis))
            expect(k is not None, "Frobenius image of an idempotent is not one of them")
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    expect(len(seen) == ell, "the partial Frobenii do not act transitively")


def tampered(problems, outputs, failed):
    """One idempotent coefficient changed."""
    for prob, out, bad in zip(problems, outputs, failed):
        if not bad:
            data = prob.plain(out)
            data["idempotents"][0][0] = (data["idempotents"][0][0] + 1) % prob.data["p"]
            return [("idempotent coefficient", prob, data)]
    return []

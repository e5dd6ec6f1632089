"""Single-layer timings that earlier notes in ROADMAP.md (item O2) quoted.

    python3 perfbench/baselines.py

Run from the repository root.  Prints the median of several repetitions of
each operation, in one thread; these are reference figures for the README,
not part of the benchmark's metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import phigamma as pg  # noqa: E402
from phigamma import gfp  # noqa: E402


def timed(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main():
    rng = random.Random(2)
    ring = pg.SeriesRingSpec(pg.CoefficientAlgebra(3, [{"n": 1}, {"n": 1}]), 8)

    def series(k):
        el = ring.zero()
        while len(el.support) < k:
            e = tuple(rng.randrange(5) for _ in range(2))
            el = el + ring.monomial(e, rng.randrange(1, 3))
        return el.truncated(8)

    a, b = series(13), series(13)
    unit = ring.one() + ring.var(0)
    phi = pg.make_phi(ring, 0)
    gamma = pg.make_gamma(ring, 0, pg.PAdicUnitApprox(3, 4, 4))
    A = np.array([[rng.randrange(3) for _ in range(256)] for _ in range(256)])
    ring3 = pg.SeriesRingSpec(pg.CoefficientAlgebra(2, [{"n": 1}] * 3), 14)
    system = pg.FrobFixedSystem(ring3, window=12, subwindow=6, t_cap=0)
    rows = [
        ("LaurentElement mul, 13 x 13 terms, p=3, Delta=2, W=8", lambda: a * b, 20),
        ("invert(1 + X_a), p=3, Delta=2, W=8", unit.invert, 20),
        ("phi_a.apply, 13 terms", lambda: phi.apply(a), 20),
        ("gamma_a(4).apply, 13 terms", lambda: gamma.apply(a), 20),
        ("gfp.rref, 256 x 256 over GF(3)", lambda: gfp.rref(A, 3), 5),
        ("slot solver, p=2, Delta=3, W=12, W'=6", lambda: pg.solve_fixed_points(system), 5),
    ]
    for name, fn, reps in rows:
        print(f"{name:56s} {1000 * timed(fn, reps):9.2f} ms")


if __name__ == "__main__":
    main()

"""Benchmark driver for phigamma: one workload, one process, one thread.

    python3 perfbench/run.py --workload split --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's inputs are generated from
--seed; the library is imported from ./src.  The problem set is then run in
whole rounds until --seconds have passed, every output is checked against
the benchmark's own reference arithmetic, and the last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics".  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the library's functions are wrapped (see layers.py) and the
metrics are per-layer, per round.

Problem times are scaled to a reference machine speed, read from a fixed
calibration loop timed between the problems (see run_round and README.md);
setup_s is one cold set-up, unscaled.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

T_START = perf_counter()

import numpy as np  # noqa: E402  (phigamma imports it too; part of set-up)
from core import CheckError  # noqa: E402  (run.py's own directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("split", "operators", "pipeline")
CAL_GAP_S = 0.01  # problem time between two calibrations
CAL_REF_S = 0.001  # reference speed: the calibration takes 1 ms


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def calibrate():
    """A fixed piece of work that never touches phigamma: small-integer
    arithmetic, tuple and dict traffic and a few small numpy products, the
    mix the library itself runs.  It takes about 0.7 ms on this machine in
    its fast state and 1.3 ms in its slow one (see README.md)."""
    d = {}
    s = 0
    for i in range(1500):
        k = (i * 7919) % 1031
        key = (k % 17, k % 5)
        d[key] = (d.get(key, 0) + i * k) % 65521
        s += k * k % 13
    a = np.arange(1024, dtype=np.float64).reshape(32, 32) % 7
    for _ in range(8):
        a = (a @ a) % 7
    return s + int(a[0, 0]) + len(d)


def timed_calibration():
    t0 = perf_counter()
    calibrate()
    return perf_counter() - t0


def run_round(problems):
    """Run every problem once; returns (outputs, scaled times, raw times,
    failed flags).

    A calibration runs before a problem whenever CAL_GAP_S of problem time
    has passed since the last one, and once at the end.  A problem's scaled
    time is its time times CAL_REF_S over the mean of the calibrations just
    before and just after it: its time at the reference speed, whatever
    state the shared machine was in while it ran.
    """
    outputs, times, failed, cal_at, cal = [], [], [], [], []
    since = math.inf
    for prob in problems:
        if since >= CAL_GAP_S:
            cal.append(timed_calibration())
            since = 0.0
        cal_at.append(len(cal) - 1)
        t0 = perf_counter()
        try:
            out = prob.run()
            bad = prob.failed(out)
        except Exception:  # an operation that raises counts as failed
            out, bad = traceback.format_exc(), True
        t = perf_counter() - t0
        since += t
        times.append(t)
        outputs.append(out)
        failed.append(bad)
    cal.append(timed_calibration())
    scaled = [t * 2 * CAL_REF_S / (cal[j] + cal[j + 1]) for t, j in zip(times, cal_at)]
    return outputs, scaled, times, failed


def check_round(problems, outputs, failed, errors):
    for prob, out, bad in zip(problems, outputs, failed):
        if bad:
            continue
        try:
            prob.verify(prob.plain(out))
        except CheckError as exc:
            errors.append(f"{prob.name}: {exc}")
        except Exception as exc:  # an output the checker cannot even read
            errors.append(f"{prob.name}: unreadable output ({type(exc).__name__}: {exc})")


def self_test(workload, problems, outputs, failed):
    """Each tampered output must be refused by its checker."""
    results = []
    for name, prob, tampered in workload.tampered(problems, outputs, failed):
        try:
            prob.verify(tampered)
            results.append((name, False))
        except CheckError:
            results.append((name, True))
    return results


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "phigamma" / "__init__.py").is_file():
        print(f"error: no phigamma sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import phigamma  # noqa: F401  (timed as part of set-up)

    if not Path(phigamma.__file__).resolve().is_relative_to(src.resolve()):
        print("error: phigamma was not imported from ./src", file=sys.stderr)
        return 2

    t_gen = perf_counter()
    workload = importlib.import_module(args.workload)
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        inputs = workload.generate(args.seed, workdir)
        gen_s = perf_counter() - t_gen
        problems = workload.setup(inputs)
        setup_s = perf_counter() - T_START - gen_s
        return measure(args, workload, problems, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workload, problems, setup_s):
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    errors, selftest = [], None
    rounds = []  # per round: (scaled problem times, raw problem times)
    attempted = failed_count = 0
    t_end = perf_counter() + args.seconds
    while True:
        gc.collect()
        if tracer:
            tracer.active = True
        outputs, scaled, times, failed = run_round(problems)
        if tracer:
            tracer.active = False
        rounds.append((scaled, times))
        attempted += len(problems)
        failed_count += sum(failed)
        check_round(problems, outputs, failed, errors)
        if selftest is None:
            selftest = self_test(workload, problems, outputs, failed)
        if perf_counter() >= t_end:
            break
    if not selftest:
        errors.append("self-test: no output to alter")
    for name, refused in selftest:
        if not refused:
            errors.append(f"self-test: the checker accepted a tampered {name}")
    for e in errors[:20]:
        print("CHECK FAILED:", e)
    # a problem's time: the median over the rounds of its scaled time
    per_problem = [statistics.median(scaled[i] for scaled, _ in rounds)
                   for i in range(len(problems))]
    raw_best = [min(times[i] for _, times in rounds) for i in range(len(problems))]
    if args.trace:
        metrics = tracer.metrics(len(rounds))
        tracer.uninstall()
    else:
        deciles = statistics.quantiles(per_problem, n=10, method="inclusive")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(per_problem), "s"),
            "problem_p50_ms": (1000 * deciles[4], "ms"),
            "problem_p90_ms": (1000 * deciles[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    round_walls = [sum(times) for _, times in rounds]
    round_scaled = [sum(scaled) for scaled, _ in rounds]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} problems/round={len(problems)} "
          f"round wall_s min/median/max={min(round_walls):.3f}/"
          f"{statistics.median(round_walls):.3f}/{max(round_walls):.3f} "
          f"unscaled wall_s(least)={sum(raw_best):.3f} round scaled wall_s min/max="
          f"{min(round_scaled):.3f}/{max(round_scaled):.3f} "
          f"self-test={[(n, r) for n, r in selftest]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One digest per benchmark workload over every output of its problem set.

    python scripts/output_digest.py --seed 61 --seed 7
    python scripts/output_digest.py --workload split --seed 1

Run from anywhere inside the repository.  For each workload of
``perfbench/`` and each seed, the workload's inputs are generated and its
problem set runs once, in a temporary directory; the library is imported
from ``src/``.  The workload modules are imported as they are and nothing
under ``perfbench/`` is written.  Each output is reduced to plain data by
the workload's own ``plain`` (windows, terms, verdicts, reports), or to
the exception's type when the problem raised, and the script prints one
SHA-256 digest per workload over all of them.  The digest does not depend
on the insertion order of any dict (a series support, a JSON object), so
two trees whose outputs are equal give the same digest: run the script on
both to check that a change leaves every output unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("split", "operators", "pipeline")


def canonical(obj):
    """Plain data with every dict replaced by its items sorted by their
    JSON text: equal data gives equal text whatever the dicts' order."""
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return {"dict": sorted(items, key=lambda kv: json.dumps(kv))}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return {"float": repr(obj)}
    if hasattr(obj, "item"):  # a numpy scalar
        return obj.item()
    return obj


def digest(outputs):
    """The SHA-256 of the canonical JSON text of ``outputs``."""
    text = json.dumps(canonical(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outputs_of(workload, seed):
    """{problem name: (failed, plain output)} of one run of the problem
    set; a problem that raises gives (True, the exception's type name)."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    module = importlib.import_module(workload)
    out = {}
    with tempfile.TemporaryDirectory(prefix=f"digest-{workload}-") as work:
        problems = module.setup(module.generate(seed, Path(work)))
        for prob in problems:
            try:
                raw = prob.run()
            except Exception as exc:
                out[prob.name] = (True, type(exc).__name__)
                continue
            failed = bool(prob.failed(raw))
            out[prob.name] = (failed, prob.plain(raw))
    return out


def workload_digest(workload, seeds):
    """(outputs, failed outputs, digest) of a workload over the seeds."""
    outputs = {seed: outputs_of(workload, seed) for seed in seeds}
    count = sum(len(o) for o in outputs.values())
    failed = sum(f for o in outputs.values() for f, _ in o.values())
    return count, failed, digest(outputs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, action="append", required=True,
                    help="a workload seed; repeat for several")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="a workload (default: all); repeat for several")
    args = ap.parse_args(argv)
    seeds = ",".join(map(str, args.seed))
    for workload in args.workload or WORKLOADS:
        count, failed, hexdigest = workload_digest(workload, args.seed)
        print(f"{workload:<10} seeds={seeds} outputs={count} failed={failed} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

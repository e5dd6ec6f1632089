"""The benchmark's per-layer tracer wraps library functions by name, so a
renamed or deleted function breaks ``perfbench/run.py --trace 1``."""

import pathlib
import sys

import phigamma
from phigamma import fields

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_counts_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layers import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    original = fields.is_irreducible
    tracer = Tracer()
    tracer.install()
    try:
        assert fields.is_irreducible is not original
        tracer.active = True
        alg = phigamma.algebra_from_json(
            {"p": 3, "factors": [{"n": 2, "modulus": [2, 2, 1]}, {"n": 2}]}
        )
        phigamma.tensor_idempotents(alg)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert fields.is_irreducible is original
    metrics = tracer.metrics(1)
    assert metrics["fields.calls"][0] > 0
    assert metrics["coeff.algebra.calls"][0] == 1

"""The regression rule of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
WIDE = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]  # IQR/median 0.35


@pytest.mark.parametrize("base,new,lower,verdict", [
    (STEADY, [1.2] * 10, True, "no"),  # 20% worse, inside the bound
    (STEADY, [1.3] * 10, True, "yes"),
    (STEADY, [0.5] * 10, True, "no"),
    (STEADY, [0.7] * 10, False, "yes"),  # higher is better
    (WIDE, [1.1] * 10, True, "unresolved"),
    (WIDE, [0.65] * 10, True, "unresolved"),
    (WIDE, [0.4] * 10, True, "no"),  # every change run beats every base run
])
def test_regression_rule(base, new, lower, verdict):
    assert bench_pairs.regression(base, new, lower, 0.25) == verdict

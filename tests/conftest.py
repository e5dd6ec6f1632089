import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from phigamma import CoefficientAlgebra, SeriesRingSpec

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def alg_for(p, degs, ds=None):
    ds = ds or [0] * len(degs)
    return CoefficientAlgebra(p, [{"n": n, "d": d} for n, d in zip(degs, ds)])


def ring_for(p, degs, ds=None, prec=8):
    return SeriesRingSpec(alg_for(p, degs, ds), prec)


@pytest.fixture
def data_dir():
    return DATA


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[{status}] {name} ({report.duration:.2f}s)", file=sys.stderr)

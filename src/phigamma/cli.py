"""Command-line driver over the JSON interchange formats.

Subcommands: idempotents, check-module, fixed-points, dplusplus, roundtrip,
apply-op.  Every command reads a JSON config (--config), emits a JSON report
(stdout or --out), and follows the exit-code contract: 0 pass, 1 check
failure, 2 input error, 3 budget exceeded.  Reports embed a schema version,
the config hash, and the library version, so runs are reproducible and
comparable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .coeff import (
    NotInvertibleError,
    UndecidedError,
    algebra_from_json,
    phi_orbit_transitivity,
    tensor_idempotents,
)
from .descent import (
    BudgetExceededError,
    FrobFixedSystem,
    SubwindowError,
    roundtrip_V_of_D,
    solve_fixed_points,
)
from .endos import parse_word
from .modules import (
    Lattice,
    check_etale,
    check_relations,
    dplusplus_certified_lattice,
    in_dplus,
    in_dplusplus,
    mat_identity,
    module_from_json,
)
from .series import (
    LaurentElement,
    PrecisionError,
    SeriesRingSpec,
    laurent_from_json,
    laurent_to_json,
)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _base_report(cfg, seed):
    return {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": seed,
    }


def _ring_from_config(cfg) -> SeriesRingSpec:
    alg = algebra_from_json(cfg["algebra"])
    return SeriesRingSpec(alg, cfg.get("precision", 8))


def _emit(report, out_path):
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {out_path}")
    else:
        print(text)


def _sanitize(obj):
    """Make a report JSON-serializable: stringify keys, expand ring
    elements, and unwrap numpy scalars."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, LaurentElement):
        return laurent_to_json(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return str(obj)


# ---------------------------------------------------------------------------
# commands


def cmd_idempotents(cfg, args):
    alg = algebra_from_json(cfg)
    dec = tensor_idempotents(alg)
    orbits, transitive = phi_orbit_transitivity(dec)
    report = _base_report(cfg, args.seed)
    report.update(
        {
            "ell": dec.ell,
            "component_degrees": list(dec.component_degrees),
            "idempotents": [[int(c) for c in e] for e in dec.idempotents],
            "orbits": [list(o) for o in orbits],
            "transitive": transitive,
        }
    )
    return report, EXIT_PASS if transitive else EXIT_CHECK_FAILURE


def cmd_check_module(cfg, args):
    ring = _ring_from_config(cfg)
    D = module_from_json(ring, cfg["module"])
    results = [
        {"name": "etale", **check_etale(D)},
        {"name": "relations", **check_relations(D)},
    ]
    ok = all(r["pass"] for r in results)
    report = _base_report(cfg, args.seed)
    report.update({"checks": results, "pass": ok})
    return report, EXIT_PASS if ok else EXIT_CHECK_FAILURE


def cmd_fixed_points(cfg, args):
    ring = _ring_from_config(cfg)
    alg = ring.coeffs
    expect = args.expect_dim if args.expect_dim is not None else cfg.get("expect_dim")
    operators = cfg.get("operators")
    if operators is not None:
        operators = tuple(alg.label_index(a) for a in operators)
    quotient = cfg.get("quotient")
    if quotient is not None:
        quotient = (alg.label_index(quotient["alpha"]), quotient["r"])
    ambient = module_from_json(ring, cfg["module"]) if "module" in cfg else ring
    sol = solve_fixed_points(FrobFixedSystem(
        ambient, operators, cfg.get("window"), cfg.get("subwindow"),
        cfg.get("t_cap", 4), quotient,
    ))
    report = _base_report(cfg, args.seed)
    report.update(
        {
            "dimension": sol["dimension"],
            "basis": [_serialize_solution(v) for v in sol["basis"]],
            "unconfirmed": len(sol["unconfirmed"]),
            "checks": sol["checks"],
            "expected_dimension": expect,
        }
    )
    ok = expect is None or sol["dimension"] == int(expect)
    report["pass"] = ok
    return report, EXIT_PASS if ok else EXIT_CHECK_FAILURE


def _serialize_solution(v):
    if isinstance(v, list):
        return [laurent_to_json(x) for x in v]
    return laurent_to_json(v)


def cmd_dplusplus(cfg, args):
    ring = _ring_from_config(cfg)
    D = module_from_json(ring, cfg["module"])
    M = Lattice(D, mat_identity(ring, D.rank))
    cert = dplusplus_certified_lattice(D, M)
    elements = [_parse_vector(ring, D, e) for e in cfg.get("elements", [])]
    results = [
        {"name": f"element_{i:03d}", "dplusplus": in_dplusplus(D, M, x),
         "dplus": in_dplus(D, M, x)}
        for i, x in enumerate(elements)
    ]
    report = _base_report(cfg, args.seed)
    report.update(
        {
            "r": cert["r"],
            "k": cert["k"],
            "containment_recheck": cert["contained"],
            "memberships": results,
            "status": "ok" if cert["contained"] else "containment_failed",
        }
    )
    code = EXIT_PASS if cert["contained"] else EXIT_CHECK_FAILURE
    return report, code


def _parse_vector(ring, D, data):
    if isinstance(data, list):
        if len(data) != D.rank:
            raise ValueError("element vector length must equal the module rank")
        return [laurent_from_json(ring, x) for x in data]
    if D.rank != 1:
        raise ValueError("bare elements only make sense for rank-1 modules")
    return [laurent_from_json(ring, data)]


def cmd_roundtrip(cfg, args):
    ring = _ring_from_config(cfg)
    expect = args.expect_dim if args.expect_dim is not None else cfg.get("expect_dim", 1)
    res = roundtrip_V_of_D(ring, cfg["character"], expect_dim=int(expect))
    report = _base_report(cfg, args.seed)
    report.update(
        {
            "dimension": res["dimension"],
            "expected_dimension": res["expected_dimension"],
            "recovered_values": res["recovered_values"],
            "checks": res["checks"],
            "pass": res["pass"],
        }
    )
    return report, EXIT_PASS if res["pass"] else EXIT_CHECK_FAILURE


def cmd_apply_op(cfg, args):
    ring = _ring_from_config(cfg)
    word = parse_word(cfg["word"], ring)
    series = laurent_from_json(ring, cfg["series"])
    result = word.to_endo(ring).apply(series)
    report = _base_report(cfg, args.seed)
    report.update({"word": cfg["word"], "result": laurent_to_json(result)})
    return report, EXIT_PASS


COMMANDS = {
    "idempotents": cmd_idempotents,
    "check-module": cmd_check_module,
    "fixed-points": cmd_fixed_points,
    "dplusplus": cmd_dplusplus,
    "roundtrip": cmd_roundtrip,
    "apply-op": cmd_apply_op,
}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="phigamma",
        description="Exact computations with multivariable (phi, Gamma)-modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", help="write the JSON report to this path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--expect-dim", type=int, dest="expect_dim")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        print(json.dumps({"error": f"cannot read config: {exc}"}))
        return EXIT_INPUT_ERROR
    try:
        report, code = COMMANDS[args.command](cfg, args)
    except BudgetExceededError as exc:
        print(json.dumps({"error": str(exc), "budget_exceeded": True}))
        return EXIT_BUDGET_EXCEEDED
    except SubwindowError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_INPUT_ERROR
    except (
        KeyError,
        IndexError,
        TypeError,
        ValueError,
        OverflowError,
        PrecisionError,
        NotImplementedError,
        NotInvertibleError,
        UndecidedError,
    ) as exc:
        # configs the library refuses or cannot decide are input errors, not
        # check failures
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return EXIT_INPUT_ERROR
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())

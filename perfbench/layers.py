"""Per-layer spans and counts, recorded by wrapping phigamma's functions
from outside the library.

Each layer is a group of functions and methods.  A wrapped call records a
count and a span; a layer's self time is the sum of its spans minus the
spans of wrapped calls nested inside them, so a layer that calls into
another layer is not charged for it.  Functions bound by name into other
phigamma modules (``from .coeff import algebra_from_json``) are replaced in
every module that holds them, so the same call is seen whichever module
makes it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# layer -> [(module, "name" or "Class.method")]
LAYERS = {
    "gfp": [("gfp", f) for f in ("rref", "nullspace", "solve", "inv_matrix", "rank")],
    "fields": [
        ("fields", f)
        for f in (
            "is_prime", "poly_normalize", "poly_add", "poly_sub", "poly_mul",
            "poly_scale", "poly_divmod", "poly_gcd", "poly_xgcd", "poly_pow_mod",
            "poly_eval", "is_irreducible", "find_irreducible",
            "distinct_degree_factor", "equal_degree_factor", "factor_squarefree",
        )
    ],
    "coeff.algebra": [("coeff", "CoefficientAlgebra.__init__")],
    "coeff.fd_mul": [
        ("coeff", "CoefficientAlgebra.fd_mul"),
        ("coeff", "CoefficientAlgebra.fd_mul_matrix"),
    ],
    "coeff.fd_inv": [("coeff", "CoefficientAlgebra.fd_inv")],
    "coeff.idempotents": [("coeff", "CoefficientAlgebra._compute_idempotents")],
    "coeff.element": [
        ("coeff", "CoeffElement." + m)
        for m in (
            "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
            "__pow__", "__eq__", "frobenius", "frobenius_s", "idem_component",
            "unit_verdict", "try_invert", "invert",
        )
    ],
    "series.mul": [
        ("series", "LaurentElement." + m) for m in ("__mul__", "__rmul__", "scale")
    ],
    "series.add": [
        ("series", "LaurentElement." + m)
        for m in ("__add__", "__radd__", "__sub__", "__neg__")
    ],
    "series.invert": [
        ("series", "LaurentElement." + m) for m in ("invert", "unit_verdict")
    ],
    "endos.apply": [("endos", "RingEndo.apply")],
    "endos.compose": [("endos", "RingEndo.compose")],
    "modules.checks": [("modules", f) for f in ("check_etale", "check_relations")],
    "modules.lattice": [
        ("modules", f)
        for f in (
            "Lattice.__init__", "Lattice.membership", "Lattice.scaled",
            "phi_s_denominator", "dplusplus_certified_lattice", "in_dplus",
            "in_dplusplus",
        )
    ],
    "descent.solver": [("descent", "solve_fixed_points")],
    "descent.extensions": [
        ("descent", f)
        for f in (
            "build_artin_schreier", "build_kummer", "FiniteExtension.relation_check",
            "ExtensionTower.mul", "ExtensionTower.apply_phi",
            "ExtensionTower.apply_galois", "ExtensionTower.galois_invariants_report",
        )
    ],
    "descent.functor": [
        ("descent", f)
        for f in (
            "parse_character", "character_tower", "functor_D_rank1",
            "roundtrip_V_of_D", "tensor_rank_one",
        )
    ],
    # the JSON interchange layer: reading and writing configs and reports
    "cli.json": [
        ("cli", "_emit"),
        ("coeff", "algebra_from_json"),
        ("coeff", "element_from_json"),
        ("coeff", "element_to_json"),
        ("series", "laurent_from_json"),
        ("series", "laurent_to_json"),
        ("modules", "module_from_json"),
    ],
}

# counted, not timed: one count per LaurentElement built
COUNT_ONLY = {"series.built": ("series", "LaurentElement.__init__")}

# the layer names reported as "<layer>.calls"
CALL_COUNTS = (
    "gfp", "fields", "coeff.algebra", "coeff.fd_mul", "coeff.fd_inv",
    "coeff.element", "series.mul", "series.add", "series.invert",
    "endos.apply", "endos.compose", "descent.solver",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter()
        self._open = Counter()  # layer -> spans of it currently open
        self._children = []  # nested span time, one accumulator per open span
        self._restore = []

    # -- recording -----------------------------------------------------

    def _wrap(self, layer, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(layer, args)
            stack = tracer._children
            stack.append(0.0)
            tracer._open[layer] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._open[layer] -= 1
                tracer.self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enter(self, layer, args):
        self.calls[layer] += 1
        if layer == "gfp" and hasattr(args[0], "shape") and len(args[0].shape) == 2:
            self.extra["gfp.cells"] += int(args[0].shape[0]) * int(args[0].shape[1])
        elif layer == "coeff.fd_mul" and self._open["coeff.idempotents"]:
            self.extra["idempotent_fd_mul"] += 1

    def _on_idempotents(self, dec):
        self.extra["components"] += len(dec.idempotents)

    # -- installing ----------------------------------------------------

    def install(self):
        for modname in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(f"phigamma.{modname}")
        modules = [
            m for name, m in sys.modules.items()
            if (name == "phigamma" or name.startswith("phigamma."))
            and isinstance(m, types.ModuleType)
        ]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                after = self._on_idempotents if layer == "coeff.idempotents" else None
                self._replace(modules, modname, attr,
                              lambda fn, layer=layer, after=after: self._wrap(layer, fn, after))
        for layer, (modname, attr) in COUNT_ONLY.items():
            self._replace(modules, modname, attr,
                          lambda fn, layer=layer: self._count(layer, fn))
        # json.load / json.dumps as the cli module sees them
        cli = sys.modules["phigamma.cli"]
        proxy = types.SimpleNamespace(
            load=self._wrap("cli.json", json.load),
            dumps=self._wrap("cli.json", json.dumps),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._restore.append((cli, "json", cli.json))
        cli.json = proxy

    def _replace(self, modules, modname, attr, make):
        mod = sys.modules[f"phigamma.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for m in modules:
            if m.__dict__.get(attr) is original:
                self._restore.append((m, attr, original))
                setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics per round (one pass over the problem set)."""
        out = {}
        for layer in CALL_COUNTS:
            out[f"{layer}.calls"] = (self.calls[layer] / rounds, "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / rounds, "s")
        out["gfp.cells"] = (self.extra["gfp.cells"] / rounds, "count")
        out["series.built"] = (self.calls["series.built"] / rounds, "count")
        # fd_mul calls made while splitting, per component the split found
        out["coeff.fd_mul.per_component"] = (
            self.extra["idempotent_fd_mul"] / max(1, self.extra["components"]),
            "ratio",
        )
        return out

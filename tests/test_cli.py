import contextlib
import copy
import io
import json
import math
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from phigamma import cli, modules
from phigamma.coeff import MAX_FINITE_DIM
from phigamma.fields import find_irreducible


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_idempotents_report(capsys):
    code, rep = run(capsys, "idempotents", "--config",
                    str(DATA / "idempotents_p2_n22.json"))
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["ell"] == 2
    assert rep["transitive"] is True
    assert len(rep["config_hash"]) == 16
    assert "library_version" in rep


def test_idempotents_p3(capsys):
    code, rep = run(capsys, "idempotents", "--config",
                    str(DATA / "idempotents_p3_n23.json"))
    assert code == 0
    assert rep["ell"] == 1
    assert rep["component_degrees"] == [6]


@pytest.mark.parametrize("name", [
    "module_trivial_p2.json",
    "module_cyclotomic_p2.json",
    "module_cyclotomic_p3.json",
])
def test_check_module_pass(capsys, name):
    code, rep = run(capsys, "check-module", "--config", str(DATA / name))
    assert code == 0
    assert rep["pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert names == ["etale", "relations"]


def test_check_module_corrupted_fails(capsys):
    code, rep = run(capsys, "check-module", "--config",
                    str(DATA / "module_corrupted_p2.json"))
    assert code == 1
    assert rep["pass"] is False


def test_fixed_points(capsys):
    code, rep = run(capsys, "fixed-points", "--config",
                    str(DATA / "fixed_points_p2_n22.json"))
    assert code == 0
    assert rep["dimension"] == 1
    assert rep["pass"] is True


def test_fixed_points_wrong_expectation(capsys):
    code, rep = run(capsys, "fixed-points", "--config",
                    str(DATA / "fixed_points_p2_n22.json"),
                    "--expect-dim", "7")
    assert code == 1
    assert rep["pass"] is False


def test_fixed_points_quotient(capsys):
    code, rep = run(capsys, "fixed-points", "--config",
                    str(DATA / "fixed_points_quotient_p2.json"))
    assert code == 0
    assert rep["dimension"] == 4


def basis_monomials(rep):
    """The monomials of a fixed-point report's basis, one per term."""
    return {
        tuple(sorted(term["exps"].items()))
        for vec in rep["basis"] for x in vec for term in x["terms"]
    }


def test_fixed_points_quotient_of_a_module(capsys):
    # phi_b = X_b^-1 modulo X_a^2: the module's fixed monomials, not the
    # ring's {1, X_a}
    code, rep = run(capsys, "fixed-points", "--config",
                    str(DATA / "fixed_points_quotient_module_p2.json"))
    assert code == 0 and rep["dimension"] == 4
    assert basis_monomials(rep) == {(("X_b", 1),), (("X_a", 1), ("X_b", 1))}


def test_fixed_points_quotient_honours_subwindow(tmp_path, capsys):
    path = tmp_path / "fp.json"
    cfg = json.loads((DATA / "fixed_points_quotient_module_p2.json").read_text())
    # W'_b = 1 puts X_b on the boundary, W'_b = 0 leaves it out of the box
    for sub, unconfirmed in (([4, 1], 4), ([4, 0], 0)):
        path.write_text(json.dumps({**cfg, "subwindow": sub}))
        code, rep = run(capsys, "fixed-points", "--config", str(path))
        assert code == 1
        assert (rep["dimension"], rep["unconfirmed"]) == (0, unconfirmed)
    path.write_text(json.dumps({**cfg, "subwindow": [4, 5]}))
    code, rep = run(capsys, "fixed-points", "--config", str(path))
    assert code == 2 and rep["error"] == "p*W' > W in direction X_b"


def test_fixed_points_quotient_refuses_its_own_phi(tmp_path, capsys):
    cfg = json.loads((DATA / "fixed_points_quotient_p2.json").read_text())
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({**cfg, "operators": ["a", "b"]}))
    code, rep = run(capsys, "fixed-points", "--config", str(path))
    assert code == 2
    assert "cannot include phi of the quotient variable" in rep["error"]


def test_dplusplus_battery(capsys):
    code, rep = run(capsys, "dplusplus", "--config",
                    str(DATA / "dplusplus_trivial_p2.json"))
    assert code == 0
    assert rep["r"] == 0
    assert rep["k"] == 2
    verdicts = [(m["dplusplus"], m["dplus"]) for m in rep["memberships"]]
    assert verdicts == [
        ("yes_certified", "yes_certified"),
        ("no_certified", "yes_certified"),
        ("no_certified", "yes_certified"),
        ("no_certified", "no_certified"),
    ]


def test_roundtrip_cli(capsys):
    code, rep = run(capsys, "roundtrip", "--config",
                    str(DATA / "character_p3_order2.json"))
    assert code == 0
    assert rep["pass"] is True
    assert rep["recovered_values"]["a"] == 2


def test_roundtrip_at_p10007_within_two_seconds(tmp_path, capsys):
    # character_p3_pair.json at p = 10007: default moduli, both values -1
    # (of order 2) and precision [p, p]; this is the shipped
    # character_p10007_pair.json
    p = 10007
    cfg = json.loads((DATA / "character_p3_pair.json").read_text())
    cfg["algebra"]["p"] = p
    for factor in cfg["algebra"]["factors"]:
        del factor["modulus"]
    for entry in cfg["character"]["gamma_values"]:
        entry["value"] = p - 1
    cfg["precision"] = [p, p]
    assert cfg == json.loads((DATA / "character_p10007_pair.json").read_text())
    path = tmp_path / "character.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code, rep = run(capsys, "roundtrip", "--config", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert rep["pass"] is True
    assert rep["dimension"] == 1
    assert rep["recovered_values"] == {"a": p - 1, "b": p - 1}


def test_roundtrip_budget_exceeded(capsys):
    code, rep = run(capsys, "roundtrip", "--config",
                    str(DATA / "character_p3_delta_unsupported.json"))
    assert code == 3
    assert rep["budget_exceeded"] is True


def test_apply_op(capsys):
    code, rep = run(capsys, "apply-op", "--config",
                    str(DATA / "apply_op_example.json"))
    assert code == 0
    assert rep["word"].startswith("phi(a)")
    # phi(a)^2 gamma(a; 3) applied to X_a over F_2: X_a^4 + X_a^8
    exps = sorted(t["exps"].get("X_a", 0) for t in rep["result"]["terms"])
    assert exps == [4, 8]


def test_apply_op_caret_and_refused_parameters(tmp_path, capsys):
    cfg = json.loads((DATA / "apply_op_example.json").read_text())
    path = tmp_path / "op.json"
    cfg["word"] = "gamma(a; 1+p^2)"
    path.write_text(json.dumps(cfg))
    code, rep = run(capsys, "apply-op", "--config", str(path))
    assert code == 0
    # over F_2, c = 5: (1+X_a)^5 - 1 = X_a + X_a^4 + X_a^5 on the window
    exps = sorted(t["exps"].get("X_a", 0) for t in rep["result"]["terms"])
    assert exps == [1, 4, 5]
    for bad in ["gamma(a; p**2)", "gamma(a; 9^9^9)"]:
        cfg["word"] = bad
        path.write_text(json.dumps(cfg))
        code, rep = run(capsys, "apply-op", "--config", str(path))
        assert code == 2
        assert rep["error"].startswith("ValueError: bad numeric expression")


def test_missing_config_is_input_error(capsys):
    code, rep = run(capsys, "idempotents", "--config", "/no/such/file.json")
    assert code == 2
    assert "error" in rep


def test_malformed_config_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, rep = run(capsys, "check-module", "--config", str(bad))
    assert code == 2
    assert "error" in rep


@pytest.mark.parametrize("p", [1, 4])
def test_non_prime_p_is_input_error(tmp_path, capsys, p):
    # the default modulus is searched for before the spec checks p
    cfg = json.loads((DATA / "idempotents_p2_n22.json").read_text())
    cfg["p"] = p
    path = tmp_path / "bad_p.json"
    path.write_text(json.dumps(cfg))
    code, rep = run(capsys, "idempotents", "--config", str(path))
    assert code == 2
    assert rep["error"] == f"ValueError: p = {p} is not prime"


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["idempotents", "--config",
                     str(DATA / "idempotents_p2_n22.json"),
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ell"] == 2


def test_non_monomial_phi_scalar_is_input_error(tmp_path, capsys):
    # the slot solver refuses phi = 1 + X_a with NotImplementedError
    cfg = json.loads((DATA / "module_trivial_p2.json").read_text())
    terms = cfg["module"]["phi"]["a"][0]["terms"]
    terms.append(dict(copy.deepcopy(terms[0]), exps={"X_a": 1}))
    cfg.update(window=8, subwindow=4)
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(cfg))
    code, rep = run(capsys, "fixed-points", "--config", str(path))
    assert code == 2
    assert rep["error"].startswith("NotImplementedError: ")


def test_unknown_label_is_input_error(tmp_path, capsys):
    cfg = json.loads((DATA / "fixed_points_p2_n22.json").read_text())
    cfg["operators"] = ["z"]
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(cfg))
    code, rep = run(capsys, "fixed-points", "--config", str(path))
    assert code == 2
    assert rep["error"] == "ValueError: unknown label 'z'; labels are a, b"


# ---------------------------------------------------------------------------
# bounded sizes


ONE = {"pole_bound": 0, "terms": [{"exps": {}, "coeff": {
    "denominator": [], "numerator": [{"fdelta_coeff": [1], "monomial": {}}]}}]}


def gamma_delta_config(chi, digits):
    """p = 5, one factor with a transcendental, a gamma and a delta on it."""
    return {
        "algebra": {"p": 5, "factors": [{"label": "a", "n": 1, "d": 1}]},
        "precision": 8,
        "module": {
            "rank": 1,
            "phi": {"a": [ONE]},
            "gamma": [{"alpha": "a", "chi": chi, "digits": digits, "matrix": [ONE]}],
            "delta": [{"alpha": "a", "b": [1], "digits": digits, "matrix": [ONE]}],
        },
    }


def fixed_points_config(**sizes):
    """p = 2, two factors with one transcendental each."""
    factors = [{"label": lbl, "n": 1, "d": 1} for lbl in "ab"]
    return {"algebra": {"p": 2, "factors": factors}, "precision": 8, **sizes}


def run_config(command, cfg):
    """(exit code, stdout, seconds) of one CLI run on ``cfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", str(path)])
        return code, buf.getvalue(), time.perf_counter() - start


def test_semidirect_relation_with_large_chi(monkeypatch):
    # chi = 97,656 = (5^8 - 1)/4: delta^chi by square-and-multiply, so the
    # matrix products number O(log chi), not chi
    calls = []
    mat_mul = modules.mat_mul
    monkeypatch.setattr(modules, "mat_mul", lambda A, B: calls.append(1) or mat_mul(A, B))
    code, out, _ = run_config("check-module", gamma_delta_config(97656, 8))
    assert code == 0 and 0 < len(calls) < 200
    (relations,) = [c for c in json.loads(out)["checks"] if c["name"] == "relations"]
    statuses = {r["relation"]: r["status"] for r in relations["checks"]}
    assert statuses["gamma#0 delta#0 gamma#0^-1 = delta#0^chi"] == "pass"
    assert set(statuses.values()) == {"pass"}


@pytest.mark.parametrize("command,cfg,message", [
    ("fixed-points", fixed_points_config(t_cap=-1), "t_cap must be"),
    ("fixed-points", fixed_points_config(window=2000, subwindow=1000), "slots"),
    ("check-module", gamma_delta_config(2, 10**6), "digits must lie in 1..64"),
    # past the 2^53 exactness bound: refused before any table is built
    ("idempotents", {"p": 100000007, "factors": [{"n": 2, "label": "a"}]}, "2^53"),
])
def test_out_of_range_sizes_are_input_errors(command, cfg, message):
    code, out, seconds = run_config(command, cfg)
    # refused before any work: the loose bound only separates that from
    # building the box or the power
    assert code == 2 and seconds < 30
    assert message in json.loads(out)["error"]


def test_huge_t_cap_without_transcendentals_changes_nothing():
    cfg = json.loads((DATA / "fixed_points_p2_n22.json").read_text())
    reports = []
    for t_cap in (0, 10**9):
        code, out, seconds = run_config("fixed-points", {**cfg, "t_cap": t_cap})
        assert code == 0 and seconds < 30
        reports.append(json.loads(out))
        del reports[-1]["config_hash"]
    assert reports[0]["dimension"] == 1 and reports[0] == reports[1]


def test_empty_quotient_box_still_bounds_t_cap():
    cfg = fixed_points_config(quotient={"alpha": "a", "r": 0}, t_cap=10**9)
    code, out, seconds = run_config("fixed-points", cfg)
    assert code == 2 and seconds < 30
    assert "slots" in json.loads(out)["error"]


def test_unreadable_numbers_are_input_errors(tmp_path, capsys):
    # an int past Python's 4300-digit conversion limit, and digits = Infinity
    text = json.dumps(gamma_delta_config(7, 8))
    path = tmp_path / "cfg.json"
    for bad in (text.replace('"chi": 7', '"chi": ' + "9" * 5000),
                text.replace('"digits": 8', '"digits": Infinity')):
        path.write_text(bad)
        code, rep = run(capsys, "check-module", "--config", str(path))
        assert code == 2 and "error" in rep


SIZES = st.one_of(
    st.integers(-3, 40), st.integers(-10**30, 10**30), st.booleans(), st.none(),
    st.floats(), st.text(max_size=2), st.lists(st.integers(-2, 40), max_size=3),
)


@settings(max_examples=30, deadline=None)
@given(t_cap=SIZES, window=SIZES, subwindow=SIZES)
def test_fixed_points_sizes_fuzz(t_cap, window, subwindow):
    cfg = fixed_points_config(t_cap=t_cap, window=window, subwindow=subwindow)
    code, out, seconds = run_config("fixed-points", cfg)
    assert code in (0, 1, 2, 3) and seconds < 30
    json.loads(out)


@settings(max_examples=30, deadline=None)
@given(chi=SIZES, digits=SIZES)
def test_check_module_sizes_fuzz(chi, digits):
    code, out, seconds = run_config("check-module", gamma_delta_config(chi, digits))
    assert code in (0, 1, 2, 3) and seconds < 30
    json.loads(out)


# ---------------------------------------------------------------------------
# apply-op: exponents past int64, and a fuzz test over words and precisions


def test_apply_op_exponents_past_int64_are_refused():
    # over p = 2, phi(a)^k sends X_a to X_a^(2^k): 2^62 is the largest
    # exponent kept, and every larger one is refused instead of wrapping
    cfg = json.loads((DATA / "apply_op_example.json").read_text())
    code, out, _ = run_config("apply-op", {**cfg, "word": "phi(a)^62"})
    assert code == 0
    (term,) = json.loads(out)["result"]["terms"]
    assert term["exps"] == {"X_a": 2**62}
    for k in (63, 64, 1000):
        code, out, _ = run_config("apply-op", {**cfg, "word": f"phi(a)^{k}"})
        assert code == 2
        assert json.loads(out)["error"] == (
            "ValueError: exponent out of range: exponents must lie in [-2^62, 2^62]"
        )


def fuzz_series():
    """t_a X_a + X_b^2 + 3 X_a^2 X_b over a factor with a transcendental."""
    def term(exps, coeff, mono):
        return {"exps": exps, "coeff": {"denominator": [], "numerator": [
            {"fdelta_coeff": [coeff], "monomial": mono}]}}
    return {"pole_bound": 0, "window": {"X_a": None, "X_b": None}, "terms": [
        term({"X_a": 1}, 1, {"t_a_1": 1}), term({"X_b": 2}, 1, {}),
        term({"X_a": 2, "X_b": 1}, 3, {}),
    ]}


# the numeric-parameter grammar: digits, p, + - * (binary and unary),
# parentheses and ^ with a literal exponent
EXPRS = st.recursive(
    st.one_of(st.integers(0, 200).map(str), st.just("p")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
        inner.map(lambda x: f"-{x}"),
        inner.map(lambda x: f"({x})"),
        st.tuples(inner, st.integers(0, 6)).map(lambda xk: f"({xk[0]})^{xk[1]}"),
    ),
    max_leaves=6,
)
FACTORS = st.one_of(
    st.tuples(st.sampled_from("ab"), st.integers(0, 200)).map(
        lambda lk: f"phi({lk[0]})^{lk[1]}"),
    st.tuples(st.sampled_from("ab"), EXPRS, st.integers(-2, 2)).map(
        lambda lek: f"gamma({lek[0]}; {lek[1]})^{lek[2]}"),
    st.tuples(EXPRS, st.integers(-2, 2)).map(lambda ek: f"delta(a; {ek[0]})^{ek[1]}"),
)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), precision=st.integers(1, 32),
       factors=st.lists(FACTORS, min_size=1, max_size=3))
def test_apply_op_fuzz(p, precision, factors):
    cfg = {
        "algebra": {"p": p, "factors": [{"label": "a", "n": 1, "d": 1},
                                        {"label": "b", "n": 1, "d": 0}]},
        "precision": precision,
        "word": " * ".join(factors),
        "series": fuzz_series(),
    }
    code, out, seconds = run_config("apply-op", cfg)
    assert code in (0, 1, 2, 3) and seconds < 30
    assert "Traceback" not in out
    json.loads(out)


# idempotents: the size of the finite part is bounded at input


@st.composite
def idempotents_configs(draw):
    """p, degrees and moduli: valid irreducibles, arbitrary coefficient
    lists, or none (the default modulus); odd degrees and p now and then,
    and five GF(2^4) factors (N = 1024) among the sizes.  A legal degree is
    at most 8: the default-modulus search takes seconds from degree 32 on."""
    p = draw(st.sampled_from([2, 3, 5, 7, 4]))
    degs = draw(st.one_of(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),  # N <= 256
        st.lists(st.integers(1, 8), min_size=1, max_size=5),
        st.just([4] * 5),
        st.lists(st.sampled_from([0, -1, 257, 300, 2.5, "2", None]), min_size=1,
                 max_size=3),
    ))
    factors = []
    for i, n in enumerate(degs):
        factor = {"n": n, "label": "abcde"[i]}
        kind = draw(st.sampled_from(["default", "irreducible", "any"]))
        if kind == "irreducible" and n in range(1, 9) and p != 4:
            factor["modulus"] = find_irreducible(p, n, random.Random(draw(st.integers(0, 99))))
        elif kind == "any":
            factor["modulus"] = draw(st.lists(st.integers(-3, 9), min_size=1, max_size=10))
        factors.append(factor)
    return {"p": p, "factors": factors}


@settings(max_examples=40, deadline=None)
@given(cfg=idempotents_configs())
def test_idempotents_sizes_fuzz(cfg):
    degs = [f["n"] for f in cfg["factors"]]
    oversized = all(type(n) is int and n >= 1 for n in degs) and math.prod(degs) > MAX_FINITE_DIM
    if oversized:
        # refused before any modulus is sought or any table is built
        tracemalloc.start()
        try:
            code, out, seconds = run_config("idempotents", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert f"exceeds {MAX_FINITE_DIM}" in json.loads(out)["error"]
    else:
        code, out, seconds = run_config("idempotents", cfg)
    assert code in (0, 1, 2, 3) and seconds < 30
    assert "Traceback" not in out
    json.loads(out)

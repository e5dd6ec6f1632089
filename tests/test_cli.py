import copy
import json

import pytest

from conftest import DATA
from phigamma import cli


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


def test_check_module_parallel_matches_serial(capsys):
    cfg = str(DATA / "module_cyclotomic_p3.json")
    code1, rep1 = run(capsys, "check-module", "--config", cfg)
    code2, rep2 = run(capsys, "check-module", "--config", cfg, "--jobs", "4")
    assert (code1, rep1) == (code2, rep2)


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

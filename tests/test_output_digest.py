"""``scripts/output_digest.py`` on the split workload."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_canonical_form_ignores_dict_order_only():
    digest = output_digest.digest
    assert digest({"a": {(1, 2): [3], 4: 5}}) == digest({"a": {4: 5, (1, 2): [3]}})
    assert digest([1, 2]) != digest([2, 1])
    assert digest({"w": float("inf")}) != digest({"w": None})


def test_split_digest_sees_every_output(capsys):
    outputs = output_digest.outputs_of("split", 1)
    assert len(outputs) == 296 and not any(failed for failed, _ in outputs.values())
    first = output_digest.digest({1: outputs})
    assert output_digest.main(["--workload", "split", "--seed", "1"]) == 0
    assert capsys.readouterr().out.split() == [
        "split", "seeds=1", "outputs=296", "failed=0", first,
    ]
    # the problems' order does not count; one changed coefficient does
    assert output_digest.digest({1: dict(reversed(outputs.items()))}) == first
    _, plain = next(iter(outputs.values()))
    plain["idempotents"][0][0] += 1
    assert output_digest.digest({1: outputs}) != first


# every split output for seeds 1, 61 and 7, as the nullspace-based split
# gave them: any change to an idempotent, a degree, an orbit or a verdict
# moves this digest
SPLIT_DIGEST = "5188fe32594696b452ace14254d8bf443abf452f6fd4fd66ecbc8cbc3cf0203f"


def test_split_outputs_are_pinned():
    count, failed, digest = output_digest.workload_digest("split", [1, 61, 7])
    assert (count, failed, digest) == (888, 0, SPLIT_DIGEST)


# every pipeline output for seeds 1, 61 and 7, as the per-slot solver gave
# them: any change to a fixed-points basis or a roundtrip report moves it
PIPELINE_DIGEST = "dda55b18a9d4d1265960bb3d911d49c771c5b24636d3c3736a20da1e5a545382"


def test_pipeline_outputs_are_pinned():
    count, failed, digest = output_digest.workload_digest("pipeline", [1, 61, 7])
    assert (count, failed, digest) == (366, 0, PIPELINE_DIGEST)


# every operators output for seeds 1, 61 and 7, as the term-by-term unit
# analysis and inversion gave them: any change to a product, an inverse or
# an operator word moves it
OPERATORS_DIGEST = "712b776248a37e5007a4a47be0271c19fa37147555f28a1153d85ca86a71b7f5"


def test_operators_outputs_are_pinned():
    count, failed, digest = output_digest.workload_digest("operators", [1, 61, 7])
    assert (count, failed, digest) == (720, 0, OPERATORS_DIGEST)

"""The CLI's exit code and stdout on every data file match the record.

The record is ``tests/golden/cli_outputs.json``; ``scripts/record_golden.py``
rewrites it when a change of output is intended.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "record_golden", ROOT / "scripts" / "record_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_record():
    recorder = _recorder()
    expected = json.loads(recorder.RECORD.read_text())
    actual = recorder.run_all()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"CLI output differs from the record for {changed}"

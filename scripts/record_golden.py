"""Record the CLI's exit code and stdout for every command on every data file.

    PYTHONPATH=src python scripts/record_golden.py

Runs each subcommand of ``phigamma`` on each ``data/*.json`` config, in
process, and writes ``tests/golden/cli_outputs.json``: one entry per
"<command> <file name>" with the exit code and the exact stdout.
``tests/test_golden.py`` compares the current CLI against this record, so
rewrite it only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from phigamma import cli

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden" / "cli_outputs.json"


def run_all():
    """{"<command> <file name>": {"exit": code, "stdout": text}}."""
    out = {}
    for path in sorted((ROOT / "data").glob("*.json")):
        for command in cli.COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([command, "--config", str(path)])
            out[f"{command} {path.name}"] = {"exit": code, "stdout": buf.getvalue()}
    return out


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD.relative_to(ROOT)}")

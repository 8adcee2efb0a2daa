#!/usr/bin/env python3
"""Record the CLI's JSON reports on every bundled fixture as golden outputs.

Usage: golden_outputs.py [OUT]; OUT defaults to tests/golden_outputs.json.

Each case runs ``tvartop.cli.main`` in-process with ``--format json`` and
records the exit code, the stdout lines without the ``timing_ms`` line, and
stderr.  ``TVARTOP_SEED`` is unset so the shelling sweep uses its default.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tvartop.cli import main as cli_main

FIXTURES = ROOT / "src" / "tvartop" / "fixtures"
OUT = ROOT / "tests" / "golden_outputs.json"

FAN_COMMANDS = ("validate", "invariants", "chow", "pi1")
COMPLEX_COMMANDS = ("bouquet", "downgrade")
FAN_FIXTURES = ("fix_a2.json", "fix_cstar.json", "fix_cstar2.json", "fix_f2.json",
                "fix_p1p1.json", "fix_quadric.json", "fix_torsion.json")
COMPLEX_FIXTURES = ("fan_f2.json", "fan_p1p1.json", "fan_p2.json", "fix_chain.json")


def cases():
    """(command, fixture) pairs, fan commands first."""
    return ([(c, f) for f in FAN_FIXTURES for c in FAN_COMMANDS]
            + [(c, f) for f in COMPLEX_FIXTURES for c in COMPLEX_COMMANDS])


def case_id(command, fixture):
    return f"{command} {fixture}"


def run_case(command, fixture):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main([command, str(FIXTURES / fixture), "--format", "json"], out=out)
    stdout = [line for line in out.getvalue().splitlines()
              if not line.lstrip().startswith('"timing_ms":')]
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue()}


def collect():
    os.environ.pop("TVARTOP_SEED", None)
    return {case_id(c, f): run_case(c, f) for c, f in cases()}


def main(out=OUT):
    path = pathlib.Path(out)
    path.write_text(json.dumps(collect(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print("wrote", path)


if __name__ == "__main__":
    main(*sys.argv[1:2])

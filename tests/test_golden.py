"""CLI reports on every bundled fixture against the committed golden outputs.

Regenerate with ``python3 tools/golden_outputs.py`` only when an output is
meant to change.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "golden_outputs", ROOT / "tools" / "golden_outputs.py")
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)

GOLDEN = json.loads((ROOT / "tests" / "golden_outputs.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    ids = [golden_tool.case_id(c, f) for c, f in golden_tool.cases()]
    assert len(ids) == 36
    assert sorted(ids) == sorted(GOLDEN)


@pytest.mark.parametrize("command,fixture", golden_tool.cases(),
                         ids=[golden_tool.case_id(c, f) for c, f in golden_tool.cases()])
def test_cli_output_matches_golden(command, fixture, monkeypatch):
    monkeypatch.delenv("TVARTOP_SEED", raising=False)
    got = golden_tool.run_case(command, fixture)
    assert got == GOLDEN[golden_tool.case_id(command, fixture)]

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvartop import fixtures
from tvartop.cli import (
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_fan_document,
    serialize_fan_document,
)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def fixture_path(name):
    from importlib import resources

    return str(resources.files("tvartop.fixtures").joinpath(name))


def run_json(args):
    code, text = run_cli(args + ["--format", "json"])
    return code, json.loads(text) if text else None


# --- validate -------------------------------------------------------------

def test_validate_fixture_ok():
    code, report = run_json(["validate", fixture_path("fix_a2.json")])
    assert code == EXIT_OK
    assert report["results"]["valid"] is True


def test_validate_truncated_file(tmp_path):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"schema_version": "1", "lattice_rank"')
    code, _ = run_cli(["validate", str(bad)])
    assert code == EXIT_PARSE


def test_validate_closure_violation(tmp_path, fix_f2):
    from tvartop.divfan import DivisorialFan, pdiv_intersect

    members = list(fix_f2.pdivisors)
    inter_keys = set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            inter_keys.add(pdiv_intersect(members[i], members[j]).key)
    victim = next(d for d in members if d.key in inter_keys)
    smaller = DivisorialFan(fix_f2.curve, [d for d in members if d.key != victim.key])
    doc = serialize_fan_document(smaller)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(["validate", str(path)])
    assert code == EXIT_DOMAIN
    assert any("closure" in v for v in report["results"]["violations"])


# --- invariants -------------------------------------------------------------

def test_invariants_f2():
    code, report = run_json(["invariants", fixture_path("fix_f2.json")])
    assert code == EXIT_OK
    res = report["results"]
    assert res["class"] == "L^2 + 2L + 1"
    assert res["betti"] == [1, 2, 1]
    assert res["consistency"] == "PASS"
    assert res["resolution_class"] == "L^2 + 3L + 1"


def test_invariants_p1p1_text():
    code, text = run_cli(["invariants", fixture_path("fix_p1p1.json")])
    assert code == EXIT_OK
    assert "betti: 1, 2, 1" in text
    assert "consistency: PASS" in text


def test_invariants_incomplete_fan_exit_code():
    code, _ = run_cli(["invariants", fixture_path("fix_a2.json")])
    assert code == EXIT_DOMAIN


# --- chow ----------------------------------------------------------------------

def test_chow_p1p1():
    code, report = run_json(["chow", fixture_path("fix_p1p1.json")])
    assert code == EXIT_OK
    assert report["results"]["hilbert"] == [1, 2, 1, 0]
    assert report["results"]["shellable"] is True


def test_chow_f2():
    code, report = run_json(["chow", fixture_path("fix_f2.json")])
    assert code == EXIT_OK
    assert report["results"]["hilbert"] == [1, 3, 1, 0]


def test_chow_budget_exit(tmp_path):
    code, _ = run_cli(["chow", fixture_path("fix_f2.json"), "--max-degree", "9"])
    assert code == EXIT_BUDGET


def test_chow_negative_degree_is_parse_error(capsys):
    code, text = run_cli(["chow", fixture_path("fix_f2.json"), "--max-degree", "-1"])
    assert code == EXIT_PARSE and text == ""
    assert capsys.readouterr().err == "parse error: --max-degree must be nonnegative, got -1\n"


@pytest.mark.parametrize("args, message", [
    (["chow", "F2", "--max-degree", "x"], "argument --max-degree: invalid int value: 'x'"),
    (["chow", "F2", "--format", "yaml"], "argument --format: invalid choice: 'yaml'"),
    (["bogus", "x"], "argument command: invalid choice: 'bogus'"),
], ids=["max-degree", "format", "command"])
def test_command_line_error_is_one_parse_error_line(capsys, args, message):
    # argparse's wording of the allowed choices differs between Python versions
    args = [fixture_path("fix_f2.json") if a == "F2" else a for a in args]
    code, text = run_cli(args)
    assert code == EXIT_PARSE and text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"parse error: {message}")


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chow", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tvartop chow")


def test_chow_generator_cap_exit(tmp_path):
    # a long chain slice: 2 rays + 13 slice vertices + 2 generic = 17 generators
    from tvartop.divfan import (
        CurveData, DivisorialFan, PDivisor, closure_under_intersection, validate,
    )
    from tvartop.polyhedron import Cone, Polyhedron

    members = [
        PDivisor(Cone.from_generators(1, [(-1,)]),
                 {"p": Polyhedron.from_points_rays(1, [(0,)], [(-1,)]),
                  "q": Polyhedron.empty(1)}),
        PDivisor(Cone.from_generators(1, [(1,)]),
                 {"p": Polyhedron.from_points_rays(1, [(12,)], [(1,)]),
                  "q": Polyhedron.empty(1)}),
    ]
    for i in range(12):
        members.append(PDivisor(
            Cone.from_generators(1, []),
            {"p": Polyhedron.from_points_rays(1, [(i,), (i + 1,)], []),
             "q": Polyhedron.empty(1)}))
    fan = DivisorialFan(CurveData(0, ("p", "q")), closure_under_intersection(members))
    assert validate(fan).ok
    path = tmp_path / "big.json"
    path.write_text(json.dumps(serialize_fan_document(fan)))
    code, _ = run_cli(["chow", str(path)])
    assert code == EXIT_BUDGET


# --- pi1 --------------------------------------------------------------------------

def test_pi1_outputs():
    code, report = run_json(["pi1", fixture_path("fix_a2.json")])
    assert code == EXIT_OK and report["results"]["pi1"] == "trivial"
    code, report = run_json(["pi1", fixture_path("fix_cstar.json")])
    assert report["results"]["pi1"] == "Z"
    assert report["results"]["abelian"] == {"rank": 1, "torsion": []}
    code, report = run_json(["pi1", fixture_path("fix_torsion.json")])
    assert report["results"]["pi1"] == "Z/2"


def test_pi1_strict_flag():
    code, report = run_json(["pi1", fixture_path("fix_cstar.json"), "--strict-ND"])
    assert code == EXIT_OK and report["results"]["pi1"] == "Z"


# --- bouquet -------------------------------------------------------------------------

def test_bouquet_chain():
    code, report = run_json(["bouquet", fixture_path("fix_chain.json")])
    assert code == EXIT_OK
    res = report["results"]
    assert res["betti"] == [1, 2]
    assert res["components"] == 2
    assert res["f_vector"] == [2, 3]


def test_bouquet_p2():
    code, report = run_json(["bouquet", fixture_path("fan_p2.json")])
    assert report["results"]["betti"] == [1, 1, 1]


def test_bouquet_nonsimplicial_square(tmp_path):
    doc = {
        "schema_version": "1",
        "ambient_rank": 2,
        "cells": [{"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], "rays": []}],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(["bouquet", str(path)])
    assert code == EXIT_OK
    assert report["results"]["betti"] is None
    assert report["results"]["f_vector"] == [4, 4, 1]
    assert any("betti unavailable" in w for w in report["warnings"])


# --- downgrade ------------------------------------------------------------------------

def test_downgrade_reproduces_fixture_bytes():
    code, text = run_cli(["downgrade", fixture_path("fan_f2.json")])
    assert code == EXIT_OK
    assert text == fixtures.fixture_text("fix_f2.json")
    code, text = run_cli(["downgrade", fixture_path("fan_p1p1.json")])
    assert text == fixtures.fixture_text("fix_p1p1.json")


def test_downgrade_output_validates(tmp_path):
    code, text = run_cli(["downgrade", fixture_path("fan_f2.json")])
    path = tmp_path / "out.json"
    path.write_text(text)
    code, report = run_json(["validate", str(path)])
    assert code == EXIT_OK and report["results"]["valid"] is True


def test_downgrade_incomplete_fan(tmp_path):
    doc = {"schema_version": "1", "ambient_rank": 2,
           "cells": [{"rays": [[1, 0], [0, 1]]}]}
    path = tmp_path / "halffan.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["downgrade", str(path)])
    assert code == EXIT_DOMAIN


def test_downgrade_rank_one_complex_is_domain_error(capsys):
    code, text = run_cli(["downgrade", fixture_path("fix_chain.json")])
    assert code == EXIT_DOMAIN and text == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_search_budget_reaching_main_is_budget_exit(monkeypatch, capsys):
    from tvartop import cli
    from tvartop.errors import SearchBudgetExceeded

    def over_budget(t):
        raise SearchBudgetExceeded("12 maximal cells exceeds the backtracking cap of 9")

    monkeypatch.setattr(cli.divfan, "toric_downgrade", over_budget)
    code, out = run_cli(["downgrade", fixture_path("fan_f2.json")])
    assert code == EXIT_BUDGET and out == ""
    assert capsys.readouterr().err == (
        "budget exceeded: 12 maximal cells exceeds the backtracking cap of 9\n")


# --- malformed documents -------------------------------------------------------------

def _mutated_f2(tmp_path, mutate):
    doc = json.loads(fixtures.fixture_text("fix_f2.json"))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set(*keys, value):
    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set("curve", value=[]),
    _set("pdivisors", 0, "coefficients", value=[]),
    _set("pdivisors", value=5),
    _set("pdivisors", value={"tail": []}),
    _set("curve", "genus", value=True),
    _set("curve", "genus", value=False),
], ids=["curve-list", "coefficients-list", "pdivisors-int", "pdivisors-object",
        "genus-true", "genus-false"])
@pytest.mark.parametrize("command", ["validate", "invariants", "chow", "pi1"])
def test_malformed_fan_document_is_parse_error(tmp_path, capsys, mutate, command):
    code, text = run_cli([command, _mutated_f2(tmp_path, mutate)])
    assert code == EXIT_PARSE and text == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("rank,cells,bad", [
    (1, [{"vertices": [[0]], "rays": [[1], [-1]]}], 0),
    (2, [{"rays": [[1, 0], [0, 1]]}, {"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]]}], 1),
], ids=["line", "plane"])
@pytest.mark.parametrize("command", ["bouquet", "downgrade"])
def test_complex_cell_with_lineality_is_parse_error(tmp_path, capsys, command, rank, cells, bad):
    path = tmp_path / "lineality.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": rank, "cells": cells}))
    code, text = run_cli([command, str(path)])
    assert code == EXIT_PARSE and text == ""
    err = capsys.readouterr().err
    assert err == f"parse error: cells[{bad}]: recession cone must be pointed\n"


# --- rank cap ------------------------------------------------------------------------

_HUGE_FAN = {"schema_version": "1", "lattice_rank": 2000,
             "curve": {"genus": 0, "points": []},
             "pdivisors": [{"tail": [], "coefficients": {}}]}
_HUGE_COMPLEX = {"schema_version": "1", "ambient_rank": 2000, "cells": [{}]}


@pytest.mark.parametrize("command,doc,key", [
    *[(c, _HUGE_FAN, "lattice_rank") for c in ("validate", "invariants", "chow", "pi1")],
    *[(c, _HUGE_COMPLEX, "ambient_rank") for c in ("bouquet", "downgrade")],
])
def test_rank_above_cap_is_budget_exit(tmp_path, capsys, command, doc, key):
    from tvartop.io import RANK_CAP

    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli([command, str(path)])
    assert code == EXIT_BUDGET and text == ""
    assert capsys.readouterr().err == (
        f"budget exceeded: {key} 2000 exceeds the rank cap of {RANK_CAP}\n")


@pytest.mark.parametrize("command,doc", [
    ("validate", {**_HUGE_FAN, "lattice_rank": True, "pdivisors": [{"tail": [[1]]}]}),
    ("bouquet", {**_HUGE_COMPLEX, "ambient_rank": True,
                 "cells": [{"rays": [[1]]}, {"rays": [[-1]]}]}),
], ids=["fan", "complex"])
def test_boolean_rank_is_parse_error(tmp_path, capsys, command, doc):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli([command, str(path)])
    assert code == EXIT_PARSE and text == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


# --- fuzz ----------------------------------------------------------------------------

_FUZZ_COMMANDS = {
    **{name: ("validate", "invariants", "chow", "pi1")
       for name in ("fix_a2.json", "fix_cstar.json", "fix_cstar2.json",
                    "fix_f2.json", "fix_p1p1.json", "fix_torsion.json")},
    **{name: ("bouquet", "downgrade")
       for name in ("fan_f2.json", "fan_p1p1.json", "fan_p2.json", "fix_chain.json")},
}


def _node_paths(node, path=()):
    """Key paths to every node of a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _node_paths(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_FUZZ_COMMANDS)),
       value=st.sampled_from([None, [], {}, "x", 10**30, True]),
       data=st.data())
def test_mutated_small_fixtures_exit_cleanly(name, value, data):
    """One node of a small fixture replaced: every command that applies
    exits 0-3 with at most one stderr line, and nothing escapes main."""
    doc = json.loads(fixtures.fixture_text(name))
    doc = _replace(doc, data.draw(st.sampled_from(list(_node_paths(doc)))), value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _FUZZ_COMMANDS[name]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, path], out=io.StringIO())
            assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_PARSE, EXIT_BUDGET), (command, code)
            assert len(err.getvalue().splitlines()) <= 1, (command, err.getvalue())


# --- determinism -----------------------------------------------------------------------

def test_reports_deterministic():
    for args in (["invariants", fixture_path("fix_f2.json")],
                 ["chow", fixture_path("fix_p1p1.json")],
                 ["pi1", fixture_path("fix_torsion.json")],
                 ["bouquet", fixture_path("fix_chain.json")]):
        _, r1 = run_json(args)
        _, r2 = run_json(args)
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert r1 == r2


def test_round_trip_parse_serialize(fix_f2, fix_quadric):
    for fan in (fix_f2, fix_quadric):
        doc = serialize_fan_document(fan)
        again, _ = parse_fan_document(doc)
        assert sorted(d.key for d in again.pdivisors) == sorted(d.key for d in fan.pdivisors)
        assert again.curve == fan.curve


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tvartop.cli", "validate", fixture_path("fix_a2.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "valid: True" in proc.stdout


def test_unknown_point_label_is_parse_error(tmp_path):
    doc = {
        "schema_version": "1",
        "lattice_rank": 1,
        "curve": {"genus": 0, "points": ["a"]},
        "pdivisors": [{"tail": [[1]], "coefficients": {"b": "empty"}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["validate", str(path)])
    assert code == EXIT_PARSE

import importlib.util
import pathlib
from importlib import resources

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_fixtures_regenerate_byte_for_byte(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(tmp_path)
    bundled = {p.name: p.read_bytes()
               for p in resources.files("tvartop.fixtures").iterdir() if p.name.endswith(".json")}
    regenerated = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(bundled) == 11
    assert regenerated == bundled

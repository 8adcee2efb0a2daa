"""Bundled fixture documents (JSON) and loaders."""

import json
from importlib import resources

from ..io import parse_complex_document, parse_fan_document


def fixture_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def load_document(name: str):
    return json.loads(fixture_text(name))


def load_fan(name: str):
    fan, _ = parse_fan_document(load_document(name))
    return fan


def load_complex(name: str):
    return parse_complex_document(load_document(name))

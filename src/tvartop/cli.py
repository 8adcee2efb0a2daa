"""Command-line front end: load fan/complex files, run computations, report.

Documents are parsed by ``tvartop.io``.  Output is canonical (sorted keys,
reduced rationals) so identical inputs give byte-identical reports up to
the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import chow, complexes, divfan, invariants, pi1
from .errors import (
    BudgetExceeded,
    NotComplete,
    NotShellable,
    NotSimplicial,
    ParseError,
    SearchBudgetExceeded,
    TvartopError,
)
from .io import parse_complex_document, parse_fan_document, serialize_fan_document

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (ValueError, UnicodeDecodeError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _report(command, digest, results, warnings, started):
    return {
        "command": command,
        "input_digest": digest,
        "results": results,
        "warnings": list(warnings),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    out.write(f"# {report['command']}\n")
    for key in sorted(report["results"]):
        out.write(f"{key}: {_text_value(report['results'][key])}\n")
    for w in report["warnings"]:
        out.write(f"warning: {w}\n")


def _text_value(v):
    if isinstance(v, list):
        return ", ".join(str(x) for x in v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def cmd_validate(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, _ = parse_fan_document(doc)
    report = divfan.validate(fan)
    results = {
        "valid": report.ok,
        "members": len(fan.pdivisors),
        "violations": list(report.issues),
    }
    _emit(_report("validate", digest, results, [], started), args.format, out)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_invariants(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, _ = parse_fan_document(doc)
    cls = invariants.grothendieck_class(fan)
    res = invariants.grothendieck_class_resolution(fan)
    check = invariants.consistency_check(fan)
    results = {
        "class": str(cls),
        "class_pairs": cls.as_pairs(),
        "resolution_class": str(res),
        "resolution_class_pairs": res.as_pairs(),
        "betti": list(check.betti),
        "consistency": check.verdict(),
    }
    _emit(_report("invariants", digest, results, check.warnings, started),
          args.format, out)
    return EXIT_OK


def cmd_chow(args, out):
    started = time.perf_counter()
    if args.max_degree is not None and args.max_degree < 0:
        raise ParseError(f"--max-degree must be nonnegative, got {args.max_degree}")
    doc, digest = _load_json(args.path)
    fan, _ = parse_fan_document(doc)
    pres = chow.presentation(fan)
    dmax = args.max_degree if args.max_degree is not None else fan.ambient_rank + 2
    hilbert = chow.hilbert_function(pres, dmax)
    shell = chow.is_shellable_divfan(fan)
    results = {
        "generators": [g.name for g in pres.generators],
        "linear_relations": [list(row) for row in pres.linear_relations],
        "nonface_count": len(pres.nonface_sets),
        "nonfaces": [[pres.generators[i].name for i in nf] for nf in pres.nonface_sets],
        "hilbert": list(hilbert),
        "shellable": shell.ok,
        "shellability_issues": list(shell.reasons),
    }
    warnings = []
    if pres.nonsimplicial:
        warnings.append("hilbert unverified: the toroidal model is not simplicial ("
                        + ", ".join(pres.nonsimplicial) + ")")
    _emit(_report("chow", digest, results, warnings, started), args.format, out)
    return EXIT_OK


def cmd_pi1(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, flags = parse_fan_document(doc)
    attested = bool(flags.get("log_terminal", False))
    group = pi1.Pi1Description(
        pi1.group_NS(fan, strict=args.strict_nd),
        pi1.pi1_loc(fan),
        attested,
    )
    results = {
        "pi1": group.render(),
        "abelian": {"rank": group.abelian_part.free_rank,
                    "torsion": list(group.abelian_part.torsion)},
        "loc": {"kind": group.loc_part.kind, "rank": group.loc_part.rank},
        "log_terminal_attested": attested,
    }
    _emit(_report("pi1", digest, results, [], started), args.format, out)
    return EXIT_OK


def cmd_bouquet(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    t = parse_complex_document(doc)
    warnings = []
    results = {
        "f_vector": list(complexes.f_vector(t)),
        "h_numbers": list(complexes.h_vector(t)),
        "complete": complexes.is_complete(t),
        "simplicial": complexes.is_simplicial(t),
        "smooth": complexes.is_smooth(t),
        "components": len(complexes.bouquet_components(t)),
    }
    try:
        results["betti"] = list(invariants.bouquet_betti(t))
    except (NotComplete, NotSimplicial) as exc:
        results["betti"] = None
        warnings.append(f"betti unavailable: {exc}")
    try:
        shelling = complexes.find_shelling(t)
        results["shelling_order"] = list(shelling.order)
    except (NotShellable, SearchBudgetExceeded) as exc:
        results["shelling_order"] = None
        warnings.append(f"shelling unavailable: {exc}")
    _emit(_report("bouquet", digest, results, warnings, started), args.format, out)
    return EXIT_OK


def cmd_downgrade(args, out):
    doc, _ = _load_json(args.path)
    t = parse_complex_document(doc)
    fan = divfan.toric_downgrade(t)
    out.write(json.dumps(serialize_fan_document(fan), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command-line error as a ParseError, like a document error."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    parser = _ArgumentParser(
        prog="tvartop",
        description="Invariants of complexity-one torus varieties from divisorial fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("invariants", cmd_invariants)
    add("chow", cmd_chow,
        **{"--max-degree": dict(type=int, default=None, dest="max_degree")})
    add("pi1", cmd_pi1,
        **{"--strict-ND": dict(action="store_true", dest="strict_nd")})
    add("bouquet", cmd_bouquet)
    add("downgrade", cmd_downgrade)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TvartopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: their documents, their requests and expected outputs.

``documents(seed)`` returns every input document as bytes; the benchmark
writes them to a work directory and the program reads them from there.
``round(i)`` lists the requests of round i.  A request is a dict with the
CLI command, the document it reads, what its output must satisfy, and for
``downgrade`` in the stream the document its output becomes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import toricgen

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "tvartop" / "fixtures"
FAN_COMMANDS = ("validate", "invariants", "chow", "pi1")


def _dump(doc):
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _req(rid, cmd, doc, expect, produces=None):
    return {"id": rid, "cmd": cmd, "doc": doc, "expect": expect, "produces": produces}


def _top(rank):
    """Expectation for chow on a complete input of the given lattice rank."""
    return {"top_degree": rank + 1, "defect": "chow-top-degree-zero"}


class Quadric:
    """invariants, chow and pi1 on fix_quadric.json, each in a fresh worker.

    The input is the bundled fixture; the seed changes nothing.
    """

    name = "quadric"
    warm = False
    trace_rounds = 1

    def documents(self, seed):
        return {"quadric.json": (FIXTURES / "fix_quadric.json").read_bytes()}

    def round(self, i):
        return [
            _req("quadric/invariants", "invariants", "quadric.json",
                 {"results": {"betti": [1, 1, 2, 1, 1]}}),
            _req("quadric/chow", "chow", "quadric.json", _top(3)),
            _req("quadric/pi1", "pi1", "quadric.json", {"results": {"pi1": "trivial"}}),
        ]


class ToricStream:
    """Distinct seeded smooth complete rank-3 fans, every request cold.

    Each fan gets bouquet and downgrade on its complex document, then the
    four fan commands on the fan document that downgrade printed.  A round
    is four fans, two from each start fan: the fans' costs differ by up to a factor
    of two (P^3-based ones cost a quarter less), so one run's throughput
    needs several of each, and a round longer than the gate's run length
    makes every run hold the same mix whatever the machine's speed.
    """

    name = "toric-stream"
    warm = False
    trace_rounds = 1
    pool = 48
    fans_per_round = 4

    def __init__(self):
        self._h = {}

    def documents(self, seed):
        docs = {}
        for k, (text, h) in enumerate(toricgen.stream(seed, self.pool)):
            docs[f"fan{k:02d}.json"] = text
            self._h[k] = h
        return docs

    def round(self, i):
        out = []
        for j in range(self.fans_per_round):
            k = (i * self.fans_per_round + j) % self.pool
            h = self._h[k]
            src, fan, rid = f"fan{k:02d}.json", f"fan{k:02d}.down.json", f"fan{k:02d}"
            out += [
                _req(f"{rid}/bouquet", "bouquet", src, {"results": {
                    "betti": h, "complete": True, "simplicial": True, "smooth": True}}),
                _req(f"{rid}/downgrade", "downgrade", src, {"lattice_rank": 2}, produces=fan),
                _req(f"{rid}/validate", "validate", fan, {"results": {"valid": True}}),
                _req(f"{rid}/invariants", "invariants", fan,
                     {"results": {"betti": h, "consistency": "PASS"}}),
                _req(f"{rid}/chow", "chow", fan, _top(2)),
                _req(f"{rid}/pi1", "pi1", fan, {"results": {"pi1": "trivial"}}),
            ]
        return out


# Expected values for the bundled fixtures, as pinned in README.md and the
# acceptance tests.  Fans whose tail fan is not complete may refuse
# `invariants` with exit 1.
_FAN_FIXTURES = {
    "fix_a2": {"pi1": "trivial", "class": "L^2"},
    "fix_cstar": {"pi1": "Z"},
    "fix_cstar2": {"pi1": "Z x Z"},
    "fix_torsion": {"pi1": "Z/2"},
    "fix_f2": {"pi1": "trivial", "class": "L^2 + 2L + 1", "betti": [1, 2, 1],
               "hilbert": [1, 3, 1, 0], "rank": 1},
    "fix_p1p1": {"pi1": "trivial", "class": "L^2 + 2L + 1", "betti": [1, 2, 1],
                 "hilbert": [1, 2, 1, 0], "rank": 1},
}
_COMPLEX_FIXTURES = {
    "fan_f2": {"betti": [1, 2, 1], "same_as": "fix_f2"},
    "fan_p1p1": {"betti": [1, 2, 1], "same_as": "fix_p1p1"},
    "fan_p2": {"betti": [1, 1, 1]},
}
# Documents that make the CLI raise today; each must end in exit 1 or 2
# with one stderr line.
_DEFECT_DOCS = {
    "bad_curve_list": ("traceback-curve-list", "AttributeError"),
    "bad_coefficients_list": ("traceback-coefficients-list", "AttributeError"),
}
_ERROR = {"error": True, "allow_exit": (1, 2)}


class Session:
    """Every applicable command on every small fixture, in one warm worker."""

    name = "session"
    warm = True
    trace_rounds = 3

    def __init__(self):
        self._seed = 0
        self._requests = self._plan()

    def documents(self, seed):
        self._seed = seed
        docs = {f"{n}.json": (FIXTURES / f"{n}.json").read_bytes()
                for n in [*_FAN_FIXTURES, *_COMPLEX_FIXTURES, "fix_chain"]}
        bad = json.loads((FIXTURES / "fix_f2.json").read_bytes())
        bad["curve"] = []
        docs["bad_curve_list.json"] = _dump(bad)
        bad = json.loads((FIXTURES / "fix_f2.json").read_bytes())
        bad["pdivisors"][0]["coefficients"] = []
        docs["bad_coefficients_list.json"] = _dump(bad)
        return docs

    def _plan(self):
        out = []
        for name, want in _FAN_FIXTURES.items():
            doc = f"{name}.json"
            out.append(_req(f"{name}/validate", "validate", doc, {"results": {"valid": True}}))
            if "betti" in want:
                inv = {"results": {"class": want["class"], "betti": want["betti"],
                                   "consistency": "PASS"}}
                chow = {"results": {"hilbert": want["hilbert"]}, **_top(want["rank"])}
            else:
                inv = {"allow_exit": (1,), "results": {"class": want["class"]} if "class" in want else {}}
                chow = {}
            out.append(_req(f"{name}/invariants", "invariants", doc, inv))
            out.append(_req(f"{name}/chow", "chow", doc, chow))
            out.append(_req(f"{name}/pi1", "pi1", doc, {"results": {"pi1": want["pi1"]}}))
        for name, want in _COMPLEX_FIXTURES.items():
            doc = f"{name}.json"
            out.append(_req(f"{name}/bouquet", "bouquet", doc, {"results": {
                "betti": want["betti"], "complete": True, "simplicial": True, "smooth": True}}))
            down = {"lattice_rank": 1}
            if "same_as" in want:
                fixture = json.loads((FIXTURES / f"{want['same_as']}.json").read_bytes())
                down["same_as"] = json.dumps(fixture, sort_keys=True)
            out.append(_req(f"{name}/downgrade", "downgrade", doc, down))
        out.append(_req("fix_chain/bouquet", "bouquet", "fix_chain.json",
                        {"results": {"betti": [1, 2], "complete": True}}))
        out.append(_req("fix_chain/downgrade", "downgrade", "fix_chain.json",
                        {**_ERROR, "defect": "traceback-downgrade-rank-1", "raises": "ValueError"}))
        for name, (defect, raises) in _DEFECT_DOCS.items():
            for cmd in FAN_COMMANDS:
                out.append(_req(f"{name}/{cmd}", cmd, f"{name}.json",
                                {**_ERROR, "defect": defect, "raises": raises}))
        return out

    def round(self, i):
        reqs = list(self._requests)
        random.Random(self._seed * 100003 + i).shuffle(reqs)
        return reqs


WORKLOADS = {w.name: w for w in (Quadric, ToricStream, Session)}

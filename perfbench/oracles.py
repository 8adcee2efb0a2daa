"""Checks of every request's output.

A request passes, is refused (exit 3 with one stderr line, a budget
refusal), or fails.  A failure is a traceback, an unexpected exit code, more
than one stderr line, or output that contradicts the expected values.  Each
failure is matched against ``KNOWN_DEFECTS``; a failure that matches none
makes the run incorrect.
"""

from __future__ import annotations

import json

# Failures the program is known to produce at the commit that added this
# benchmark.  They still count in `failed` and `fail_ratio`; a fix makes
# them pass and needs no change here.
KNOWN_DEFECTS = {
    "chow-top-degree-zero":
        "chow prints a Hilbert function with zero top degree for a complete "
        "input whose toroidal model is not simplicial, without marking it unverified",
    "traceback-downgrade-rank-1":
        "downgrade of the rank-1 complex fix_chain.json raises ValueError from DivisorialFan",
    "traceback-curve-list":
        'a fan document with "curve": [] raises AttributeError in the parser',
    "traceback-coefficients-list":
        'a fan document with "coefficients": [] raises AttributeError in the parser',
}


class Outcome:
    __slots__ = ("status", "reason", "known")

    def __init__(self, status, reason=None, known=None):
        self.status = status  # "ok", "refused" or "failed"
        self.reason = reason
        self.known = known


def _lines(text):
    return [ln for ln in text.splitlines() if ln.strip()]


def _fail(reason, expect, defect=None):
    known = defect if defect in KNOWN_DEFECTS and defect == expect.get("defect") else None
    return Outcome("failed", reason, known)


def check(cmd, expect, code, stdout, stderr):
    """Outcome of one request given its expectations (see workloads.py)."""
    err = _lines(stderr)
    if "Traceback (most recent call last)" in stderr:
        last = err[-1] if err else ""
        raises = expect.get("raises")
        defect = expect.get("defect") if raises and last.startswith(raises + ":") else None
        return _fail(f"traceback: {last}", expect, defect)
    if len(err) > 1:
        return _fail(f"{len(err)} stderr lines, exit {code}", expect)
    if code == 3:
        return Outcome("refused", err[0] if err else "exit 3")
    if code != 0:
        if code in expect.get("allow_exit", ()) and len(err) == 1:
            return Outcome("ok")
        return _fail(f"exit {code}: {err[0] if err else 'no message'}", expect)
    if err:
        return _fail(f"exit 0 with stderr: {err[0]}", expect)
    if expect.get("error"):
        return _fail("exit 0 where an error exit was expected", expect)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return _fail("stdout is not JSON", expect)
    reason = _check_downgrade(doc, expect) if cmd == "downgrade" else _check_report(cmd, doc, expect)
    if reason is None:
        return Outcome("ok")
    defect, text = reason
    return _fail(text, expect, defect)


def _check_downgrade(doc, expect):
    if doc.get("schema_version") != "1" or not doc.get("pdivisors"):
        return None, "downgrade output is not a fan document"
    if doc.get("lattice_rank") != expect["lattice_rank"]:
        return None, f"downgrade lattice_rank {doc.get('lattice_rank')}"
    if "same_as" in expect and json.dumps(doc, sort_keys=True) != expect["same_as"]:
        return None, "downgrade differs from the bundled fixture"
    return None


def _check_report(cmd, doc, expect):
    if doc.get("command") != cmd:
        return None, f"report is for {doc.get('command')!r}"
    r = doc.get("results", {})
    want = expect.get("results", {})
    for key, value in want.items():
        if r.get(key) != value:
            return None, f"{key} = {r.get(key)!r}, expected {value!r}"
    if cmd == "chow":
        h = r.get("hilbert") or []
        if not h or h[0] != 1:
            return None, f"hilbert {h} does not start with 1"
        top = expect.get("top_degree")
        unverified = any("unverified" in str(w).lower() for w in doc.get("warnings", [])) \
            or r.get("verified") is False
        if top is not None and not unverified and (len(h) <= top or h[top] < 1):
            return "chow-top-degree-zero", f"hilbert {h} has zero top degree {top}"
    return None

"""The pairwise fan check, kept as an oracle for ``divfan.validate``.

``validate`` is the check the library ran before it read the face condition
off its slice complexes: for every pair of members it intersects the pair,
then asks ``is_face_of`` whether the intersection is a face of both, on the
tails and on every label.  The differential tests check that
``tvartop.divfan.validate`` gives the same verdict.  Nothing here calls
``tvartop.divfan.validate`` or reads its cached report.
"""

from tvartop.divfan import ValidationReport, is_pdivisor, pdiv_intersect, slice_at, tail_fan
from tvartop.errors import FanInvalid
from tvartop.polyhedron import is_face_of


def validate(s):
    """Properness, intersection closure, the face condition for every member
    pair and label, and slice well-formedness."""
    issues = []
    for i, d in enumerate(s.pdivisors):
        rep = is_pdivisor(d, s.curve)
        if not rep.ok:
            issues.append(f"member {i} is not a p-divisor: {rep}")
    keys = {d.key for d in s.pdivisors}
    labels = set()
    for d in s.pdivisors:
        labels |= set(d.coefficients)
    labels = sorted(labels)
    for i in range(len(s.pdivisors)):
        for j in range(i + 1, len(s.pdivisors)):
            a, b = s.pdivisors[i], s.pdivisors[j]
            common = pdiv_intersect(a, b)
            if common.key not in keys:
                issues.append(f"intersection of members {i} and {j} is missing (closure)")
            at = a.tail.as_polyhedron()
            bt = b.tail.as_polyhedron()
            ct = common.tail.as_polyhedron()
            if not (is_face_of(ct, at) and is_face_of(ct, bt)):
                issues.append(f"tails of members {i} and {j} do not meet in a common face")
            for label in labels:
                ca = a.coefficient(label)
                cb = b.coefficient(label)
                cc = common.coefficient(label)
                if not (is_face_of(cc, ca) and is_face_of(cc, cb)):
                    issues.append(
                        f"coefficients of members {i} and {j} at {label!r} "
                        "do not meet in a common face"
                    )
    try:
        tail_fan(s)
        for p in s.curve.marked_points:
            if s.members_with(p):
                slice_at(s, p)
    except FanInvalid as exc:
        issues.append(f"slice is not a polyhedral complex: {exc}")
    return ValidationReport(not issues, issues)

"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each tvartop module.  Modules copy
names (``from .polyhedron import intersect``), so every module attribute
that *is* the original function is rebound to the wrapper.  A span holds the
function's index in ``NAMES``, the index of the span that called it, and its
start and end on the monotonic clock.  Spans stay in memory in the worker
and are handed to the parent as packed bytes after each request.
"""

from __future__ import annotations

import functools
import struct
import sys
import time

# (module, attribute path) of every wrapped callable; "Class" alone wraps
# construction (__init__), "Class.method" a method or classmethod.
TARGETS = [
    ("exactla", "rref"),
    ("exactla", "rank_and_kernel"),
    ("exactla", "smith_normal_form"),
    ("polyhedron", "rays_of_hcone"),
    ("polyhedron", "intersect"),
    ("polyhedron", "is_face_of"),
    ("polyhedron", "cone_meets_polyhedron"),
    ("polyhedron", "Polyhedron.from_points_rays"),
    ("polyhedron", "Cone.from_generators"),
    ("polyhedron", "Polyhedron.faces"),
    ("complexes", "PolyhedralComplex"),
    ("complexes", "find_shelling"),
    ("complexes", "verify_shelling"),
    ("complexes", "is_smooth"),
    ("complexes", "cayley_fan"),
    ("complexes", "bouquet_components"),
    ("divfan", "validate"),
    ("divfan", "pdiv_intersect"),
    ("divfan", "degree"),
    ("divfan", "contracted_partition"),
    ("divfan", "toric_downgrade"),
    ("invariants", "grothendieck_class"),
    ("invariants", "grothendieck_class_resolution"),
    ("invariants", "betti_numbers"),
    ("invariants", "chart_smoothness"),
    ("invariants", "consistency_check"),
    ("chow", "presentation"),
    ("chow", "hilbert_function"),
    ("chow", "is_shellable_divfan"),
    ("pi1", "group_NS"),
    ("pi1", "pi1_loc"),
    ("cli", "parse_fan_document"),
    ("cli", "parse_complex_document"),
    ("cli", "serialize_fan_document"),
    ("cli", "main"),
]
NAMES = [f"{mod}.{path}" for mod, path in TARGETS]


def _intersect_key(p, q, *_):
    return hash(frozenset((p.key, q.key)))


def _meets_key(c, p, *_):
    return hash((c.key, p.key))


# Functions whose distinct arguments are counted: the share of repeated
# calls is what a cache keyed like the program's own could serve.
KEYED = {"polyhedron.intersect": _intersect_key,
         "polyhedron.cone_meets_polyhedron": _meets_key}

SPAN = struct.Struct("<iidd")  # name index, parent span, start, end


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.keyed = {name: [0, set()] for name in KEYED}
        self._patches = []

    def _wrap(self, idx, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keyed = self.keyed.get(NAMES[idx])
        keyfn = KEYED.get(NAMES[idx])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed is not None:
                keyed[0] += 1
                keyed[1].add(keyfn(*args))
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, parent, start, end)

        return wrapper

    def install(self):
        """Rebind every target in every loaded tvartop module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tvartop" or name.startswith("tvartop."))]
        for idx, (modname, path) in enumerate(TARGETS):
            owner = sys.modules[f"tvartop.{modname}"]
            parts = path.split(".")
            if len(parts) == 2 or parts[0][0].isupper():
                cls = getattr(owner, parts[0])
                attr = parts[1] if len(parts) == 2 else "__init__"
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(idx, raw.__func__))
                else:
                    new = self._wrap(idx, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Packed spans recorded since the last call, and clear them."""
        blob = b"".join(SPAN.pack(*s) for s in self.spans)
        self.spans.clear()
        return blob

    def keyed_counts(self):
        return {name: [calls, len(seen)] for name, (calls, seen) in self.keyed.items()}


def unpack(blob):
    return list(SPAN.iter_unpack(blob))


class LayerTable:
    """calls, total and self time per wrapped name, summed over requests.

    Total time counts only the outermost span of a name, so recursion is
    not counted twice; self time is a span's duration minus its children's.
    """

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.total = [0.0] * len(NAMES)
        self.self_ = [0.0] * len(NAMES)

    def add(self, spans):
        child = [0.0] * len(spans)
        masks = [0] * len(spans)
        for sid, (idx, parent, start, end) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                child[parent] += dur
                masks[sid] = masks[parent] | (1 << spans[parent][0])
            self.calls[idx] += 1
            if not masks[sid] >> idx & 1:
                self.total[idx] += dur
        for sid, (idx, _, start, end) in enumerate(spans):
            self.self_[idx] += (end - start) - child[sid]

    def rows(self):
        return [(name, self.calls[i], self.total[i], self.self_[i])
                for i, name in enumerate(NAMES)]

    def calls_by_name(self):
        return dict(zip(NAMES, self.calls))

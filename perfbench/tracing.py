"""Spans and counts at the public boundaries of the ``levibranch`` modules.

``Tracer.install`` replaces each function and method named in ``SPANS``
with a wrapper that records a span (name, start, end, parent span) in
memory, at every module namespace that binds it, so calls through
``from .x import f`` are seen too.  Some wrappers also add counts taken
from their arguments or results.  ``Tracer.dump`` writes the spans at the
end of the round; ``per_layer`` turns a dump into the per-layer metrics.

Tracing runs only in its own round: the end-to-end metrics come from
rounds with no wrapper installed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


def _rows(args, result):
    return {"rows": len(args[0])}


def _rows_second(args, result):
    return {"rows": len(args[1])}


def _bucket(args, result):
    return {"rows_in": len(args[0]), "rows_out": len(result[0])}


def _mask(args, result):
    return {"rows": len(args[1]), "passed": int(result.sum())}


def _terms(args, result):
    return {"terms": len(result)}


def _steps(args, result):
    return {"steps": len(result)}


def _poly_rows(args, result):
    fn = args[0]
    return {"rows": fn.levi.parent.weyl_order() * len(fn.coeffs)}


# (span name, module, attribute, count).  Attributes with a dot are methods.
SPANS = [
    ("kernels.orbit_images", "kernels", "orbit_images", _rows),
    ("kernels.dominant_rows", "kernels", "dominant_rows", _rows),
    ("kernels.kostant_batch", "kernels", "kostant_batch", _rows),
    ("kernels.pack_rows", "kernels", "pack_rows", _rows),
    ("weightpoly.signed_bucket", "weightpoly", "signed_bucket", _bucket),
    ("weightpoly.chamber_cone_mask", "weightpoly", "chamber_cone_mask", _mask),
    ("weightpoly.PartitionTable.count_rows", "weightpoly", "PartitionTable.count_rows",
     _rows_second),
    ("weightpoly.dominant_multiplicities", "weightpoly", "dominant_multiplicities", None),
    ("weightpoly.weyl_character", "weightpoly", "weyl_character", _terms),
    ("weightpoly.decompose_character", "weightpoly", "decompose_character", _steps),
    ("weightpoly.dominants_below", "weightpoly", "dominants_below", None),
    ("weightpoly.WeightPolynomial.from_rows", "weightpoly", "WeightPolynomial.from_rows",
     _terms),
    ("branching.build_m", "branching", "build_m", None),
    ("branching.MFunction.poly", "branching", "MFunction.poly", _poly_rows),
    ("branching.branch_multiplicity", "branching", "branch_multiplicity", None),
    ("branching.default_lambda_box", "branching", "default_lambda_box", None),
    ("branching.leading_term", "branching", "leading_term", None),
    ("equivalence.search_box", "equivalence", "search_box", None),
    ("equivalence.induced_equal", "equivalence", "induced_equal", None),
    ("equivalence.classify_pair", "equivalence", "classify_pair", None),
    ("equivalence.same_closed_chamber", "equivalence", "same_closed_chamber", None),
    ("weylgrp.dominant_representative", "weylgrp", "dominant_representative", None),
    ("weylgrp.stabilizer_subgroup", "weylgrp", "stabilizer_subgroup", None),
    ("weylgrp.weyl_group", "weylgrp", "weyl_group", None),
    ("weylgrp.transversal", "weylgrp", "transversal", None),
    ("rootsys.RootDatum.dominance_leq", "rootsys", "RootDatum.dominance_leq", None),
]

# Per-layer metrics in print order: (name, unit).  ``.self_s`` and ``.calls``
# come from the spans, the rest from the counts.
PER_LAYER = [
    ("kernels.orbit_images.rows", "count"), ("kernels.orbit_images.self_s", "s"),
    ("kernels.dominant_rows.rows", "count"), ("kernels.dominant_rows.self_s", "s"),
    ("kernels.kostant_batch.rows", "count"), ("kernels.kostant_batch.self_s", "s"),
    ("kernels.pack_rows.rows", "count"), ("kernels.pack_rows.self_s", "s"),
    ("weightpoly.signed_bucket.rows_in", "count"),
    ("weightpoly.signed_bucket.rows_out", "count"),
    ("weightpoly.signed_bucket.self_s", "s"),
    ("weightpoly.chamber_cone_mask.rows", "count"),
    ("weightpoly.chamber_cone_mask.pass_ratio", "ratio"),
    ("weightpoly.PartitionTable.count_rows.calls", "count"),
    ("weightpoly.PartitionTable.count_rows.rows", "count"),
    ("weightpoly.PartitionTable.count_rows.self_s", "s"),
    ("weightpoly.PartitionTable.values", "count"),
    ("weightpoly.dominant_multiplicities.calls", "count"),
    ("weightpoly.dominant_multiplicities.self_s", "s"),
    ("weightpoly.weyl_character.terms", "count"),
    ("weightpoly.weyl_character.self_s", "s"),
    ("weightpoly.decompose_character.steps", "count"),
    ("weightpoly.decompose_character.self_s", "s"),
    ("weightpoly.dominants_below.self_s", "s"),
    ("weightpoly.WeightPolynomial.from_rows.terms", "count"),
    ("weightpoly.WeightPolynomial.from_rows.self_s", "s"),
    ("branching.build_m.calls", "count"), ("branching.build_m.self_s", "s"),
    ("branching.MFunction.poly.rows", "count"), ("branching.MFunction.poly.self_s", "s"),
    ("branching.branch_multiplicity.calls", "count"),
    ("branching.branch_multiplicity.self_s", "s"),
    ("branching.default_lambda_box.self_s", "s"),
    ("branching.leading_term.calls", "count"), ("branching.leading_term.self_s", "s"),
    ("equivalence.search_box.self_s", "s"),
    ("equivalence.induced_equal.calls", "count"),
    ("equivalence.induced_equal.self_s", "s"),
    ("equivalence.induced_equal.build_ratio", "ratio"),
    ("equivalence.classify_pair.calls", "count"), ("equivalence.classify_pair.self_s", "s"),
    ("equivalence.same_closed_chamber.self_s", "s"),
    ("weylgrp.dominant_representative.calls", "count"),
    ("weylgrp.dominant_representative.self_s", "s"),
    ("weylgrp.stabilizer_subgroup.calls", "count"),
    ("weylgrp.stabilizer_subgroup.self_s", "s"),
    ("weylgrp.weyl_group.self_s", "s"), ("weylgrp.transversal.self_s", "s"),
    ("rootsys.Weight.created", "count"),
    ("rootsys.RootDatum.dominance_leq.calls", "count"),
    ("rootsys.RootDatum.dominance_leq.self_s", "s"),
]


class Tracer:
    """Records spans in flat arrays; span ids are array positions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.tables: list = []
        self.created = [0]
        self._undo: list = []

    def _wrap(self, name, fn, count):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "levibranch" or n.startswith("levibranch.")]
        for name, module, attr, count in SPANS:
            home = sys.modules[f"levibranch.{module}"]
            if "." in attr:
                cls = getattr(home, attr.split(".")[0])
                meth = attr.split(".")[1]
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__, count)))
                else:
                    self._set(cls, meth, self._wrap(name, raw, count))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, count)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        self._count_weights(sys.modules["levibranch.rootsys"].Weight)
        self._register_tables(sys.modules["levibranch.weightpoly"].PartitionTable)

    def _count_weights(self, cls):
        new = cls.__dict__["__new__"]
        new = new.__func__ if isinstance(new, staticmethod) else new
        created = self.created

        def counted(klass, *args):
            created[0] += 1
            return new(klass, *args)

        self._set(cls, "__new__", staticmethod(counted))

    def _register_tables(self, cls):
        init = cls.__dict__["__init__"]
        tables = self.tables

        def registered(table, *args, **kwargs):
            init(table, *args, **kwargs)
            tables.append(table)

        self._set(cls, "__init__", registered)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path) -> dict:
        """Write the spans to ``path``; return the counts that are not spans."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent))
        counts = dict(self.counts)
        counts["rootsys.Weight.created"] = self.created[0]
        counts["weightpoly.PartitionTable.values"] = sum(len(t.values) for t in self.tables)
        return counts


def per_layer(spans_path, counts) -> dict:
    """Per-layer metrics from a span dump and the counts of the same round."""
    import numpy as np

    with np.load(spans_path) as spans:
        names = spans["names"].tolist()
        name_id = spans["name_id"].astype(np.int64)
        parent = spans["parent"].astype(np.int64)
        dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = np.bincount(name_id, weights=dur - child_time, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    values = dict(counts)
    for i, name in enumerate(names):
        values[f"{name}.self_s"] = float(self_time[i])
        values[f"{name}.calls"] = int(calls[i])

    def ratio(num, den):
        return num / den if den else 0.0

    values["weightpoly.chamber_cone_mask.pass_ratio"] = ratio(
        counts.get("weightpoly.chamber_cone_mask.passed", 0),
        counts.get("weightpoly.chamber_cone_mask.rows", 0))
    ie = names.index("equivalence.induced_equal")
    bm = names.index("branching.build_m")
    builders = parent[(name_id == bm) & has_parent]
    reached = np.unique(builders[name_id[builders] == ie])
    values["equivalence.induced_equal.build_ratio"] = ratio(
        len(reached), int(calls[ie]))
    return {name: values.get(name, 0) for name, _ in PER_LAYER}

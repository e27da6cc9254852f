"""Span tracer for the benchmark's traced run.

``Tracer.install()`` wraps snorder's layer functions at every module binding
that holds them, so call sites reached through ``from .x import y`` are
traced too; ``uninstall()`` puts the originals back.  Nothing is wrapped
unless ``install()`` is called, so the untraced run pays nothing.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the op in flight.
Calls made outside an op (input generation, oracles) are not recorded.
Spans stay in memory and are written out by ``dump()`` at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

RANK_SIZES = range(1, 9)
HOOK = "trace.hook"  # time spent computing trace-only values; excluded from self times


def _max_bits(rows) -> int:
    return max((max(abs(re).bit_length(), abs(im).bit_length())
                for row in rows for re, im in row), default=0)


class _Validator:
    """Stands in for a jsonschema validator so that ``validate`` is timed."""

    def __init__(self, validate):
        self.validate = validate


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.max_bits = defaultdict(int)
        self.op = None
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, name_of=None, before=None, after=None):
        """Wrap fn so that each call inside an op records a span.  name_of
        names the span from the arguments; before/after see the arguments
        (and result) to update counters."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if before is not None:
                t0 = perf_counter()
                before(args)
                spans.append((HOOK, t0, perf_counter(), parent, op))
            label = name_of(args) if name_of else name
            idx = len(spans)
            spans.append((label, None, None, parent, op))  # open; closed below
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, op)
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def count(self, name, fn):
        """Wrap fn so that calls inside an op are counted but not timed."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def _rebind(self, orig, wrapped):
        mods = [m for n, m in sys.modules.items() if n == "snorder" or n.startswith("snorder.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))

    def install(self):
        """Wrap every layer function at each snorder binding that holds it."""
        from snorder import linalg, majorization, matfunc, ordering, partitions
        from snorder import scalar, schur, serialization, snrepr

        def rank_before(args):
            rows = args[0]
            n = len(rows)
            self.max_bits[n] = max(self.max_bits[n], _max_bits(rows))

        def decompose_after(args, result, parent):
            self.counts["majorization.decompose.steps"] += len(result[0])

        def certificate_after(args, result, parent):
            self.counts["ordering.certificates"] += result is not None

        def majorize_after(args, result, parent):
            if parent >= 0 and self.spans[parent][0] == "schur.falsify":
                self.counts["schur.falsify.pairs"] += 1
                self.counts["schur.falsify.strict"] += (
                    result is majorization.Majorization.STRICT)

        spans = [
            (linalg, "rank_gaussian_int_rows", "linalg.rank",
             dict(name_of=lambda a: f"linalg.rank.n{len(a[0])}", before=rank_before)),
            (linalg, "gaussian_int_matmul", "linalg.gaussian_int_matmul", {}),
            (linalg, "block_diag", "linalg.block_diag", {}),
            (snrepr, "repr_from_matrix", "snrepr.repr_from_matrix", {}),
            (snrepr, "compare_sno", "snrepr.compare_sno", {}),
            (matfunc, "repr_of_fx", "matfunc.repr_of_fx", {}),
            (matfunc, "f_of_jordan_spec", "matfunc.f_of_jordan_spec", {}),
            (scalar, "sort_desc", "scalar.sort_desc", {}),
            (majorization, "majorize_check", "majorization.majorize_check",
             dict(after=majorize_after)),
            (majorization, "t_transform_decompose_trace", "majorization.decompose",
             dict(after=decompose_after)),
            (majorization, "gds_from_transforms", "majorization.gds_from_transforms", {}),
            (majorization, "gds_check", "majorization.gds_check", {}),
            (majorization, "apply_row_vector", "majorization.apply_row_vector", {}),
            (ordering, "monotonicity_certificate", "ordering.monotonicity_certificate",
             dict(after=certificate_after)),
            (ordering, "monotonicity_verify_direct", "ordering.verify_direct", {}),
            (schur, "schur_convex_falsify", "schur.falsify", {}),
        ]
        counted = [
            (scalar, "cmp_total", "scalar.cmp_total.calls"),
            (matfunc, "f_jordan_block", "matfunc.f_jordan_block.calls"),
            (partitions, "merge_desc", "partitions.merge_desc.calls"),
            (partitions, "dominance_check", "partitions.dominance_check.calls"),
        ]
        for mod, attr, name, kw in spans:
            orig = getattr(mod, attr, None)
            if orig is None:
                print(f"trace: {mod.__name__}.{attr} not found; {name} reads 0", file=sys.stderr)
                continue
            self._rebind(orig, self.span(name, orig, **kw))
        for mod, attr, name in counted:
            orig = getattr(mod, attr, None)
            if orig is None:
                print(f"trace: {mod.__name__}.{attr} not found; {name} reads 0", file=sys.stderr)
                continue
            self._rebind(orig, self.count(name, orig))

        matmul = linalg.Matrix.__matmul__
        linalg.Matrix.__matmul__ = self.span("linalg.matmul", matmul)
        self._undo.append((linalg.Matrix, "__matmul__", matmul))

        make_validator = serialization.make_validator
        timed_make = self.span("serialization.validate", make_validator)

        def traced_make_validator(name):
            inner = timed_make(name)
            return _Validator(self.span("serialization.validate", inner.validate))

        self._rebind(make_validator, traced_make_validator)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(self seconds by name, calls by name, top-level seconds by op)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, top = defaultdict(float), Counter(), defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0 and name != HOOK:
                top[op] += end - start
        return self_s, calls, top

    def metrics(self, op_seconds: float) -> dict:
        """Per-layer metrics for the ops traced; op_seconds is their summed
        wall time, against which top-level span coverage is measured."""
        self_s, calls, top = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        ranks_in_recovery = sum(
            1 for name, _, _, parent, _ in self.spans
            if name.startswith("linalg.rank.n") and parent >= 0
            and self.spans[parent][0] == "snrepr.repr_from_matrix"
        )
        m = {"linalg.rank.calls": (sum(v for k, v in calls.items()
                                       if k.startswith("linalg.rank.n")), "count")}
        for n in RANK_SIZES:
            m[f"linalg.rank.self_s.n{n}"] = (self_s.get(f"linalg.rank.n{n}", 0.0), "s")
        for n in RANK_SIZES:
            m[f"linalg.rank.max_bits.n{n}"] = (self.max_bits.get(n, 0), "bits")
        for name in ("linalg.gaussian_int_matmul", "snrepr.repr_from_matrix",
                     "matfunc.repr_of_fx", "matfunc.f_of_jordan_spec", "linalg.block_diag",
                     "scalar.sort_desc", "majorization.majorize_check",
                     "majorization.decompose", "majorization.gds_from_transforms",
                     "majorization.gds_check", "linalg.matmul", "snrepr.compare_sno",
                     "ordering.monotonicity_certificate", "ordering.verify_direct",
                     "schur.falsify", "serialization.validate"):
            m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for name in ("scalar.sort_desc", "linalg.matmul", "snrepr.compare_sno"):
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m["snrepr.repr_from_matrix.ranks_per_call"] = (
            ratio(ranks_in_recovery, calls.get("snrepr.repr_from_matrix", 0)), "ranks/call")
        for name in ("matfunc.f_jordan_block.calls", "partitions.merge_desc.calls",
                     "scalar.cmp_total.calls", "partitions.dominance_check.calls"):
            m[name] = (c.get(name, 0), "count")
        m["majorization.decompose.steps"] = (c.get("majorization.decompose.steps", 0), "count")
        m["ordering.certified_ratio"] = (
            ratio(c.get("ordering.certificates", 0),
                  calls.get("ordering.monotonicity_certificate", 0)), "ratio")
        m["schur.falsify.trials"] = (c.get("schur.falsify.pairs", 0), "count")
        m["schur.falsify.strict_ratio"] = (
            ratio(c.get("schur.falsify.strict", 0), c.get("schur.falsify.pairs", 0)), "ratio")
        m["trace.span_coverage"] = (ratio(sum(top.values()), op_seconds), "ratio")
        return m

    def dump(self, path: str):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": self.counts, "max_bits": self.max_bits}) + "\n")

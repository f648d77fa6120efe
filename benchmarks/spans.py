"""Span recorder for the traced run.

Wrappers are installed around public qconic functions at the modules that
call them (``singular.conic_pair_intersections`` as seen from
``singular``, ``linalg.rank_blockwise`` as seen through the ``linalg``
module object, ...), in the benchmark process only, and removed again by
:meth:`Recorder.uninstall`.  Each span keeps its name, start, end, parent
span and item; spans stay in memory until the run ends.  Counts are taken
at the same boundaries.

Every ``*_s`` metric is the inclusive duration of its spans, except the
``*self_s`` ones, which subtract the time covered by direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

from qconic import cli, linalg, localalg, numberfield, report, singular

#: parent span names under which rank calls are split out
RANK_PARENTS = {"localalg.quotient": "quotient", "freeness.hilbert": "hilbert"}

#: per-layer metrics and their units, in report order
PER_LAYER = (
    ("singular.pair_s", "s"), ("singular.pair_calls", "count"),
    ("singular.orbits", "count"), ("singular.field_degree_sum", "count"),
    ("singular.locate_self_s", "s"),
    ("factorint.factor_s", "s"), ("factorint.factor_calls", "count"),
    ("numberfield.fields_s", "s"), ("numberfield.fields_calls", "count"),
    ("numberfield.fields_cache_hits", "count"), ("numberfield.mul_calls", "count"),
    ("localalg.affine_s", "s"), ("localalg.milnor_s", "s"),
    ("localalg.tjurina_s", "s"), ("localalg.quotient_calls", "count"),
    ("localalg.levels", "count"),
    ("linalg.rank_s", "s"), ("linalg.rank_calls", "count"),
    ("linalg.rank_entries", "count"),
    ("linalg.rank_s.quotient", "s"), ("linalg.rank_calls.quotient", "count"),
    ("linalg.rank_entries.quotient", "count"),
    ("linalg.rank_s.hilbert", "s"), ("linalg.rank_calls.hilbert", "count"),
    ("linalg.rank_entries.hilbert", "count"),
    ("linalg.kernel_s", "s"), ("linalg.fullrank_cert_calls", "count"),
    ("linalg.fullrank_cert_hits", "count"),
    ("freeness.mdr_s", "s"), ("freeness.mdr_degrees", "count"),
    ("freeness.hilbert_s", "s"), ("freeness.hilbert_degrees", "count"),
    ("report.self_s", "s"), ("report.json_s", "s"),
    ("combinatorics.scan_s", "s"), ("combinatorics.vectors", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# span name -> inclusive-time metric / call-count metric
_TIME = {"singular.pair": "singular.pair_s", "factorint.factor": "factorint.factor_s",
         "numberfield.fields": "numberfield.fields_s", "localalg.affine": "localalg.affine_s",
         "localalg.milnor": "localalg.milnor_s", "localalg.tjurina": "localalg.tjurina_s",
         "linalg.rank": "linalg.rank_s", "linalg.kernel": "linalg.kernel_s",
         "freeness.mdr": "freeness.mdr_s", "freeness.hilbert": "freeness.hilbert_s",
         "report.json": "report.json_s", "combinatorics.scan": "combinatorics.scan_s"}
_SELF = {"singular.locate": "singular.locate_self_s", "report.analyze": "report.self_s"}
_CALLS = {"singular.pair": "singular.pair_calls", "factorint.factor": "factorint.factor_calls",
          "numberfield.fields": "numberfield.fields_calls",
          "localalg.quotient": "localalg.quotient_calls", "linalg.rank": "linalg.rank_calls",
          "linalg.fullrank_cert": "linalg.fullrank_cert_calls"}


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1, item, pass]
        self.counts = defaultdict(int)  # (pass, item, counter) -> value
        self._stack = []
        self._item = None
        self._pass = None
        self._restore = []

    # -- bookkeeping -----------------------------------------------------
    def begin_item(self, pass_no: int, item_id: str):
        self._pass, self._item = pass_no, item_id

    def count(self, name: str, n: int = 1):
        self.counts[(self._pass, self._item, name)] += n

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._item, self._pass])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping --------------------------------------------------------
    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr, name, after=None, before=None):
        """Replace ``owner.attr`` by a spanned wrapper.  ``before(args)``
        runs inside the span before the call, ``after(result, state)``
        after it, with whatever ``before`` returned."""
        def make(original):
            def wrapper(*args, **kwargs):
                idx = self._enter(name)
                try:
                    state = before(args) if before else None
                    result = original(*args, **kwargs)
                    if after:
                        after(result, state)
                    return result
                finally:
                    self._exit(idx)
            return wrapper
        self._patch(owner, attr, make)

    def install(self):
        """Wrap every traced layer boundary."""
        def located(records, _state):
            self.count("singular.orbits", len(records))
            self.count("singular.field_degree_sum", sum(r.field.degree for r in records))

        def cache_size(_args):
            return len(numberfield._FIELD_CACHE)

        def field_hit(_result, size_before):
            if len(numberfield._FIELD_CACHE) == size_before:
                self.count("numberfield.fields_cache_hits")

        def rank_args(args):
            rows = args[0]
            entries = len(rows) * (len(rows[0]) if rows else 0)
            self.count("linalg.rank_entries", entries)
            parent = RANK_PARENTS.get(self._parent_of_current())
            if parent:
                self.count(f"linalg.rank_entries.{parent}", entries)
                if parent == "quotient":
                    self.count("localalg.levels")
                else:
                    self.count("freeness.hilbert_degrees")

        def cert(result, _state):
            if result:
                self.count("linalg.fullrank_cert_hits")

        def mdr_done(witness, _state):
            self.count("freeness.mdr_degrees", witness.degree + 1)

        def scanned(result, _state):
            self.count("combinatorics.vectors", result.vectors_checked)

        self.wrap(cli, "analyze_arrangement", "report.analyze")
        self.wrap(report.AnalysisReport, "to_json", "report.json")
        self.wrap(cli, "_dump_json", "report.json")
        self.wrap(cli, "verify_freeness_obstruction", "combinatorics.scan", after=scanned)
        self.wrap(singular, "locate_singular_points", "singular.locate", after=located)
        self.wrap(singular, "conic_pair_intersections", "singular.pair")
        self.wrap(singular, "factor", "factorint.factor")
        self.wrap(numberfield, "fields_for_polynomial", "numberfield.fields",
                  before=cache_size, after=field_hit)
        self.wrap(singular, "local_milnor_number", "localalg.milnor")
        self.wrap(singular, "local_tjurina_number", "localalg.tjurina")
        self.wrap(localalg, "local_affine_at", "localalg.affine")
        self.wrap(localalg, "truncated_quotient_dimension", "localalg.quotient")
        self.wrap(linalg, "rank_blockwise", "linalg.rank", before=rank_args)
        self.wrap(linalg, "kernel_basis_blockwise", "linalg.kernel")
        self.wrap(linalg, "has_full_column_rank_certified", "linalg.fullrank_cert", after=cert)
        self.wrap(report, "mdr", "freeness.mdr", after=mdr_done)
        self.wrap(report, "global_tjurina", "freeness.hilbert")

        def counting(original):
            def mul(a, b):
                self.count("numberfield.mul_calls")
                return original(a, b)
            return mul
        self._patch(numberfield.FieldElement, "__mul__", counting)
        self._patch(numberfield.FieldElement, "__rmul__", counting)

    def _parent_of_current(self) -> str | None:
        # called from inside a span's ``before`` hook: the current span is
        # on top of the stack, its parent one below
        if len(self._stack) < 2:
            return None
        return self.spans[self._stack[-2]][0]

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def pass_metrics(self, pass_no: int) -> dict:
        """Per-layer metrics (without the overhead ratio) of one pass."""
        out = {name: 0 for name, unit in PER_LAYER if name != "trace.overhead_ratio"}
        out.update({name: 0.0 for name, unit in PER_LAYER if unit == "s"})
        child = defaultdict(float)
        for name, start, end, parent, _item, p in self.spans:
            if p == pass_no and parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _item, p) in enumerate(self.spans):
            if p != pass_no:
                continue
            dur = end - start
            if name in _TIME:
                out[_TIME[name]] += dur
            if name in _SELF:
                out[_SELF[name]] += dur - child[idx]
            if name in _CALLS:
                out[_CALLS[name]] += 1
            if name == "linalg.rank" and parent >= 0:
                suffix = RANK_PARENTS.get(self.spans[parent][0])
                if suffix:
                    out[f"linalg.rank_s.{suffix}"] += dur
                    out[f"linalg.rank_calls.{suffix}"] += 1
        for (p, _item, name), value in self.counts.items():
            if p == pass_no:
                out[name] += value
        return out

    def dump(self) -> dict:
        """Spans and counters as plain JSON data."""
        return {
            "span_fields": ["name", "start", "end", "parent", "item", "pass"],
            "spans": self.spans,
            "counts": [[p, item, name, value]
                       for (p, item, name), value in sorted(self.counts.items())],
        }

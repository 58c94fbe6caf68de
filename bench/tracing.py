"""Spans and counters recorded around the package's public functions.

A :class:`Tracer` replaces each traced function by a wrapper in every
``hilbert_hodge`` module that holds it under its name, so a call is traced
wherever its caller looks the name up (``homology`` reaches rank through
``higgs.integer_matrix_rank``, ``_run_table`` calls ``cli.mhs_table``).
Methods are wrapped on their class.  :meth:`Tracer.uninstall` puts every
original back.  Nothing inside the package changes.

Each call becomes a span ``(name, start, end, parent, pass, item)`` kept in
memory.  Durations are aggregated per pass: inclusive seconds, self seconds
(the span minus its direct child spans) and call counts.  Hooks that count
work (matrix cells, blocks, labels, bytes) run outside the timed interval
of their span, and the seconds they take are subtracted from every
enclosing span, so a layer's figures hold its own work only.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "hilbert_hodge"

# (module, function, span name); several functions may share a span name
FUNCTION_SPANS = (
    ("linalg", "integer_matrix_rank", "linalg.rank"),
    ("higgs", "build_log_higgs_complex", "higgs.build"),
    ("higgs", "homology", "higgs.homology"),
    ("kunneth", "cohomology_sheaf_closed_form", "kunneth.closed_form"),
    ("kunneth", "weight_counts", "kunneth.weight_counts"),
    ("kunneth", "count_N", "kunneth.count_N"),
    ("tables", "mhs_table", "tables.mhs_table"),
    ("tables", "gr_F_labels", "tables.gr_F_labels"),
    ("tables", "sheaf_cohomology_dim", "tables.sheaf_cohomology_dim"),
    ("tables", "ih_table", "tables.ih_table"),
    ("tables", "eisenstein_data", "tables.eisenstein_data"),
    ("consistency", "run_verification", "consistency.run_verification"),
    ("consistency", "check_oracle_equivalence", "consistency.oracle_equivalence"),
    ("consistency", "check_table_identities", "consistency.table_identities"),
    ("consistency", "check_euler_ih", "consistency.euler_ih"),
    ("consistency", "check_hrr", "consistency.hrr"),
    ("serialize", "table_document", "serialize.document"),
    ("serialize", "verify_document", "serialize.document"),
    ("serialize", "sheaf_matrix_document", "serialize.document"),
    ("serialize", "eisenstein_document", "serialize.document"),
    ("serialize", "dump_json", "serialize.dump_json"),
    ("cli", "resolve_config", "cli.resolve"),
    ("cli", "_emit", "cli.emit"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("higgs", "HiggsChainComplex", "verify_chain_property", "higgs.validate"),
    ("higgs", "HiggsChainComplex", "verify_monomial_grading", "higgs.validate"),
)

# (module, class, method, counter): called too often for a span each
METHOD_COUNTERS = (
    ("higgs", "HiggsBasisElement", "monomial", "higgs.monomial.calls"),
)


class _ScanCountingDict(dict):
    """A differential that counts the entries each full scan reads."""

    __slots__ = ("counts",)

    def items(self):
        self.counts["higgs.entries_scanned"] += len(self)
        return super().items()


class Tracer:
    """Spans and counters of one benchmark run, grouped by pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.pass_index = -1
        self.item = -1
        self._book = 0.0  # seconds spent in counting hooks, excluded from spans
        self._stack: list[list] = []  # [span index, child seconds, book at start]
        self._undo: list[tuple] = []
        self._uncounted: dict = {}  # counter name -> the method it counts
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.exclusive: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    # ------------------------------------------------------------ recording

    def begin_pass(self, pass_index: int) -> None:
        """Start the per-pass figures afresh; the wrappers hold these
        containers, so they are cleared, not replaced."""
        self.pass_index = pass_index
        for figures in (
            self.calls, self.inclusive, self.exclusive, self.counts, self.maxima
        ):
            figures.clear()

    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` recorded as span ``name``; ``pre(args)`` may replace the
        positional arguments and ``post(args, kwargs, result)`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                t = perf_counter()
                args = pre(args)
                tracer._book += perf_counter() - t
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [index, 0.0, tracer._book]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start - (tracer._book - frame[2])
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (
                    name, start, end, parent, tracer.pass_index, tracer.item
                )
                tracer.calls[name] += 1
                tracer.inclusive[name] += duration
                tracer.exclusive[name] += duration - frame[1]
            if post is not None:
                t = perf_counter()
                post(args, kwargs, return_value)
                tracer._book += perf_counter() - t
            return return_value

        return traced

    def count_calls(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -------------------------------------------------------- counting hooks

    def _after_rank(self, args, kwargs, rank) -> None:
        rows = args[0] if args else kwargs["rows"]
        n_rows = len(rows)
        self.counts["linalg.rank.cells"] += n_rows * (len(rows[0]) if n_rows else 0)
        self.maxima["linalg.rank.max_rows"] = max(
            self.maxima["linalg.rank.max_rows"], n_rows
        )
        self.counts["higgs.entries_used"] += sum(len(r) - r.count(0) for r in rows)

    def _after_build(self, args, kwargs, cx) -> None:
        self.counts["higgs.basis_elements"] += cx.total_size

    def _before_homology(self, args):
        """Count the complex's monomial blocks and make its differentials
        count the entries the homology pass scans."""
        cx, *rest = args
        monomial = self._uncounted["higgs.monomial.calls"]
        self.counts["higgs.blocks"] += len(
            {monomial(el, cx.spec.m) for term in cx.terms for el in term}
        )
        differentials = []
        for d in cx.differentials:
            counting = _ScanCountingDict(d)
            counting.counts = self.counts
            differentials.append(counting)
        return (dataclasses.replace(cx, differentials=tuple(differentials)), *rest)

    def _after_gr_f_labels(self, args, kwargs, labels) -> None:
        self.counts["tables.gr_F_labels.labels"] += sum(len(v) for v in labels.values())

    def _after_run_verification(self, args, kwargs, report) -> None:
        self.counts["consistency.results"] += len(report.results)
        self.counts["consistency.skipped"] += sum(
            1 for r in report.results if r.status == "skip"
        )

    def _after_dump_json(self, args, kwargs, text) -> None:
        self.counts["serialize.output_bytes"] += len(text.encode("utf-8"))

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every traced function and method in the loaded package."""
        hooks = {
            "linalg.rank": (None, self._after_rank),
            "higgs.build": (None, self._after_build),
            "higgs.homology": (self._before_homology, None),
            "tables.gr_F_labels": (None, self._after_gr_f_labels),
            "consistency.run_verification": (None, self._after_run_verification),
            "serialize.dump_json": (None, self._after_dump_json),
        }
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module, attr, span in FUNCTION_SPANS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            pre, post = hooks.get(span, (None, None))
            wrapper = self.wrap(span, original, pre, post)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for module, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original))
        for module, cls_name, attr, counter in METHOD_COUNTERS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            self._uncounted[counter] = original
            setattr(cls, attr, self.count_calls(counter, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- results

    def pass_metrics(self) -> dict[str, float]:
        """Every figure of the current pass, keyed by metric name."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.exclusive[name]
        out.update(self.counts)
        out.update(self.maxima)
        scanned = self.counts["higgs.entries_scanned"]
        out["higgs.entry_hit_ratio"] = (
            self.counts["higgs.entries_used"] / scanned if scanned else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as tab-separated lines, times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tpass\titem\n")
            for name, start, end, parent, pass_index, item in self.spans:
                fh.write(
                    f"{name}\t{round((start - origin) * 1e9)}\t"
                    f"{round((end - origin) * 1e9)}\t{parent}\t{pass_index}\t{item}\n"
                )

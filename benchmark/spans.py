"""Spans around degmatch's layer entry points, for the traced run.

The wrappers replace module and class attributes that the production path
looks up at call time, so the traced code is the code that runs
untraced; nothing is copied. Span times come from ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so spans recorded
in a CLI child process line up with the parent's spawn and exit times.
"""

import functools
import time
from contextlib import contextmanager

import degmatch.cli as cli
import degmatch.core as core
import degmatch.lce as lce
import degmatch.matcher as matcher

MIB = float(1 << 20)


class Tracer:
    """Keeps spans in memory: name, start, end, parent span and counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, counts=None):
        """Replace ``owner.attr`` with a function that records a span around
        it; ``counts(attrs, args, result)`` adds counts to the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if counts is not None:
                    counts(record["attrs"], args, result)
                return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, parsers_of):
        """Wrap every layer entry point; ``parsers_of`` is the module whose
        parser names the traced caller looks up (``core`` or ``cli``)."""
        for parser in ("parse_iupac", "parse_solid"):
            self.wrap(parsers_of, parser, "core.parse")
        self.wrap(matcher, "substitute", "matcher.substitute")
        self.wrap(lce.LceIndex, "__init__", "lce.build", _index_counts)
        self.wrap(lce, "_suffix_array", "lce.suffix_sort")
        self.wrap(lce, "_lcp_array", "lce.lcp")
        self.wrap(lce.LceIndex, "_build_rmq", "lce.rmq")
        self.wrap(matcher, "kangaroo_search", "matcher.kangaroo", _kangaroo_counts)
        self.wrap(lce.LceIndex, "lce_many", "lce.query", _query_counts)
        for stage3 in ("precompute_membership", "filter_occurrences", "_filter_general"):
            self.wrap(matcher, stage3, "matcher.filter")
        if parsers_of is cli:
            self.wrap(cli, "_load_text_records", "cli.load")
            self.wrap(cli, "_emit", "cli.emit")
            self.wrap(cli, "find_occurrences", "match", report_counts)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _index_counts(attrs, args, _result):
    index = args[0]
    attrs["index_bytes"] = sum(
        getattr(index, a).nbytes
        for a in ("seq", "suffix_order", "rank", "lcp",
                  "_short", "_prefix_min", "_suffix_min", "_block_table")
    )


def _kangaroo_counts(attrs, _args, result):
    table, approx = result
    attrs.update(
        table_bytes=table.entries.nbytes,
        alignments=table.alignments,
        budget=table.budget,
        queries=table.query_count,
        approx=len(approx),
    )


def _query_counts(attrs, args, _result):
    attrs["size"] = len(args[1])


def report_counts(attrs, _args, report):
    """Occurrence and query counts of one search, for its ``match`` span."""
    attrs.update(
        exact=len(report.exact_occurrences),
        approx=len(report.approximate_occurrences),
        queries=report.lce_queries,
    )


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def survivors(spans):
    """Sizes of the ``lce_many`` calls of each kangaroo span, in order:
    the alignments still alive at each round."""
    return [
        [c["attrs"]["size"] for c in spans
         if c["parent"] == k["id"] and c["name"] == "lce.query"]
        for k in spans if k["name"] == "matcher.kangaroo"
    ]


def total(spans, name, self_only=True):
    """Summed self time (or whole duration) of the spans called ``name``."""
    own = self_times(spans) if self_only else None
    return sum(
        own[s["id"]] if self_only else s["end"] - s["start"]
        for s in spans if s["name"] == name
    )


def count(spans, name, key):
    return sum(s["attrs"][key] for s in spans if s["name"] == name)


def match_metrics(spans):
    """Per-layer figures of one traced search: the spans under the
    ``match`` spans of one operation."""
    kangaroo = [s["attrs"] for s in spans if s["name"] == "matcher.kangaroo"]
    bound = sum((k["budget"] + 1) * k["alignments"] for k in kangaroo)
    queries = count(spans, "lce.query", "size")
    approx = count(spans, "matcher.kangaroo", "approx")
    return {
        "matcher.substitute_s": (total(spans, "matcher.substitute"), "s"),
        "lce.build_s": (total(spans, "lce.build", self_only=False), "s"),
        "lce.suffix_sort_s": (total(spans, "lce.suffix_sort"), "s"),
        "lce.lcp_s": (total(spans, "lce.lcp"), "s"),
        "lce.rmq_s": (total(spans, "lce.rmq"), "s"),
        "lce.index_mb": (count(spans, "lce.build", "index_bytes") / MIB, "MiB"),
        "lce.query_s": (total(spans, "lce.query"), "s"),
        "lce.queries": (queries, "count"),
        "lce.query_bound_ratio": (queries / bound, "ratio"),
        "matcher.kangaroo_s": (total(spans, "matcher.kangaroo"), "s"),
        "matcher.rounds": (max(len(r) for r in survivors(spans)), "count"),
        "matcher.table_mb": (count(spans, "matcher.kangaroo", "table_bytes") / MIB, "MiB"),
        "matcher.filter_s": (total(spans, "matcher.filter"), "s"),
        "matcher.approx_alignments": (approx, "count"),
        "matcher.exact_per_approx": (count(spans, "match", "exact") / approx, "ratio"),
    }


def coverage(spans, root_name):
    """Share of the root spans' time that their child spans account for."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == root_name]
    wall = sum(s["end"] - s["start"] for s in roots)
    return 1.0 - sum(own[s["id"]] for s in roots) / wall

"""The benchmark's traced run (``benchmark/run.py --trace 1``) wraps
degmatch's layer entry points by attribute name, so renaming or bypassing
one breaks it. These tests run one traced search through the benchmark's
own span code, as a library call and through the CLI, and one search
split into several blocks of alignments. The suffix index is built only
when a search spends its word budget, so its spans appear on the periodic
text alone."""

import json
import sys
from pathlib import Path

import pytest

import degmatch
import degmatch.cli as cli
import degmatch.core as core
import degmatch.lce as lce
import degmatch.matcher as matcher

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCHMARK))
import spans  # noqa: E402

SEARCHES = {
    "solid": ("ACGNTA", "TTACGATAGGACGCTAC"),
    "degenerate": ("ACGNTA", "TTACGATAGNNNRCGCTAC"),
    # in-phase alignments extend far past one word, so the search spends
    # its word budget and builds the index
    "periodic": ("ACG" * 10 + "N" + "CG" + "ACG" * 10, "ACG" * 100),
}
# the per-layer metrics that match_metrics feeds
LAYER_METRICS = {
    m["name"] for m in json.loads((BENCHMARK.parent / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"].split(".")[0] in ("matcher", "lce")
}
LAYER_SPANS = ("core.parse", "matcher.substitute", "lce.build", "matcher.kangaroo", "lce.query",
               "matcher.filter")
INDEX_SPANS = ("lce.suffix_sort", "lce.lcp", "lce.rmq")


def _library_search(tracer, pattern, text):
    with tracer.span("match") as record:
        report = degmatch.find_occurrences(core.parse_iupac(pattern), core.parse_iupac(text))
        spans.report_counts(record["attrs"], None, report)
    return report


def _cli_search(tracer, pattern, text):
    argv = ["-p", pattern, "--pattern-syntax", "iupac", "--text-syntax", "iupac", "--text", text]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("kind", sorted(SEARCHES))
@pytest.mark.parametrize(
    "parsers_of,run", [(core, _library_search), (cli, _cli_search)], ids=["core", "cli"]
)
def test_traced_search_reports_every_layer(parsers_of, run, kind, capsys):
    tracer = spans.Tracer()
    tracer.install(parsers_of)
    try:
        run(tracer, *SEARCHES[kind])
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for owner, attr in ((cli, "find_occurrences"), (matcher, "kangaroo_search"),
                        (lce.LceIndex, "lce_many"), (parsers_of, "parse_iupac")):
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    names = [s["name"] for s in tracer.spans]
    assert names.count("match") == 1
    assert set(LAYER_SPANS) <= set(names)
    index_spans = set(INDEX_SPANS) & set(names)
    assert index_spans == (set(INDEX_SPANS) if kind == "periodic" else set())
    metrics = spans.match_metrics(tracer.spans)
    assert set(metrics) == LAYER_METRICS
    assert metrics["lce.queries"][0] > 0


@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_traced_blocked_search_sums_its_blocks(kind, monkeypatch):
    # blocks of 8 cells give every search here at least three blocks
    monkeypatch.setattr(matcher, "BLOCK_CELLS", 8)
    tracer = spans.Tracer()
    tracer.install(core)
    try:
        report = _library_search(tracer, *SEARCHES[kind])
    finally:
        tracer.uninstall()

    assert [s["name"] for s in tracer.spans].count("matcher.kangaroo") >= 3
    metrics = spans.match_metrics(tracer.spans)
    assert set(metrics) == LAYER_METRICS
    assert metrics["lce.queries"][0] == report.lce_queries
    assert metrics["matcher.approx_alignments"][0] == len(report.approximate_occurrences)

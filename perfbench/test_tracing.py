"""The tracer counts nested entry points once and leaves no wrapper behind.

Run from the repository root::

    python3 -m pytest perfbench/test_tracing.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.core.push_pull as push_pull  # noqa: E402
import repro.graphs.generators as generators  # noqa: E402
from repro.engine.knowledge import FrontierKnowledge, KnowledgeMatrix  # noqa: E402
from tracing import Tracer, covered  # noqa: E402
from workloads import paper_graph_spec  # noqa: E402


def test_nested_exchange_counts_once_and_uninstall_restores(tmp_path):
    originals = (
        FrontierKnowledge.__dict__["apply_exchange"],
        KnowledgeMatrix.__dict__["apply_exchange"],
        push_pull.open_channels,
    )
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        graph = generators.make_graph(paper_graph_spec(8192), rng=3)
        result = push_pull.PushPullGossip().run(graph, rng=4)
    finally:
        tracer.uninstall()
    assert (
        FrontierKnowledge.__dict__["apply_exchange"],
        KnowledgeMatrix.__dict__["apply_exchange"],
        push_pull.open_channels,
    ) == originals

    total, own, calls = tracer.stats["engine.exchange"]
    # From 96 words per row on the frontier storage is used; it hands dense
    # rounds to its parent class, and that inner call must not open a
    # second span.
    assert isinstance(result.knowledge, FrontierKnowledge)
    assert calls == result.rounds
    assert 0 < own <= total
    run_total, run_self, run_calls = tracer.stats["core.run"]
    assert run_calls == 1 and run_self < run_total
    assert tracer.counts["runs"] == 1 and tracer.counts["rounds"] == result.rounds
    assert tracer.stats["graphs.build"][2] == 1
    assert tracer.stats["graphs.csr"][0] <= tracer.stats["graphs.build"][0]


def test_covered_merges_overlapping_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert covered([(0.0, 2.0), (1.0, 3.0)], 1.5, 2.5) == 1.0
    assert covered([], 0.0, 1.0) == 0.0

"""Each output check accepts the program's real output and rejects a corrupted one.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from repro.core.push_pull import PushPullGossip  # noqa: E402
from repro.graphs import complete_graph, make_graph  # noqa: E402
from repro.io.store import ResultStore  # noqa: E402
from workloads import paper_graph_spec  # noqa: E402

N = 512


@pytest.fixture(scope="module")
def graph():
    return make_graph(paper_graph_spec(N), rng=7)


@pytest.fixture(scope="module")
def push_pull(graph):
    return PushPullGossip().run(graph, rng=8)


def _csr(graph):
    return graph.indptr.copy(), graph.indices.copy()


def test_graph_check_accepts_sampled_and_complete_graphs(graph):
    assert checks.check_graph(graph.indptr, graph.indices, N, checks.paper_probability(N)) == []
    complete = complete_graph(64)
    assert checks.check_graph(complete.indptr, complete.indices, 64, None) == []


def test_graph_check_rejects_one_sided_edge(graph):
    indptr, indices = _csr(graph)
    row = indices[indptr[3] : indptr[4]]
    missing = np.setdiff1d(np.arange(N), np.append(row, 3))[0]
    indices[indptr[3]] = missing  # 3 -> missing, but not missing -> 3
    indices[indptr[3] : indptr[4]].sort()
    problems = checks.check_graph(indptr, indices, N, checks.paper_probability(N))
    assert any("one-sided" in p for p in problems)


def test_graph_check_rejects_self_loop_and_duplicate(graph):
    indptr, indices = _csr(graph)
    indices[indptr[5]] = 5
    assert any("self-loop" in p for p in checks.check_graph(indptr, indices, N, None))
    indptr, indices = _csr(graph)
    indices[indptr[5] + 1] = indices[indptr[5]]
    assert any("duplicate" in p for p in checks.check_graph(indptr, indices, N, None))


def test_graph_check_rejects_disconnected_graph():
    # Two disjoint triangles.
    indptr = np.array([0, 2, 4, 6, 8, 10, 12])
    indices = np.array([1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4])
    assert checks.check_graph(indptr, indices, 6, None) == [
        "graph is not connected",
        "complete graph has 6 edges, expected 15",
    ]


def test_graph_check_rejects_implausible_edge_count(graph):
    problems = checks.check_graph(
        graph.indptr, graph.indices, N, 2 * checks.paper_probability(N)
    )
    assert any("sigma" in p for p in problems)


def test_knowledge_check_accepts_complete_run(push_pull):
    blocks = [block for _, block in push_pull.knowledge.iter_blocks()]
    assert checks.check_knowledge_complete(blocks, N) == []


def test_knowledge_check_rejects_cleared_and_stray_bits(push_pull):
    rows = push_pull.knowledge.data.copy()
    rows[17, 2] &= ~np.uint64(1 << 9)
    assert checks.check_knowledge_complete([rows], N) != []
    # A row with a bit beyond n set: n = 500 leaves padding in the last word.
    full = np.tile(checks.full_row(500, 8), (500, 1))
    assert checks.check_knowledge_complete([full], 500) == []
    full[3, 7] |= np.uint64(1 << 60)
    assert checks.check_knowledge_complete([full], 500) != []


def test_sync_accounting_check(push_pull):
    ledger = push_pull.ledger
    packets = int(ledger.push_packets.sum() + ledger.pull_packets.sum())
    opens = ledger.channel_opens.copy()
    assert checks.check_sync_push_pull(opens, packets, push_pull.rounds) == []
    opens[4] += 1
    assert len(checks.check_sync_push_pull(opens, packets, push_pull.rounds)) == 2


def test_event_accounting_check():
    assert checks.check_event_push_pull(10, 20) == []
    assert checks.check_event_push_pull(11, 20) != []
    assert checks.check_event_push_pull(11, 20, unanswered=1) == []
    assert checks.check_event_push_pull(12, 20, unanswered=1) != []
    assert checks.check_event_push_pull(10, 21, unanswered=1) != []


def test_message_order_check():
    good = {"memory": 4.3, "fast-gossiping": 13.6, "push-pull": 22.0}
    assert checks.check_message_order(good) == []
    assert checks.check_message_order(dict(good, memory=14.0)) != []
    assert checks.check_message_order({"memory": 4.3}) != []


def test_store_check_rejects_garbled_changed_and_missing_lines(tmp_path):
    store_dir = tmp_path / "store"
    records = []
    with ResultStore(store_dir) as store:
        for rep in range(3):
            record = {"key": ["push-pull"], "repetition": rep, "rounds": 10 + rep}
            records.append(store.append("s", key=["push-pull"], params={}, repetition=rep,
                                        seed=1, record=record))
    path = store_dir / "s.jsonl"
    assert checks.check_store(path, records) == []
    assert checks.check_store(path, records[::-1]) == []

    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + lines[1][:-20] + b"#!garbage\n" + lines[2])
    assert any("does not parse" in p for p in checks.check_store(path, records))

    changed = json.loads(lines[1])
    changed["record"]["rounds"] += 1
    path.write_bytes(lines[0] + json.dumps(changed).encode() + b"\n" + lines[2])
    assert any("differs" in p for p in checks.check_store(path, records))

    path.write_bytes(lines[0] + lines[2])
    assert checks.check_store(path, records) != []

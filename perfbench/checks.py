"""Output checks computed apart from the simulator.

Every function here takes plain arrays, dicts or file paths and returns a
list of problems (empty when the output is correct).  Nothing in this module
imports ``repro``: the graph, knowledge and accounting invariants are
recomputed from the raw outputs with this file's own code, so a fault in the
program's helpers cannot also hide in the check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Allowed distance of a G(n, p) edge count from the Binomial mean, in
#: standard deviations.  A correct sampler leaves it with probability ~6e-7.
EDGE_SIGMAS = 5.0


def edge_probability(spec: Mapping[str, Any]) -> Optional[float]:
    """The edge probability a graph spec asks for; ``None`` for K_n.

    ``spec`` is the dict form the scenarios store (``kind``, ``n``,
    ``params``).  The paper density is ``p = log2(n)^2 / n`` and an expected
    degree ``d`` means ``p = d / (n - 1)``, both capped at 1.
    """
    n = int(spec["n"])
    if spec["kind"] == "complete":
        return None
    if spec["kind"] != "erdos_renyi":
        raise ValueError(f"no edge-count model for graph kind {spec['kind']!r}")
    params = spec.get("params", {})
    if params.get("p") is not None:
        return min(1.0, float(params["p"]))
    return min(1.0, float(params["expected_degree"]) / (n - 1))


def paper_probability(n: int) -> float:
    """``log2(n)^2 / n``, the density of Figure 1 and of the kernel workloads."""
    return min(1.0, math.log2(n) ** 2 / n)


#: Directed edges (or knowledge rows' words) handled per step, so that the
#: checks' temporaries stay far below the program's own peak memory.
CHUNK = 1 << 20


def _mix(keys: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a bijection on uint64, applied elementwise."""
    z = keys.astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _row_chunks(indptr: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive row ranges holding about :data:`CHUNK` edges each."""
    n = indptr.size - 1
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(indptr, indptr[lo] + CHUNK, side="right")) - 1
        hi = min(n, max(hi, lo + 1))
        yield lo, hi
        lo = hi


def _connected(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Breadth-first search from node 0 over the CSR arrays."""
    n = indptr.size - 1
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        reached = []
        for node in frontier:
            nbrs = indices[indptr[node] : indptr[node + 1]]
            fresh = nbrs[~seen[nbrs]]
            seen[fresh] = True
            reached.extend(fresh.tolist())
        frontier = reached
    return bool(seen.all())


def check_graph(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    p: Optional[float],
) -> List[str]:
    """A CSR graph is simple, symmetric, connected and of plausible size.

    ``p`` is the G(n, p) edge probability (edge count within
    :data:`EDGE_SIGMAS` of the Binomial mean), or ``None`` for the complete
    graph (edge count exact).  Symmetry compares the wrapping sums of a
    bijective hash over all ``(u, v)`` and all ``(v, u)`` keys: one
    one-sided edge always changes one sum and not the other.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        return [f"indptr is not a CSR offset array for n={n}"]
    degrees = np.diff(indptr)
    if (degrees < 0).any():
        return ["indptr is not monotone"]
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        return ["neighbour index out of range"]
    problems: List[str] = []
    loops = duplicates = 0
    forward = np.zeros(1, dtype=np.uint64)
    backward = np.zeros(1, dtype=np.uint64)
    for lo, hi in _row_chunks(indptr):
        dst = indices[indptr[lo] : indptr[hi]]
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees[lo:hi])
        loops += int((src == dst).sum())
        keys = np.sort(src * n + dst)
        duplicates += int((keys[1:] == keys[:-1]).sum())
        forward += _mix(keys).sum(dtype=np.uint64, keepdims=True)
        backward += _mix(dst * n + src).sum(dtype=np.uint64, keepdims=True)
    if loops:
        problems.append(f"{loops} self-loops")
    if duplicates:
        problems.append(f"{duplicates} duplicate edges")
    if forward[0] != backward[0] or indices.size % 2:
        problems.append("adjacency is not symmetric (one-sided edge)")
    if problems:
        return problems
    if not _connected(indptr, indices):
        problems.append("graph is not connected")
    edges = indices.size // 2
    pairs = n * (n - 1) // 2
    if p is None:
        if edges != pairs:
            problems.append(f"complete graph has {edges} edges, expected {pairs}")
    else:
        mean = pairs * p
        sigma = math.sqrt(pairs * p * (1.0 - p))
        if abs(edges - mean) > EDGE_SIGMAS * sigma + 0.5:
            problems.append(
                f"{edges} edges is more than {EDGE_SIGMAS:g} sigma from the "
                f"Binomial mean {mean:.1f} (sigma {sigma:.1f})"
            )
    return problems


def full_row(n: int, words: int) -> np.ndarray:
    """The packed bitset row with exactly bits ``0 .. n-1`` set."""
    row = np.zeros(words, dtype=np.uint64)
    row[: n // 64] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if n % 64:
        row[n // 64] = np.uint64((1 << (n % 64)) - 1)
    return row


def check_knowledge_complete(blocks: Iterable[np.ndarray], n: int) -> List[str]:
    """Every knowledge row holds all ``n`` message bits and nothing else.

    ``blocks`` are the raw ``(rows, words)`` uint64 row blocks in row order.
    Counts bits by popcount and compares each row against the full row.
    """
    rows_seen = 0
    short = 0
    for block in blocks:
        block = np.asarray(block)
        if block.dtype != np.uint64 or block.ndim != 2:
            return [f"knowledge block has dtype {block.dtype} and {block.ndim} dims"]
        expected = full_row(n, block.shape[1])
        step = max(1, CHUNK // max(1, block.shape[1]))
        for start in range(0, block.shape[0], step):
            rows = block[start : start + step]
            counts = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
            exact = (rows == expected).all(axis=1)
            short += int(((counts != n) | ~exact).sum())
        rows_seen += block.shape[0]
    problems: List[str] = []
    if rows_seen != n:
        problems.append(f"knowledge has {rows_seen} rows, expected {n}")
    if short:
        problems.append(f"{short} knowledge rows do not hold exactly the {n} message bits")
    return problems


def check_sync_push_pull(opens: np.ndarray, packets: int, rounds: int) -> List[str]:
    """Synchronous push-pull: every node opens once per round, 2 packets per open."""
    opens = np.asarray(opens)
    problems: List[str] = []
    if not (opens == rounds).all():
        problems.append(f"opens per node differ from rounds={rounds}")
    if packets != 2 * int(opens.sum()):
        problems.append(f"packets={packets} is not 2 x opens={int(opens.sum())}")
    return problems


def check_event_push_pull(opens: int, packets: int, unanswered: int = 0) -> List[str]:
    """Event-clock push-pull: each open carries one push and one pull.

    ``unanswered`` is how many opens may lack their exchange: 0 states the
    exact relation packets = 2 x opens.
    """
    if packets % 2 or not 0 <= opens - packets // 2 <= unanswered:
        return [f"packets={packets} is not 2 x opens={opens}"]
    return []


def check_message_order(per_node: Mapping[str, float]) -> List[str]:
    """Messages per node: memory < fast-gossiping < push-pull."""
    order = ("memory", "fast-gossiping", "push-pull")
    missing = [name for name in order if name not in per_node]
    if missing:
        return [f"no messages-per-node value for {', '.join(missing)}"]
    values = [float(per_node[name]) for name in order]
    if not values[0] < values[1] < values[2]:
        pretty = ", ".join(f"{name}={value:.3f}" for name, value in zip(order, values))
        return [f"messages per node out of order: {pretty}"]
    return []


def read_store_lines(path: Path) -> List[Dict[str, Any]]:
    """Parse a JSONL store file; raises ``ValueError`` on a garbled line."""
    entries = []
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, 1):
            try:
                entries.append(json.loads(raw))
            except ValueError as error:
                raise ValueError(f"{path.name} line {number} does not parse: {error}") from None
    return entries


def check_store(path: Path, records: Sequence[Mapping[str, Any]]) -> List[str]:
    """Every stored line re-parses to the record the program returned.

    Lines and records are matched by (key, repetition), so the check does
    not depend on the order in which a sweep finished its tasks.
    """
    try:
        entries = read_store_lines(path)
    except (OSError, ValueError) as error:
        return [str(error)]
    if len(entries) != len(records):
        return [f"{path.name} holds {len(entries)} lines for {len(records)} records"]
    returned = {_pair(record): record for record in records}
    problems: List[str] = []
    for number, entry in enumerate(entries, 1):
        if not isinstance(entry, dict) or "record" not in entry:
            problems.append(f"{path.name} line {number} is not a store entry")
        elif returned.get(_pair(entry)) != entry["record"]:
            problems.append(f"{path.name} line {number} differs from the returned record")
    return problems


def _pair(item: Mapping[str, Any]) -> str:
    return json.dumps([item.get("key"), item.get("repetition")])

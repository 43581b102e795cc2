"""Outside-in layer tracing: spans around the program's public entry points.

:class:`Tracer` replaces each entry point listed in :data:`ENTRY_POINTS` with
a timing wrapper while it is installed and puts the original back on
:meth:`Tracer.uninstall`; no program file changes.  A module-level function
is replaced in every loaded ``repro`` module that holds it, because callers
bind it by name (``from ..engine.channels import open_channels``).  Methods
are replaced on the class that defines them.

Spans nest.  A span's self time is its duration minus the time of the spans
it encloses.  A wrapper entered while a span of the same key is already open
(``FrontierKnowledge.apply_exchange`` calling ``KnowledgeMatrix.apply_exchange``)
records nothing, so every layer is counted once.  Spans opened with no span
around them are kept as intervals in :attr:`Tracer.top`: the time the
benchmark can attribute to some layer.  ``perf_counter`` reads one
system-wide monotonic clock, so intervals from sweep workers and from the
parent can be merged, and :func:`covered` counts time where they overlap once.

Sweep workers are forked from a process whose wrappers are installed, so
they trace too.  The forked copy starts empty (``os.register_at_fork``) and
rewrites its totals to ``<dump_dir>/worker-<pid>.json`` after every task;
:meth:`Tracer.collect_workers` adds those files to the parent's totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _count_graph(tracer: "Tracer", args: tuple, graph: Any) -> None:
    tracer.counts["graphs"] += 1
    tracer.counts["graph_edges"] += int(graph.num_edges)


def _count_run(tracer: "Tracer", args: tuple, result: Any) -> None:
    counts = tracer.counts
    counts["runs"] += 1
    counts["rounds"] += int(result.rounds)
    ledger = result.ledger
    counts["packets"] += int(ledger.push_packets.sum() + ledger.pull_packets.sum())
    knowledge = result.knowledge
    if knowledge is not None:
        counts["storage_bytes"] += int(knowledge.storage_nbytes())
        stats = knowledge.filter_stats
        counts["filter_edges"] += int(stats["edges"])
        counts["filter_dropped"] += int(stats["edges_dropped"])
    if result.extras.get("clock") == "event":
        counts["events"] += int(result.extras["events"])
        counts["event_batches"] += int(result.rounds)


def _count_append(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["appends"] += 1


def _dump_worker(tracer: "Tracer", args: tuple, result: Any) -> None:
    if tracer.in_worker:
        tracer.dump()


#: (module, attribute path, span key, hook run on the return value).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.graphs.generators", "make_graph", "graphs.build", _count_graph),
    ("repro.graphs.erdos_renyi", "erdos_renyi", "graphs.sample", None),
    ("repro.graphs.deterministic", "complete_graph", "graphs.sample", None),
    ("repro.graphs.adjacency", "Adjacency.from_edges", "graphs.csr", None),
    ("repro.graphs.adjacency", "Adjacency.is_connected", "graphs.connectivity", None),
    ("repro.engine.channels", "open_channels", "engine.channels", None),
    ("repro.graphs.adjacency", "Adjacency.sample_neighbors", "engine.channels", None),
    ("repro.engine.knowledge", "KnowledgeMatrix.apply_exchange", "engine.exchange", None),
    ("repro.engine.knowledge", "FrontierKnowledge.apply_exchange", "engine.exchange", None),
    ("repro.engine.knowledge", "KnowledgeMatrix.apply_transmissions", "engine.transmit", None),
    ("repro.engine.knowledge", "FrontierKnowledge.apply_transmissions", "engine.transmit", None),
    ("repro.engine.knowledge", "KnowledgeMatrix.scatter_rows", "engine.transmit", None),
    ("repro.engine.knowledge", "FrontierKnowledge.scatter_rows", "engine.transmit", None),
    ("repro.engine.knowledge", "KnowledgeMatrix.assign_rows", "engine.transmit", None),
    ("repro.engine.knowledge", "FrontierKnowledge.assign_rows", "engine.transmit", None),
    ("repro.engine.knowledge", "adaptive_knowledge", "engine.alloc", None),
    ("repro.core.completion", "CompletionTracker.update", "core.tracker", None),
    ("repro.core.completion", "CompletionTracker.refresh", "core.tracker", None),
    ("repro.core.push_pull", "PushPullGossip.run", "core.run", _count_run),
    ("repro.core.fast_gossiping", "FastGossiping.run", "core.run", _count_run),
    ("repro.core.memory_gossiping", "MemoryGossiping.run", "core.run", _count_run),
    ("repro.io.store", "ResultStore.append", "io.append", _count_append),
    # The sweep worker's call of one task: the only per-task boundary the
    # supervised path crosses inside the worker.
    ("repro.analysis.sweep", "_run_one", "analysis.task", _dump_worker),
)


class Tracer:
    """Span and count totals for the entry points in :data:`ENTRY_POINTS`.

    ``stats[key]`` is ``[total seconds, self seconds, calls]``; ``counts``
    holds the values the return hooks read off results.
    """

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self.parent_pid = os.getpid()
        self.in_worker = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.top: List[Tuple[float, float]] = []
        self._child_time: List[float] = []
        self._open: Dict[str, int] = defaultdict(int)

    def _after_fork(self) -> None:
        self.in_worker = os.getpid() != self.parent_pid
        self.reset()

    # -- spans ----------------------------------------------------------- #
    def _enter(self, key: str) -> float:
        self._open[key] += 1
        self._child_time.append(0.0)
        return perf_counter()

    def _exit(self, key: str, start: float) -> None:
        duration = perf_counter() - start
        self._open[key] -= 1
        child = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        else:
            self.top.append((start, start + duration))
        entry = self.stats[key]
        entry[0] += duration
        entry[1] += duration - child
        entry[2] += 1

    @contextmanager
    def span(self, key: str) -> Iterator[None]:
        """A span opened by the benchmark itself, around a call into a layer."""
        start = self._enter(key)
        try:
            yield
        finally:
            self._exit(key, start)

    def wrap(self, fn: Callable, key: str, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[key]:
                return fn(*args, **kwargs)
            start = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(key, start)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------ #
    def install(self) -> None:
        """Put the timing wrappers in place of every entry point."""
        if self._patches:
            return
        for module_name, path, key, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(raw.__func__, key, hook))
                else:
                    replacement = self.wrap(raw, key, hook)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            original = getattr(module, path)
            replacement = self.wrap(original, key, hook)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, attr, original))
                        setattr(loaded, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- worker totals --------------------------------------------------- #
    def _snapshot(self) -> Dict[str, Any]:
        return {"stats": dict(self.stats), "counts": dict(self.counts), "top": self.top}

    def dump(self) -> None:
        """Write this worker's totals so far (rewritten after every task)."""
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(self._snapshot()))
        os.replace(scratch, path)

    def collect_workers(self) -> int:
        """Add every worker dump to this tracer's totals and delete it."""
        found = 0
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            for key, (total, own, calls) in data["stats"].items():
                entry = self.stats[key]
                entry[0] += total
                entry[1] += own
                entry[2] += calls
            for key, value in data["counts"].items():
                self.counts[key] += value
            self.top += [tuple(interval) for interval in data["top"]]
            path.unlink()
            found += 1
        return found


#: Unit of every per-layer metric :func:`layer_metrics` returns.
LAYER_UNITS = {
    "graphs.build_s": "s",
    "graphs.csr_s": "s",
    "graphs.sample_s": "s",
    "graphs.connectivity_s": "s",
    "graphs.edges": "count",
    "engine.exchange_s": "s",
    "engine.exchange_calls": "count",
    "engine.transmit_s": "s",
    "engine.channels_s": "s",
    "engine.alloc_s": "s",
    "engine.filter_dropped_per_seen": "ratio",
    "engine.events": "count",
    "engine.event_batches": "count",
    "engine.storage_mb": "MB",
    "core.tracker_s": "s",
    "core.protocol_self_s": "s",
    "core.rounds": "count",
    "core.packets": "count",
    "io.append_s": "s",
    "io.resume_s": "s",
    "io.store_bytes": "bytes",
    "analysis.orchestration_s": "s",
    "trace.overhead_s": "s",
}


def covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(
    tracer: Tracer,
    *,
    timed_wall: float,
    top_in_timed: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """The per-layer metrics from a tracer's totals over the traced rounds.

    Times of the engine and core layers are seconds per run, graph values
    are per graph built, the store values per stored record.  The
    benchmark adds ``stored_records``, ``store_bytes`` and
    ``resumed_records`` to :attr:`Tracer.counts` itself.
    ``timed_wall`` is the traced rounds' wall time, ``top_in_timed`` the part
    of it covered by top-level spans and ``untraced_wall`` the same rounds'
    wall time with the tracer uninstalled.
    """
    stats = tracer.stats
    counts = tracer.counts
    runs = max(1.0, counts["runs"])
    graphs = max(1.0, counts["graphs"])
    appends = max(1.0, counts["appends"])

    def total(key: str) -> float:
        return stats[key][0] if key in stats else 0.0

    def own(key: str) -> float:
        return stats[key][1] if key in stats else 0.0

    def calls(key: str) -> float:
        return stats[key][2] if key in stats else 0.0

    edges_seen = counts["filter_edges"]
    return {
        "graphs.build_s": total("graphs.build") / graphs,
        "graphs.csr_s": total("graphs.csr") / graphs,
        "graphs.sample_s": own("graphs.sample") / graphs,
        "graphs.connectivity_s": total("graphs.connectivity") / graphs,
        "graphs.edges": counts["graph_edges"] / graphs,
        "engine.exchange_s": total("engine.exchange") / runs,
        "engine.exchange_calls": calls("engine.exchange") / runs,
        "engine.transmit_s": total("engine.transmit") / runs,
        "engine.channels_s": total("engine.channels") / runs,
        "engine.alloc_s": total("engine.alloc") / runs,
        "engine.filter_dropped_per_seen": (
            counts["filter_dropped"] / edges_seen if edges_seen else 0.0
        ),
        "engine.events": counts["events"] / runs,
        "engine.event_batches": counts["event_batches"] / runs,
        "engine.storage_mb": counts["storage_bytes"] / runs / 1e6,
        "core.tracker_s": total("core.tracker") / runs,
        "core.protocol_self_s": own("core.run") / runs,
        "core.rounds": counts["rounds"] / runs,
        "core.packets": counts["packets"] / runs,
        "io.append_s": total("io.append") / appends,
        "io.resume_s": total("io.resume") / max(1.0, counts["resumed_records"]),
        "io.store_bytes": counts["store_bytes"] / max(1.0, counts["stored_records"]),
        "analysis.orchestration_s": (timed_wall - top_in_timed) / runs,
        "trace.overhead_s": (timed_wall - untraced_wall) / runs,
    }

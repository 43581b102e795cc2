"""The benchmark's workloads: inputs made from the seed, timed rounds, checks.

A workload builds its inputs in :meth:`Workload.setup`, then runs whole
rounds (:meth:`Workload.round`) until the session has timed enough.  A round
times its runs, checks every run's output with :mod:`checks` (untimed) and
reports what it attempted and how many operations failed a check.

Every run is one (configuration, repetition) simulation.  All seeds derive
from the benchmark's ``--seed`` through :func:`derive`, so one seed always
gives the same graphs and the same simulations.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from statistics import mean
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

import checks
import repro.graphs.generators as generators
from repro.analysis.supervisor import RetryPolicy
from repro.analysis.sweep import expand_grid
from repro.engine.metrics import MessageAccounting
from repro.experiments.runner import make_protocol
from repro.experiments.scenarios import get_scenario, resolve_config, run_scenario
from repro.graphs.generators import GraphSpec
from repro.io.store import ResultStore
from tracing import Tracer, covered

PROTOCOLS = ("push-pull", "fast-gossiping", "memory")


def derive(*parts: int) -> int:
    """A 63-bit seed from integer parts (``SeedSequence`` mixing)."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)
    return int(state[0] % np.uint64(2**63 - 1))


def protocol_options(name: str) -> Optional[Dict[str, Any]]:
    """The scenarios' options: the memory model gathers at leader 0."""
    return {"leader": 0} if name == "memory" else None


def paper_graph_spec(n: int) -> GraphSpec:
    """G(n, log2(n)^2 / n), required connected, as Figure 1 builds it."""
    return GraphSpec(
        kind="erdos_renyi",
        n=n,
        params={"p": checks.paper_probability(n), "require_connected": True},
    )


@dataclass
class RoundOutcome:
    """What one round measured and checked."""

    #: Runs completed in the timed part.
    runs: int = 0
    #: Wall seconds of single runs (see :meth:`SweepPaper.round`).
    walls: List[float] = field(default_factory=list)
    timed_wall: float = 0.0
    #: Part of ``timed_wall`` inside top-level trace spans (traced rounds).
    top_in_timed: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: What the checks found on operations expected to pass.
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base class: seed, working directory and the optional tracer."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer] = None) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tracer = tracer
        #: Whether the current rounds are traced (the session flips this).
        self.traced = tracer is not None

    @contextmanager
    def section(self, outcome: Optional[RoundOutcome] = None) -> Iterator[None]:
        """Run the enclosed calls traced when tracing is on.

        With ``outcome`` the section is timed work: the part of it covered
        by top-level spans is added to ``outcome.top_in_timed``.
        """
        if not self.traced:
            yield
            return
        self.tracer.install()
        self.tracer.top.clear()
        start = perf_counter()
        try:
            yield
        finally:
            self.tracer.uninstall()
            if outcome is not None:
                outcome.top_in_timed += covered(self.tracer.top, start, perf_counter())

    def span(self, key: str):
        return self.tracer.span(key) if self.traced else nullcontext()

    def count(self, key: str, value: float) -> None:
        if self.traced:
            self.tracer.counts[key] += value

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> RoundOutcome:
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the last traced round."""


class _SharedGraphWorkload(Workload):
    """One G(n, log2(n)^2/n) built in set-up; runs persist to one store."""

    n = 0
    scenario = ""

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        with self.section():
            self.graph = generators.make_graph(paper_graph_spec(self.n), rng=derive(self.seed, 0))
        self.graph_problems: Optional[List[str]] = None
        #: Records persisted so far, per store (traced rounds use their own).
        self.records: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}

    @property
    def store_dir(self) -> Path:
        return self.workdir / ("store-traced" if self.traced else "store")

    def run_once(self, protocol: str, seed: int, outcome: RoundOutcome, **run_kwargs):
        """One timed run; returns its result."""
        with self.section(outcome):
            start = perf_counter()
            result = make_protocol(protocol, protocol_options=protocol_options(protocol)).run(
                self.graph, rng=seed, **run_kwargs
            )
            wall = perf_counter() - start
        outcome.runs += 1
        outcome.walls.append(wall)
        outcome.timed_wall += wall
        return result

    def check_run(self, result) -> List[str]:
        if self.graph_problems is None:
            self.graph_problems = checks.check_graph(
                self.graph.indptr, self.graph.indices, self.n, checks.paper_probability(self.n)
            )
        problems = list(self.graph_problems)
        if not result.completed:
            problems.append(f"{result.protocol} run did not complete")
        problems += checks.check_knowledge_complete(
            (block for _, block in result.knowledge.iter_blocks()), self.n
        )
        return problems

    def record(self, index: int, result, protocol: str) -> Dict[str, Any]:
        return {
            "key": [protocol],
            "repetition": index,
            "protocol": protocol,
            "rounds": int(result.rounds),
            "messages_per_node": result.messages_per_node(MessageAccounting.PACKETS),
        }

    def persist(self, index: int, records: List[Dict[str, Any]]) -> List[str]:
        """Append the round's records, reload the store and compare it."""
        persisted = self.records[self.traced]
        persisted += records
        with self.section():
            with ResultStore(self.store_dir) as store:
                for record in records:
                    store.append(
                        self.scenario,
                        key=record["key"],
                        params={"n": self.n},
                        repetition=index,
                        seed=self.seed,
                        record=record,
                    )
            with self.span("io.resume"):
                with ResultStore(self.store_dir, index=False) as reread:
                    resumed = reread.completed(self.scenario)
        path = self.store_dir / f"{self.scenario}.jsonl"
        self.count("stored_records", len(records))
        self.count("resumed_records", len(resumed))
        problems = checks.check_store(path, persisted)
        if len(resumed) != len(persisted):
            problems.append(f"reload found {len(resumed)} of {len(persisted)} records")
        return problems

    def finish(self) -> None:
        """Store size per record, counted once after the last round."""
        stored = [self.store_dir / f"{self.scenario}.jsonl", self.store_dir / "index.sqlite"]
        self.count("store_bytes", sum(p.stat().st_size for p in stored if p.exists()))


class ProtocolsN20k(_SharedGraphWorkload):
    """Push-pull, fast-gossiping and memory in turn on one G(20000, p)."""

    name = "protocols-n20k"
    scenario = "protocols_n20k"
    n = 20000

    def round(self, index: int) -> RoundOutcome:
        outcome = RoundOutcome()
        records = []
        problems_by_run = []
        for k, protocol in enumerate(PROTOCOLS):
            result = self.run_once(protocol, derive(self.seed, 1, index, k), outcome)
            problems = self.check_run(result)
            if protocol == "push-pull":
                ledger = result.ledger
                problems += checks.check_sync_push_pull(
                    ledger.channel_opens,
                    int(ledger.push_packets.sum() + ledger.pull_packets.sum()),
                    int(result.rounds),
                )
            records.append(self.record(index, result, protocol))
            problems_by_run.append(problems)
            del result
        order = checks.check_message_order(
            {r["protocol"]: r["messages_per_node"] for r in records}
        )
        store_problems = self.persist(index, records)
        for problems in problems_by_run:
            problems += order + store_problems
        outcome.attempted = len(PROTOCOLS)
        outcome.failed = sum(1 for p in problems_by_run if p)
        outcome.problems = [msg for p in problems_by_run for msg in p]
        return outcome


class EventN8k(_SharedGraphWorkload):
    """Event-clock push-pull runs on one G(8192, p), plus the accounting probe.

    The probe is a fixed-input event run (independent of ``--seed``) checked
    for the exact relation packets = 2 x opens.  The event clock charges the
    wakeup that closes the final batch an open although its exchange never
    happens, so the probe fails on every round; seeded runs allow that one
    unanswered open and check everything else.
    """

    name = "event-n8k"
    scenario = "event_n8k"
    n = 8192
    probe_n = 64

    def round(self, index: int) -> RoundOutcome:
        outcome = RoundOutcome()
        result = self.run_once("push-pull", derive(self.seed, 2, index), outcome, clock="event")
        problems = self.check_run(result)
        problems += self.check_accounting(result, unanswered=1)
        records = [self.record(index, result, "push-pull")]
        del result
        problems += self.persist(index, records)
        outcome.attempted = 2
        outcome.problems = problems
        outcome.failed = int(bool(problems)) + int(bool(self.probe()))
        return outcome

    @staticmethod
    def check_accounting(result, unanswered: int) -> List[str]:
        ledger = result.ledger
        opens = int(ledger.channel_opens.sum())
        packets = int(ledger.push_packets.sum() + ledger.pull_packets.sum())
        problems = checks.check_event_push_pull(opens, packets, unanswered)
        if opens != int(result.extras["events"]):
            problems.append(f"opens={opens} differ from wakeups={result.extras['events']}")
        return problems

    @cached_property
    def probe_graph(self):
        # Built on first use, outside set-up and outside any traced section.
        return generators.make_graph(paper_graph_spec(self.probe_n), rng=1)

    def probe(self) -> List[str]:
        result = make_protocol("push-pull").run(self.probe_graph, rng=2, clock="event")
        return self.check_accounting(result, unanswered=0)


class SweepPaper(Workload):
    """Figure 1 and the density sweep, supervised, into a fresh store; resumed."""

    name = "sweep-paper"
    scenarios = ("figure1", "density")

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs = {name: get_scenario(name) for name in self.scenarios}

    def round(self, index: int) -> RoundOutcome:
        outcome = RoundOutcome()
        base = derive(self.seed, 3, index) % 2**31
        out = self.workdir / f"sweep-{index}"
        shutil.rmtree(out, ignore_errors=True)
        results = {}
        resumed = {}
        with self.section(outcome):
            start = perf_counter()
            with ResultStore(out / "store") as store:
                for name in self.scenarios:
                    results[name] = run_scenario(
                        self.specs[name],
                        seed=base,
                        n_jobs=1,
                        store=store,
                        supervise=True,
                        policy=RetryPolicy(),
                    )
                    results[name].save(out)
            # The resume pass opens the store afresh, as a rerun would.
            with self.span("io.resume"), ResultStore(out / "store") as store:
                for name in self.scenarios:
                    resumed[name] = run_scenario(
                        self.specs[name],
                        seed=base,
                        n_jobs=1,
                        store=store,
                        resume=True,
                        supervise=True,
                        policy=RetryPolicy(),
                    )
            outcome.timed_wall = perf_counter() - start
            if self.traced and not self.tracer.collect_workers():
                raise RuntimeError("the sweep worker wrote no spans (was it forked?)")
        # The worker runs the next task while the parent stores the last
        # one, so single runs have no wall time of their own here: a run's
        # wall is the round's wall shared out over its runs.
        outcome.runs = sum(len(results[name].raw_records) for name in self.scenarios)
        outcome.walls = [outcome.timed_wall / outcome.runs]
        for name in self.scenarios:
            self.count("stored_records", len(results[name].raw_records))
            self.count("resumed_records", len(resumed[name].raw_records))
        self.count("store_bytes", sum(p.stat().st_size for p in (out / "store").iterdir()))
        for name in self.scenarios:
            attempted, failed, problems = self.check_scenario(
                name, base, results[name], resumed[name], out / "store" / f"{name}.jsonl"
            )
            outcome.attempted += attempted
            outcome.failed += failed
            outcome.problems += problems
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def check_scenario(self, name, base, result, resumed, path):
        """(attempted, failed, problems) of one scenario's runs."""
        spec = self.specs[name]
        config = resolve_config(spec, seed=base)
        tasks = expand_grid(spec.grid(config), config.repetitions, config.seed)
        records = result.raw_records
        bad: set = set()
        problems: List[str] = []

        def fail(message: str, keys) -> None:
            problems.append(f"{name}: {message}")
            bad.update(keys)

        every = {_run_key(task) for task in tasks}
        missing = every - {_run_key(r) for r in records}
        report = result.metadata.get("sweep_report", {})
        if missing or report.get("retries") or report.get("quarantined"):
            fail(f"{len(tasks) - len(missing)} of {len(tasks)} runs returned; report {report}", missing)
        store_problems = checks.check_store(path, records)
        if store_problems:
            fail("; ".join(store_problems), every)
        if resumed.metadata["cache"]["executed"] != 0:
            fail(f"resume executed {resumed.metadata['cache']['executed']} runs", every)
        if resumed.rows != result.rows or resumed.raw_records != records:
            fail("resume yields different rows", every)
        for record in records:
            if not record["completed"]:
                fail(f"run {_run_key(record)} did not complete", {_run_key(record)})

        groups: Dict[str, List[Dict[str, Any]]] = {}
        for record in records:
            groups.setdefault(record["graph"], []).append(record)
        for graph, members in groups.items():
            per_node = {
                protocol: mean(r["messages_per_node"] for r in members if r["protocol"] == protocol)
                for protocol in {r["protocol"] for r in members}
            }
            for message in checks.check_message_order(per_node):
                fail(f"{graph}: {message}", {_run_key(r) for r in members})

        # One graph per graph spec is rebuilt from its stored seed and checked
        # (all of them would double the round's time: graphs dominate it).
        checked = set()
        by_key = {_run_key(r): r for r in records}
        for task in tasks:
            graph_spec = task.params["graph_spec"]
            described = GraphSpec.from_dict(graph_spec).describe()
            if described in checked:
                continue
            checked.add(described)
            graph = generators.make_graph(GraphSpec.from_dict(graph_spec), rng=task.seed)
            found = checks.check_graph(
                graph.indptr, graph.indices, graph.n, checks.edge_probability(graph_spec)
            )
            record = by_key.get(_run_key(task))
            if record is None or record["mean_degree"] != graph.mean_degree():
                found.append("rebuilt graph differs from the one the run used")
            if found:
                fail(f"{described}: {'; '.join(found)}", {_run_key(r) for r in groups.get(described, [])})
        return len(tasks), len(bad), problems


def _run_key(item) -> str:
    if isinstance(item, dict):
        return json.dumps([item["key"], item["repetition"]])
    return json.dumps([list(item.key), item.repetition])


WORKLOADS = {cls.name: cls for cls in (SweepPaper, ProtocolsN20k, EventN8k)}

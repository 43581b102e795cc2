"""One measured benchmark process (started by ``run.py``, not by hand).

Modes:

``--prepare``
    Import everything the workloads use, which builds the compiled kernel
    cache, and check that the serial compiled backend is the active one.
    Prints one ``env`` JSON line.  Untimed.
``--setup-only``
    Do a workload's set-up, print ``READY`` and exit: one set-up sample.
default
    Set up, print ``READY``, run whole rounds until ``--seconds`` of timed
    work, then print one ``env`` JSON line and the result JSON line.  With
    ``--trace 1`` the rounds run twice with the same seeds, first untraced
    and then traced, and the result holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter


def steal_ticks() -> int:
    """Host-wide stolen CPU ticks so far (``/proc/stat``), or -1."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return -1
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child (sweep worker), MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def environment() -> dict:
    """Check the pinned kernel backend; return what the run executed on."""
    from repro.engine import _ckernel, backends

    backend = backends.active().describe()
    if backend["name"] != "c" or not backend["compiled"] or not _ckernel.available():
        raise SystemExit(
            f"benchmark needs the serial compiled kernels, got backend {backend}; "
            "is a C compiler available?"
        )
    return {
        "backend": backend["name"],
        "simd": backend["simd"]["active"],
        "cpu_count": os.cpu_count(),
    }


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.prepare:
        start = perf_counter()
        import repro.engine._ckernel  # noqa: F401  (builds the kernel cache)

        build_s = perf_counter() - start
        import workloads  # noqa: F401  (imports every module the runs use)

        emit({"env": dict(environment(), kernel_load_s=build_s)})
        return 0

    import workloads
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    env = environment()
    tracer = Tracer(args.workdir) if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        cpu0, steal0 = cpu_seconds(), steal_ticks()
        outcomes = []
        timed = 0.0
        index = 0
        budget = args.seconds / 2 if args.trace else args.seconds
        workload.traced = False
        while index == 0 or timed < budget:
            outcome = workload.round(index)
            outcomes.append(outcome)
            timed += outcome.timed_wall
            index += 1
        if args.trace:
            workload.traced = True
            traced = [workload.round(i) for i in range(index)]
            workload.finish()
            outcomes += traced
        env.update(
            cpu_s=cpu_seconds() - cpu0,
            steal_ticks=steal_ticks() - steal0,
            rounds=len(outcomes),
        )

        problems = [p for o in outcomes for p in o.problems]
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
        }
        if args.trace:
            metrics = layer_metrics(
                tracer,
                timed_wall=sum(o.timed_wall for o in traced),
                top_in_timed=sum(o.top_in_timed for o in traced),
                untraced_wall=timed,
            )
            units = LAYER_UNITS
        else:
            metrics = {
                "runs_per_s": sum(o.runs for o in outcomes) / timed,
                "run_s_p50": median(w for o in outcomes for w in o.walls),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = {"runs_per_s": "1/s", "run_s_p50": "s", "peak_rss_mb": "MB"}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        emit({"env": env})
        emit(result)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

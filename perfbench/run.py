"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload protocols-n20k --seed 1 --seconds 20 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the environment
(backend, SIMD level, CPU count, CPU seconds, stolen ticks).

This process only orchestrates, so that every measured process starts cold
and the same way:

1. it pins the environment (serial compiled kernels, caches under
   ``.bench_build/perfbench`` in the checkout) and imports everything once
   in an untimed child, which builds the kernel cache and fails unless the
   compiled kernels are active;
2. it starts several set-up-only children; ``setup_s`` is the median time
   from starting such a child to its ``READY`` line, the measured child
   included;
3. it starts the measured child (``session.py``), whose only children are
   sweep workers, so its peak RSS is the workload's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"

#: Set-up-only samples per run, besides the measured child's own set-up.
#: Set-up of the kernel workloads builds their graph (~2 s at n=20000).
SETUP_SAMPLES = {"sweep-paper": 6, "protocols-n20k": 2, "event-n8k": 4}

#: Whole run, orchestration included, must end within this many seconds.
DEADLINE_S = 170.0


def pinned_environment(cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    home = cache / "home"
    tmp = cache / "tmp"
    (home / ".cache").mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        # Steal on either vCPU of a small shared host stalls every sharded
        # round, so the serial compiled kernels are the measured backend.
        REPRO_KERNEL_BACKEND="c",
        PYTHONPATH=str(ROOT / "src"),
        # The kernel library is cached under $HOME/.cache; keep it in the
        # checkout.
        HOME=str(home),
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Child:
    """A ``session.py`` process whose output lines are read as they come."""

    def __init__(self, args: list, env: dict, deadline: float) -> None:
        self.started = perf_counter()
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(SESSION), *args],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready_s = None
        self.lines = []

    def wait(self) -> int:
        """Read all output (noting when READY came) and reap the process.

        A child still running at the deadline is killed, which ends the
        output and makes the exit code non-zero.
        """
        killer = threading.Timer(max(0.0, self.deadline - monotonic()), self.proc.kill)
        killer.start()
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY" and self.ready_s is None:
                    self.ready_s = perf_counter() - self.started
                else:
                    self.lines.append(line.rstrip("\n"))
        finally:
            killer.cancel()
            self.proc.stdout.close()
            code = self.proc.wait()
        return code

    def json_lines(self) -> list:
        return [json.loads(line) for line in self.lines if line.startswith("{")]


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}; run from a full checkout", 2)

    deadline = monotonic() + DEADLINE_S
    cache = ROOT / ".bench_build" / "perfbench"
    env = pinned_environment(cache)

    prepare = Child(["--prepare"], env, deadline)
    if prepare.wait() != 0:
        return fail("environment check failed (see above)")
    environment = prepare.json_lines()[-1]["env"]

    workdir = cache / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir"]
    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES[args.workload]):
            probe = Child([*common, str(workdir) + f"-setup{i}", "--setup-only"], env, deadline)
            if probe.wait() != 0 or probe.ready_s is None:
                return fail("set-up failed")
            setup_samples.append(probe.ready_s)

    session = Child(
        [*common, str(workdir), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env,
        deadline,
    )
    if session.wait() != 0 or session.ready_s is None:
        return fail("benchmark session failed")
    *_, env_line, result = session.json_lines()
    setup_samples.append(session.ready_s)

    environment.update(env_line["env"], setup_samples_s=setup_samples)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": median(setup_samples), "unit": "s"}
    print(json.dumps({"env": environment}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

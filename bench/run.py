"""Offline benchmark for dualthink, one workload per run.

    python3 bench/run.py --workload gate_http --seed 1 --seconds 20 --trace 0

Run from the repository root. The run writes the workload's inputs, made from
the seed, under ``.bench_work/``, starts the loopback stand-in server if the
workload talks HTTP, and runs the workload in a fresh worker process
(``workload.py``). It prints each metric with its unit and sample count, then
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced run and writes its
spans to ``.bench_out/``.

Exit status: 0 when every output check passes, 1 when one fails or the
worker dies, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170


def start_server(workload, seed: int) -> tuple[subprocess.Popen, str]:
    server = subprocess.Popen(
        [
            sys.executable, str(BENCH / "standin.py"), "--seed", str(seed),
            "--base-ms", str(workload.base_ms), "--per-token-ms", str(workload.per_token_ms),
            "--http503-pct", str(workload.http503_pct),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = server.stdout.readline().split()
    if len(line) != 2 or line[0] != "PORT":
        stop(server)
        raise RuntimeError(f"stand-in server did not start: {line}")
    return server, f"http://127.0.0.1:{line[1]}"


def stop(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="Offline benchmark for dualthink.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualthink" / "__init__.py").is_file():
        print(f"no dualthink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = ROOT / ".bench_out" / f"spans-{workload.name}-{args.seed}.jsonl"
    server = None
    try:
        generate(workload, args.seed, work)
        command = [
            sys.executable, str(BENCH / "workload.py"), "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work),
        ]
        if args.trace:
            spans.parent.mkdir(exist_ok=True)
            command += ["--spans", str(spans)]
        if workload.http503_pct is not None:
            server, endpoint = start_server(workload, args.seed)
            command += ["--endpoint", endpoint]
        remaining = DEADLINE_S - (time.monotonic() - started)
        worker = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            stop(server)
        shutil.rmtree(work, ignore_errors=True)
    lines = worker.stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"worker exited with status {worker.returncode}", file=sys.stderr)
        return 1
    outcome = json.loads(lines[-1])
    for failure in outcome["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not outcome["failures"] and outcome["failed"] == 0
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {outcome['attempted']}  failed {outcome['failed']}")
    metrics = {}
    for name, (value, unit, count) in outcome["metrics"].items():
        print(f"  {name:<38} {value:>14.4f} {unit:<6} n={count}")
        if name != "error_pct":
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

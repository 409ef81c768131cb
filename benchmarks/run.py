"""Benchmark of the tsirelson package: one workload per invocation.

    python3 benchmarks/run.py --workload norm-large --seed 1 --seconds 55 --trace 0

Run from the repository root.  Each workload runs in a fresh interpreter
(``worker.py``) against the sources under ``src/``.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` replays a fixed number of rounds
untraced and then traced, and prints the per-layer metrics with the tracing
overhead.  Human-readable lines come first, then a ``report`` line with the
machine stamp, work counts and failures, and last one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    DEFAULT_SEED,
    MOVES,
    PER_LAYER,
    TRACE_ROUNDS,
    UNITS,
    WORKLOADS,
)

SETUP_PROBES = 9  # set-up-only interpreters, besides the measuring one
DEADLINE_S = 170  # the whole run, all workers included, ends before this
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0, help="timed busy time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def _spawn(args, extra, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--root", str(ROOT),
        *(["--tiny"] if args.tiny else []), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it, with that percentile and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _stamp(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsirelson").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _end_to_end(args, deadline):
    probes = 1 if args.tiny else SETUP_PROBES
    setups = [_spawn(args, ["--probe"], deadline)["setup_s"] for _ in range(probes)]
    run = _spawn(args, ["--seconds", str(args.seconds)], deadline)
    setups.append(run["setup_s"])
    lat = run["latencies_ms"]
    tail, percentile, samples = _tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["attempted"] / run["busy_s"],
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {
        "fail_rate": run["bad"] / run["attempted"],
        "op_tail_percentile": percentile,
        "op_tail_samples": samples,
        "setup_samples_s": setups,
    }
    return metrics, extra, [run]


def _per_layer(args, deadline):
    rounds = ["--rounds", str(1 if args.tiny else TRACE_ROUNDS[args.workload])]
    plain = _spawn(args, rounds, deadline)
    traced = _spawn(args, [*rounds, "--trace", "1"], deadline)
    layers = traced["layers"]
    metrics = {name: layers.get(name, 0) for name, *_ in PER_LAYER}
    metrics["families.memo_entries"] = traced["memo_entries"]
    if args.workload == "cli":
        metrics["cli.process_ms"] = statistics.median(traced["latencies_ms"])
        metrics["cli.run_ms"] = statistics.median(traced["cli_run_ms"])
        metrics["cli.startup_ms"] = metrics["cli.process_ms"] - metrics["cli.run_ms"]
    metrics["tracing.overhead_frac"] = 1 - (
        traced["attempted"] / traced["busy_s"] / (plain["attempted"] / plain["busy_s"])
    )
    work = {
        k: v for k, v in sorted(layers.items())
        if k.endswith((".calls", ".sets", "intervals", "rows_checked", "rows_failed"))
    }
    work["families.memo_entries"] = traced["memo_entries"]
    extra = {"work": work, "moves": MOVES}
    return metrics, extra, [plain, traced]


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "tsirelson" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, extra, runs = _per_layer(args, deadline)
        else:
            metrics, extra, runs = _end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"tsirelson benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    shown = {**metrics, **({"fail_rate": extra["fail_rate"]} if "fail_rate" in extra else {})}
    for name, value in shown.items():
        print(f"  {name:<42} {value:>14.6g} {UNITS[name]}")
    report = {
        "stamp": _stamp(args),
        **extra,
        "rounds": [r["rounds"] for r in runs],
        "ops_by_kind": runs[-1]["kinds"],
        "work_round0": runs[-1]["work_round0"],
        "errors": [e for r in runs for e in r["errors"]],
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

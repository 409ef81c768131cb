"""Runs one workload in a fresh interpreter and prints its measurements as
one JSON line.  ``run.py`` starts it; see README.md.

Set-up is measured from ``--spawned-at`` (the parent's ``perf_counter``
just before it started this process; the clock is system-wide on Linux) to
the moment the package is imported and the workload's spaces are built.
"""

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports tsirelson)
from tracer import Tracer  # noqa: E402

MIN_OPS = 20  # op_tail_ms needs at least 10 samples beyond its percentile
MAX_ERRORS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, help="run exactly this many rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--probe", action="store_true", help="measure set-up only")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--root", required=True)
    return p.parse_args(argv)


def _check(op, result):
    """None when the output passes its check, else what went wrong."""
    try:
        return None if op.check(result) else f"{op.kind}: output check failed"
    except Exception as exc:  # a check that raises is a failed check
        return f"{op.kind}: check raised {type(exc).__name__}: {exc}"


def measure(workload, seed, seconds, rounds, tracer, workdir: Path):
    """Closed loop: one operation at a time, in whole rounds, for about
    ``seconds`` of timed busy time (or for exactly ``rounds`` rounds)."""
    perf = time.perf_counter
    latencies, kinds, errors = [], {}, []
    failed = bad = 0
    busy = 0.0
    run_ms = []
    work = None
    round_index = 0
    while True:
        rng = random.Random(f"{workload.name}:{seed}:{round_index}")
        round_dir = workdir / f"r{round_index}"
        round_dir.mkdir(parents=True)
        ops = workload.round_ops(rng, round_dir)
        intervals = rows_checked = 0
        for op in ops:
            if tracer:
                tracer.active = True
            start = perf()
            try:
                result, error = op.run(), None
            except Exception as exc:  # recorded and counted as a failed op
                result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            elapsed = perf() - start
            if tracer:
                tracer.active = False
            if error is None:
                error = _check(op, result)
            if error is None and tracer and op.inprocess:
                tracer.active = True
                start = perf()
                same = op.inprocess()
                run_ms.append((perf() - start) * 1000)
                tracer.active = False
                if not same:
                    error = f"{op.kind}: in-process cli.run output differs"
            if error:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(error)
            if error or getattr(result, "returncode", 0) != 0:
                bad += 1
            latencies.append(elapsed * 1000)
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            busy += elapsed
            intervals += op.intervals
            rows_checked += getattr(result, "checked", 0)
        if work is None:
            work = {
                "ops": len(ops),
                "norm.intervals": intervals,
                "audit.rows_checked": rows_checked,
                "families.memo_entries": len(workloads.FA._member_memo),
            }
        round_index += 1
        if rounds is not None:
            if round_index >= rounds:
                break
        # stop at the round boundary nearest to the requested busy time
        elif busy + busy / round_index / 2 >= seconds and len(latencies) >= MIN_OPS:
            break
    return {
        "latencies_ms": latencies,
        "kinds": kinds,
        "attempted": len(latencies),
        "failed": failed,
        "bad": bad,
        "errors": errors,
        "busy_s": busy,
        "rounds": round_index,
        "work_round0": work,
        "cli_run_ms": run_ms,
    }


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    root = Path(args.root)
    workload = workloads.make(args.workload, args.tiny, root)
    setup_s = time.perf_counter() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        out = measure(workload, args.seed, args.seconds, args.rounds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    out["memo_entries"] = len(workloads.FA._member_memo)
    if tracer:
        out["layers"] = tracer.metrics(out["attempted"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time exact norms on slowly and quickly decaying weights in this checkout
and a git ref, and write the A/B as JSON.

    python scripts/scale_ab.py HEAD~1 --out BENCH_scale.json

The ref is exported with ``git archive`` into a temporary directory.  Each
in-process case is one ``norm`` input: a preset and either
``random_vector(Random(f"scale:{m}"), m, first=1, gap=3)`` or the flat
vector on coordinates 1..m.  Every run is a fresh interpreter against one
tree's ``src``, which times ``_Engine.fill`` plus the witness of the root
and records the scale's bit length, the fills started (``_Engine._setup``
calls), ``max_n_explored`` and a digest of value, witness and cutoff
certificate.  A case runs ``--repeats`` times per tree, or once at 224
points, the parent first on even repeats and this checkout first on odd
ones.  Each command case runs ``python -m tsirelson.cli norm`` on three
unit coordinates under a 20 s timeout.  Exits 1 when a digest or an exit
code differs between the trees.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from cli_identity import export  # noqa: E402

# (preset, inner A_k, m, vector)
CASES = (
    ("geometric-s:9/10", None, 64, "random"),
    ("geometric-s:9/10", None, 96, "random"),
    ("geometric-s:9/10", None, 128, "random"),
    ("geometric-s:9/10", None, 128, "flat"),
    ("geometric-s:9/10", None, 224, "random"),
    ("geometric-s:9/10", None, 224, "flat"),
    ("geometric-a:9/10", None, 64, "random"),
    ("geometric-s:1/2", None, 96, "random"),
    ("geometric-s:1/2", None, 224, "random"),
    ("geometric-s:1/2", None, 224, "flat"),
    ("geometric-s:1/2", 3, 224, "random"),
    ("geometric-s:1/2", 3, 224, "flat"),
    ("geometric-a:1/2", None, 64, "random"),
    ("tsirelson", None, 40, "random"),
)
COMMANDS = ("geometric-a:9999/10000", "geometric-s:999/1000", "geometric-s:9999/10000")
THREE_POINTS = "1\t1\n2\t1\n3\t1\n"


def evaluate(case) -> None:
    """Print one in-process run of ``case`` as JSON, with the package on
    the interpreter's path."""
    import random

    import tsirelson as t
    from tsirelson.generators import random_vector
    from tsirelson.norm import _Engine
    from tsirelson.trees import format_functional

    label, inner, m, vector = case
    space = t.preset(label)
    if inner:
        space = space.with_inner_ak(inner)
    if vector == "flat":
        x = t.SparseVector(tuple((c, 1) for c in range(1, m + 1)))
    else:
        x = random_vector(random.Random(f"scale:{m}"), m, first=1, gap=3)
    setup, setups = _Engine._setup, []

    def counting(engine, *args):
        setups.append(args)
        return setup(engine, *args)

    _Engine._setup = counting
    engine = _Engine(space, x)
    start = time.perf_counter()
    engine.fill()
    witness = format_functional(engine.witness(0, m))
    seconds = time.perf_counter() - start
    value = engine.value(0, m)
    digest = hashlib.sha256(repr((value, witness, engine.cutoff_bound)).encode()).hexdigest()[:16]
    row = {
        "time_s": round(seconds, 4),
        "scale_bits": engine._scale.bit_length(),
        "setups": len(setups),
        "max_n_explored": engine.max_n_explored,
        "digest": digest,
    }
    json.dump(row, sys.stdout)


def run_case(tree: Path, case) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--evaluate", json.dumps(case)],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def run_command(tree: Path, space: str, vector: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "tsirelson.cli", "norm", "--space", space, "--vector", str(vector)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=20)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = "timeout", "", ""
    seconds = time.perf_counter() - start
    return {
        "exit": code,
        "time_s": round(seconds, 3),
        "stdout": out.strip(),
        "stderr": err.strip().splitlines()[-1] if err.strip() else "",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("ref", nargs="?", help="the git ref to compare this checkout with")
    p.add_argument("--repeats", type=int, default=3, help="runs per tree of a case below 224 points")
    p.add_argument("--out", help="write the JSON here instead of stdout")
    p.add_argument("--evaluate", type=json.loads, metavar="CASE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.evaluate:
        evaluate(args.evaluate)
        return 0
    if args.ref is None:
        p.error("a git ref is required")

    differ = 0
    cases, commands = [], []
    with tempfile.TemporaryDirectory(prefix="scale-ab-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": export(args.ref, tmp), "change": ROOT}
        for case in CASES:
            runs = {side: [] for side in trees}
            for repeat in range(1 if case[2] >= 224 else args.repeats):
                order = list(trees) if repeat % 2 == 0 else list(reversed(trees))
                for side in order:
                    runs[side].append(run_case(trees[side], case))
                    print(f"{case} {side}: {runs[side][-1]}", file=sys.stderr)
            label, inner, m, vector = case
            digests = {run["digest"] for side in runs for run in runs[side]}
            differ += len(digests) > 1
            cases.append({
                "space": label + (f" with A{inner}" if inner else ""), "m": m, "vector": vector,
                "agree": len(digests) == 1, **runs,
            })
        vector = tmp / "three.vec"
        vector.write_text(THREE_POINTS)
        for space in COMMANDS:
            runs = {side: run_command(tree, space, vector) for side, tree in trees.items()}
            print(f"{space}: {runs}", file=sys.stderr)
            both = [runs[side] for side in trees]
            if all(run["exit"] != "timeout" for run in both):
                differ += both[0]["exit"] != both[1]["exit"] or both[0]["stdout"] != both[1]["stdout"]
            commands.append({"space": space, "vector": "coordinates 1..3, all ones", **runs})
    text = json.dumps({"ref": args.ref, "cases": cases, "commands": commands}, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the ``cli`` benchmark workload's commands through this checkout and a
git ref, and report every difference in output.

    python scripts/cli_identity.py HEAD~1 --rounds 2 --seed 20081227

The ref is exported with ``git archive`` into a temporary directory.  The
commands of each round are the ones ``benchmarks/workloads.py`` builds for
``Random(f"cli:{seed}:{round}")``, as the benchmark worker does; their
input files are written once and read by both trees.  Each command runs as
``python -m tsirelson.cli --json <file> ...`` in a fresh interpreter, once
against each tree's ``src``, and the exit code, stdout, stderr and the
``--json`` file are compared byte for byte.  Prints one line per
difference and a summary; exits 1 when anything differs.
"""

import argparse
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(ref: str, dest: Path) -> Path:
    """The tree of ``ref``, unpacked from ``git archive`` under dest."""
    archive = dest / "ref.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=fh, check=True)
    tree = dest / "ref"
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    archive.unlink()
    return tree


def invoke(tree: Path, argv, out: Path):
    """(exit code, stdout, stderr, --json bytes or None) of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "tsirelson.cli", "--json", str(out), *argv],
        cwd=tree, env=env, capture_output=True, timeout=120,
    )
    data = out.read_bytes() if out.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, data


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("ref", help="the git ref to compare this checkout with")
    p.add_argument("--rounds", type=int, default=2, help="rounds 0 .. N-1 (20 commands each)")
    p.add_argument("--seed", type=int, default=20081227)
    args = p.parse_args(argv)

    # the workload module builds the commands and their input files with
    # this checkout's package
    sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    import workloads

    fields = ("exit code", "stdout", "stderr", "--json")
    commands = differ = 0
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        tmp = Path(tmp)
        trees = {"this checkout": ROOT, args.ref: export(args.ref, tmp)}
        cli = workloads.Cli(tiny=False, root=ROOT)
        for round_index in range(args.rounds):
            rng = random.Random(f"cli:{args.seed}:{round_index}")
            inputs = tmp / f"r{round_index}"
            inputs.mkdir()
            for label, cmd, _ in cli.commands(rng, inputs):
                results = [
                    invoke(tree, cmd, inputs / f"{label}.{side}.json")
                    for side, tree in enumerate(trees.values())
                ]
                commands += 1
                diffs = [name for name, a, b in zip(fields, *results) if a != b]
                if diffs:
                    differ += 1
                    print(f"round {round_index} {label}: {', '.join(diffs)} differ")
    print(f"{commands} commands at seed {args.seed}, {differ} differ "
          f"(this checkout against {args.ref})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

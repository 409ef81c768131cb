"""Run the ``norm-large`` benchmark workload's norm calls through this
checkout and a git ref, and report every difference in the results.

    python scripts/norm_identity.py HEAD~1 --rounds 60 --seed 20081227
    python scripts/norm_identity.py HEAD~1 --rounds 60 --inner-ak 2,3
    python scripts/norm_identity.py HEAD~1 --admissible 'S2,S1[A2],A2[S1]'
    python scripts/norm_identity.py HEAD~1 --admissible 'S2,S2[S1],S1[A2]' --saturated

The ref is exported with ``git archive`` into a temporary directory.  The
inputs of each round are the ones ``benchmarks/workloads.py`` draws for
``Random(f"norm-large:{seed}:{round}")``, as the benchmark worker does:
this checkout draws them once and writes them to a file, with each
coordinate exact (``p/q``) or as a float's ``repr``.  With ``--inner-ak``,
each call in an S-type or single-family space without an inner A_k is
also replayed with the same vector and each listed inner A_k (labelled
``with A<k>``).  With ``--saturated``, each of these calls is replayed
once more with every coordinate shifted right by the support size, so
that the first coordinate is at least the size and the closed form of
``saturated`` may answer (labelled ``saturated``).  Each tree then runs
``norm`` on all of them in a fresh interpreter, against its own ``src``,
and the value and its type, the witness, ``max_n_explored`` and
``cutoff_bound`` are compared.  With ``--admissible``, each tree also
runs ``admissible_sum`` over each listed family on every vector, and the
value, its type and the pieces are compared (labelled ``admissible <F>``).
Prints one line per difference, a summary, and per preset the engine's
work counters (``_Engine.stats``: ``cells``, ``skips``, ``row_fills``) of
the norm calls summed in each tree, or ``n/a`` for a tree whose engine
keeps no counters.  Exits 1 when any
result differs; the counters do not count.
"""

import argparse
import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from cli_identity import export  # noqa: E402

FIELDS = ("value", "value type", "witness", "max_n_explored", "cutoff_bound")
COUNTERS = ("cells", "skips", "row_fills")


def draw(rounds: int, seed: int, workdir: Path, inner_ak=(), saturated=False) -> list:
    """The workload's norm calls of rounds 0 .. rounds - 1, as JSON cases,
    each S-type one followed by its replays with the inner A_k listed, and
    with ``saturated`` each of those followed by its shifted replay."""
    sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    import workloads

    workload = workloads.NormLarge(tiny=False)
    cases = []
    for round_index in range(rounds):
        rng = random.Random(f"{workload.name}:{seed}:{round_index}")
        for op in workload.round_ops(rng, workdir):
            space, x = op.run.__defaults__
            case = {
                "label": f"round {round_index} {op.kind}",
                "preset": space.name,
                "inner_ak": space.inner_ak,
                "entries": [[c, str(v) if space.exact else repr(v)] for c, v in x.entries],
            }
            replays = [case]
            if space.kind != "A" and not space.inner_ak:
                replays += [dict(case, label=f"{case['label']} with A{k}", inner_ak=k) for k in inner_ak]
            for replay in replays:
                cases.append(replay)
                if saturated:
                    m = len(replay["entries"])
                    shifted = [[c + m, v] for c, v in replay["entries"]]
                    cases.append(dict(replay, label=f"{replay['label']} saturated", entries=shifted))
    return cases


def _admissible(space, x, families) -> dict:
    """``admissible_sum`` over each family text: value, its type and pieces."""
    import tsirelson as t
    from tsirelson.scalars import render_scalar

    out = {}
    for text in families:
        result = t.admissible_sum(space, x, t.parse_family(text))
        out[text] = [render_scalar(result.value), type(result.value).__name__, result.pieces]
    return out


def evaluate(cases_file: str, admissible=()) -> None:
    """Print the results of the cases in ``cases_file`` as JSON, with the
    package on the interpreter's path; with ``admissible`` also those of
    ``admissible_sum`` over these family texts."""
    from fractions import Fraction

    import tsirelson as t

    # the engines each call fills, for their counters
    engine = importlib.import_module("tsirelson.norm")._Engine
    fill, filled = engine.fill, []

    def recording(self):
        filled.append(self)
        return fill(self)

    engine.fill = recording
    out = []
    for case in json.loads(Path(cases_file).read_text()):
        space = t.preset(case["preset"])
        if case["inner_ak"]:
            space = space.with_inner_ak(case["inner_ak"])
        kind = Fraction if space.exact else float
        x = t.SparseVector(tuple((c, kind(v)) for c, v in case["entries"]))
        filled.clear()
        result = t.norm(space, x)
        row = result.as_dict()
        row["value type"] = type(result.value).__name__
        stats = [getattr(e, "stats", None) for e in filled]
        row["stats"] = None if None in stats else {k: sum(s[k] for s in stats) for k in COUNTERS}
        row["admissible"] = _admissible(space, x, admissible)
        out.append(row)
    json.dump(out, sys.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("ref", nargs="?", help="the git ref to compare this checkout with")
    p.add_argument("--rounds", type=int, default=60, help="rounds 0 .. N-1 (6 norm calls each)")
    p.add_argument("--seed", type=int, default=20081227)
    p.add_argument("--inner-ak", type=_ks, default=(), metavar="K,K,...",
                   help="also replay each S-type call with these inner A_k")
    p.add_argument("--admissible", type=_families, default=(), metavar="F,F,...",
                   help="also compare admissible_sum over these families on each vector")
    p.add_argument("--saturated", action="store_true",
                   help="also replay each call with its coordinates shifted right by its size")
    p.add_argument("--evaluate", metavar="CASES", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.evaluate:
        evaluate(args.evaluate, args.admissible)
        return 0
    if args.ref is None:
        p.error("a git ref is required")

    with tempfile.TemporaryDirectory(prefix="norm-identity-") as tmp:
        tmp = Path(tmp)
        cases = draw(args.rounds, args.seed, tmp, args.inner_ak, args.saturated)
        cases_file = tmp / "cases.json"
        cases_file.write_text(json.dumps(cases))
        results = []
        for tree in (ROOT, export(args.ref, tmp)):
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--evaluate", str(cases_file),
                 "--admissible", ",".join(args.admissible)],
                cwd=tree, env=env, capture_output=True, text=True, check=True,
            )
            results.append(json.loads(proc.stdout))
    differ = admissible_differ = 0
    for case, ours, theirs in zip(cases, *results):
        diffs = [name for name in FIELDS if ours[name] != theirs[name]]
        if diffs:
            differ += 1
            print(f"{case['label']}: {', '.join(diffs)} differ")
        for text in args.admissible:
            if ours["admissible"][text] != theirs["admissible"][text]:
                admissible_differ += 1
                print(f"{case['label']}: admissible {text} differs")
    print(f"{len(cases)} norm calls at seed {args.seed}, {differ} differ "
          f"(this checkout against {args.ref})")
    if args.admissible:
        print(f"{len(cases) * len(args.admissible)} admissible_sum calls "
              f"({', '.join(args.admissible)}), {admissible_differ} differ")
    print(f"work summed per preset ({', '.join(COUNTERS)}), this checkout | {args.ref}:")
    kinds = [case["label"].split(" ", 2)[2] for case in cases]
    for kind in dict.fromkeys(kinds):
        sums = [_summed(row for k, row in zip(kinds, rows) if k == kind) for rows in results]
        print(f"  {kind}: {' | '.join(sums)}")
    return 1 if differ or admissible_differ else 0


def _ks(text: str) -> tuple:
    """A comma-separated list of inner A_k indices."""
    return tuple(int(k) for k in text.split(","))


def _families(text: str) -> tuple:
    """A comma-separated list of family expressions."""
    return tuple(family for family in text.split(",") if family)


def _summed(rows) -> str:
    """The counters of one tree summed over some calls, or n/a."""
    stats = [row["stats"] for row in rows]
    if None in stats:
        return "n/a"
    return ", ".join(f"{k} {sum(s[k] for s in stats)}" for k in COUNTERS)

if __name__ == "__main__":
    sys.exit(main())

"""The two workloads: seeded inputs, the timed calls, and output checks.

Importing this module imports ``tsirelson`` and constructing a workload
builds its spaces; ``worker.py`` counts both as set-up.  A workload yields
its operations one round at a time.  Every round draws fresh inputs from
``random.Random(f"{workload}:{seed}:{round}")`` and has the same
composition, so the latency quantiles do not depend on where a run stops.
Each ``Op.run`` is the timed call; its ``check`` runs afterwards, untimed.

Modules are held as module objects and their functions looked up at call
time, so that the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

from metrics import KNOWN_FAILING_CLI

AV = importlib.import_module("tsirelson.averages")
CLI = importlib.import_module("tsirelson.cli")
FA = importlib.import_module("tsirelson.families")
FU = importlib.import_module("tsirelson.functionals")
GEN = importlib.import_module("tsirelson.generators")
NO = importlib.import_module("tsirelson.norm")
SC = importlib.import_module("tsirelson.scalars")
SP = importlib.import_module("tsirelson.spaces")
VE = importlib.import_module("tsirelson.vectors")

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    intervals: int = 0  # DP intervals of a direct norm call (work count)
    inprocess: Optional[Callable[[], bool]] = None  # cli: same argv via cli.run


def _intervals(m: int) -> int:
    return m * (m + 1) // 2


# ---------------------------------------------------------------------------
# norm-large


class NormLarge:
    """norm() with its witness on random rational vectors whose supports
    start at low coordinates, so the interval DP does its full work."""

    name = "norm-large"

    def __init__(self, tiny: bool):
        geo_s = SP.preset("geometric-s:1/2")
        self.cases = [
            (SP.preset("tsirelson"), 40),
            (geo_s, 40),
            (geo_s.with_inner_ak(3), 36),
            (SP.preset("geometric-a:1/2"), 64),
            (SP.preset("schlumprecht"), 44),
            (SP.preset("tzafriri:1/2"), 48),
        ]
        if tiny:
            self.cases = [(space, 8) for space, _ in self.cases]

    def round_ops(self, rng, workdir: Path) -> List[Op]:
        ops = []
        for space, m in self.cases:
            x = GEN.random_vector(rng, m, first=1, gap=3, exact=space.exact)
            ops.append(
                Op(
                    f"norm:{space.name}{'+A3' if space.inner_ak else ''}",
                    lambda space=space, x=x: NO.norm(space, x),
                    lambda res, space=space, x=x: _check_norm(space, x, res),
                    intervals=_intervals(m),
                )
            )
        return ops


def _check_norm(space, x, res) -> bool:
    value = FU.eval_functional(space, res.witness, x)
    return SC.close(value, res.value, space.exact) and not FU.validate(space, res.witness)


# ---------------------------------------------------------------------------
# cli


def _random_coords(rng, size_lo, size_hi, first_hi):
    coords = []
    c = rng.randint(1, first_hi)
    for _ in range(rng.randint(size_lo, size_hi)):
        coords.append(c)
        c += rng.randint(1, 3)
    return tuple(coords)


def _aux_functional(rng, coords):
    """A functional valid in an inner-A_3 auxiliary S-space that is often
    invalid in the plain space, so that split_xk has regrouping to do.

    A node may have up to 3 * (its first coordinate) children: cut into runs
    of at most three, the run minima number at most the first coordinate,
    so the children minima form an S_1[A_3] (hence S_n[A_3]) set.
    ``generators.random_valid_functional`` keeps every node valid in the
    plain space, where split_xk returns its input unchanged.
    """
    def leaf(c):
        return FU.Leaf(rng.choice((1, -1)), c)

    if len(coords) == 1:
        return leaf(coords[0])
    if len(coords) <= 3 and rng.random() < 0.3:
        return FU.Node(1, tuple(leaf(c) for c in coords))
    k = rng.randint(2, min(len(coords), 3 * coords[0]))
    cuts = sorted(rng.sample(range(1, len(coords)), k - 1))
    pieces = [coords[a:b] for a, b in zip([0] + cuts, cuts + [len(coords)])]
    return FU.Node(rng.randint(1, 2), tuple(_aux_functional(rng, p) for p in pieces))


class Cli:
    """Every README subcommand as a fresh ``python -m tsirelson.cli --json``
    process on small inputs, each invoked twice for byte-identical output."""

    name = "cli"

    def __init__(self, tiny: bool, root: Path):
        self.tsirelson = SP.preset("tsirelson")
        self.geo_s = SP.preset("geometric-s:1/2")
        self.tiny = tiny
        self.root = root

    def commands(self, rng, d: Path):
        """(label, argv after --json, expected exit code) for one round."""
        def vec(name, x):
            path = d / name
            path.write_text(VE.format_vector(x) + "\n", encoding="utf-8")
            return str(path)

        def csv(elems):
            return ",".join(str(e) for e in elems)

        seed = str(rng.randrange(10**6))
        x = vec("x.vec", GEN.random_vector(rng, 6, first=2))
        y = vec("y.vec", GEN.random_vector(rng, 6, first=2))
        member = GEN.random_family_member(rng, FA.Sn(2), rng.randint(2, 5), max_size=8)
        decomposable = GEN.random_family_member(
            rng, FA.Compose(FA.An(3), FA.Sn(1)), rng.randint(2, 5), max_size=8
        )
        a = rng.randint(2, 5)
        b = a + rng.randint(1, 3) + 1
        sets = f"{a},{a + 1};{b},{b + rng.randint(1, 3)}"
        weights = ",".join(
            f"{c}:{rng.randint(1, 9)}/{rng.randint(1, 4)}" for c in range(1, rng.randint(4, 7))
        )
        scc = AV.build_scc(1, Fraction(3, 10), rng.randint(4, 8))
        scc_path = d / "scc.json"
        scc_path.write_text(json.dumps({
            "j": scc.j,
            "epsilon": SC.render_scalar(scc.epsilon),
            "support": list(scc.support),
            "coefficients": [SC.render_scalar(c) for c in scc.coefficients],
        }), encoding="utf-8")
        tree = AV.build_averaging_tree(
            self.geo_s, AV.basis_pool(rng.randint(1, 3)), 1, Fraction(1, 2), relaxed_scale=3
        )
        tree_path = d / "tree.json"
        tree_path.write_text(json.dumps(AV.tree_to_dict(tree), sort_keys=True), encoding="utf-8")
        xk_path = d / "xk.cfg"
        xk_path.write_text("kind = S\ntheta = geometric:1/2\ninner_ak = 3\n", encoding="utf-8")
        split_f = _aux_functional(rng, _random_coords(rng, 6, 16, 3))
        blocks = GEN.random_blocks(rng, 2, block_size_max=3, first=rng.randint(4, 9))
        block_paths = [vec(f"b{i}.vec", blk) for i, blk in enumerate(blocks)]
        cmp_f = GEN.random_valid_functional(
            self.tsirelson, rng, tuple(c for blk in blocks for c in blk.support), leaf_prob=0.1
        )
        ys = [vec(f"y{i}.vec", blk) for i, blk in enumerate(GEN.random_blocks(rng, 3, first=2))]
        zs = [vec(f"z{i}.vec", blk) for i, blk in enumerate(GEN.random_blocks(rng, 3, first=2))]
        cmds = [
            ("norm", ["norm", "--space", "tsirelson", "--vector", x], 0),
            ("witness", ["witness", "--space", "geometric-s:1/2", "--vector", y], 0),
            ("family-member", ["family", "member", "--family", "S2", "--set", csv(member)], 0),
            ("family-decompose", ["family", "decompose", "--family", "A3[S1]", "--set", csv(decomposable)], 0),
            ("family-admissible", ["family", "admissible", "--family", "S1", "--sets", sets], 0),
            ("family-maxweight", ["family", "maxweight", "--family", "S1", "--weights", weights], 0),
            ("regularize", ["regularize", "--space", "geometric-s:1/2", "--horizon", "8"], 0),
            ("scc-build", ["scc", "build", "--level", "1", "--epsilon", "3/10", "--start", str(rng.randint(3, 8))], 0),
            ("scc-check", ["scc", "check", "--input", str(scc_path)], 0),
            ("avg-build", ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1",
                           "--epsilon", "1/2", "--relaxed", "3", "--out", str(d / "built.json")], 0),
            ("avg-check", ["avg", "check", "--space", "geometric-s:1/2", "--input", str(tree_path)], 0),
            ("split", ["split", "--space", str(xk_path), "--functional", FU.format_functional(split_f)], 0),
            ("comparable", ["comparable", "--space", "tsirelson", "--functional",
                            FU.format_functional(cmp_f), "--blocks", *block_paths], 0),
            ("audit-sch1", ["audit", "sch1", "--ground", "12"], 0),
            ("audit-l3", ["audit", "l3", "--level", "2", "--trials", "50", "--seed", seed], 0),
            (KNOWN_FAILING_CLI, ["audit", "l3", "--level", "3", "--trials", "5", "--seed", seed], 1),
            ("audit-pest", ["audit", "pest", "--space", "tzafriri:1/2", "--trials", "50", "--seed", seed], 0),
            ("audit-kriv", ["audit", "kriv", "--space", "tzafriri:1/2", "--count", "1", "--r", "1"], 0),
            ("audit-tav", ["audit", "tav", "--space", "geometric-s:1/2", "--levels", "1",
                           "--epsilon", "1/2", "--delta", "1/2", "--relaxed", "3"], 0),
            ("audit-domination", ["audit", "domination", "--space", "tsirelson", "--ys", *ys,
                                  "--zs", *zs, "--trials", "10", "--seed", seed], 0),
        ]
        if self.tiny:
            keep = {"norm", "family-member", "audit-sch1", KNOWN_FAILING_CLI}
            cmds = [c for c in cmds if c[0] in keep]
        return cmds

    def _process(self, out: Path, argv):
        def run():
            proc = subprocess.Popen(
                [sys.executable, "-m", "tsirelson.cli", "--json", str(out), *argv],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                cwd=self.root,
            )
            # wait() with a timeout polls with sleeps of up to 50 ms, which
            # would quantize the measured latency; block and let a timer kill
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            return proc

        return run

    def round_ops(self, rng, workdir: Path) -> List[Op]:
        ops = []
        for label, argv, expected in self.commands(rng, workdir):
            first, second, inproc = (workdir / f"{label}.{tag}.json" for tag in ("a", "b", "in"))

            def same_output(code, out, expected=expected, first=first):
                """Expected exit code, and --json byte-identical to the first
                invocation's (no --json at all for a failing command)."""
                if code != expected:
                    return False
                if expected != 0:
                    return not out.exists()
                return out.read_bytes() == first.read_bytes()

            def inprocess(argv=argv, inproc=inproc, same_output=same_output):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = CLI.run(["--json", str(inproc), *argv])
                return same_output(code, inproc)

            for out in (first, second):
                ops.append(Op(
                    f"cli:{label}",
                    self._process(out, argv),
                    lambda proc, out=out, same_output=same_output: same_output(proc.returncode, out),
                    inprocess=inprocess if out is first else None,
                ))
        return ops


def make(name: str, tiny: bool, root: Path):
    if name == "cli":
        return Cli(tiny, root)
    return NormLarge(tiny)

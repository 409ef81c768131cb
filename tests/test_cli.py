import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tsirelson as t
from tsirelson.cli import build_parser, run
from tsirelson.vectors import format_vector, parse_vector


def invoke(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, out


class TestRoundTrips:
    def test_vector_format(self):
        x = t.SparseVector(((3, Fraction(2, 3)), (4, Fraction(2, 3))))
        assert parse_vector(format_vector(x)) == x

    def test_vector_parse_example(self):
        x = parse_vector("3\t2/3\n4\t2/3\n5\t2/3\n")
        assert x.entries == (
            (3, Fraction(2, 3)),
            (4, Fraction(2, 3)),
            (5, Fraction(2, 3)),
        )

    def test_vector_out_of_order_reports_line(self):
        from tsirelson.errors import ParseError

        with pytest.raises(ParseError) as err:
            parse_vector("4\t1\n3\t1\n")
        assert "line 2" in str(err.value)

    def test_functional_example(self):
        f = t.parse_functional("(n 1 (l + 3) (l + 4))")
        assert t.format_functional(f) == "(n 1 (l + 3) (l + 4))"


class TestCommands:
    def test_norm_command(self, tmp_path, capsys):
        vec = tmp_path / "x.vec"
        vec.write_text("3\t2/3\n4\t2/3\n5\t2/3\n")
        code, out = invoke(
            ["norm", "--space", "tsirelson", "--vector", str(vec)], capsys
        )
        assert code == 0
        assert "norm = 1/1" in out
        assert "(n 1 (l + 3) (l + 4) (l + 5))" in out

    def test_family_member(self, capsys):
        code, out = invoke(
            ["family", "member", "--family", "S2", "--set", "2,3,4,6,7,8"], capsys
        )
        assert code == 0
        assert out.strip() == "true"

    def test_family_maxweight(self, capsys):
        code, out = invoke(
            ["family", "maxweight", "--family", "S1", "--weights", "1:5,2:3,3:2"],
            capsys,
        )
        assert code == 0
        assert "value = 5/1" in out

    def test_audit_exit_codes(self, tmp_path, capsys):
        code, _ = invoke(["audit", "sch1", "--ground", "10"], capsys)
        assert code == 0

    def test_usage_error_is_2(self, capsys):
        code, _ = invoke(["family", "member", "--family", "S", "--set", "1"], capsys)
        assert code == 2

    def test_bad_vector_is_2(self, tmp_path, capsys):
        vec = tmp_path / "bad.vec"
        vec.write_text("4\t1\n3\t1\n")
        code, _ = invoke(["norm", "--space", "tsirelson", "--vector", str(vec)], capsys)
        assert code == 2

    def test_scc_build_and_check(self, tmp_path, capsys):
        out_json = tmp_path / "scc.json"
        code, out = invoke(
            [
                "--json",
                str(out_json),
                "scc",
                "build",
                "--level",
                "1",
                "--epsilon",
                "3/10",
                "--start",
                "4",
            ],
            capsys,
        )
        assert code == 0
        assert "support = [4, 5, 6, 7]" in out
        code, out = invoke(["scc", "check", "--input", str(out_json)], capsys)
        assert code == 0
        assert out.strip() == "valid"

    def test_split_command(self, capsys):
        config = "kind = single\nsingle_family = S1\nsingle_theta = 1/2\ninner_ak = 2\n"
        code, out = invoke(
            [
                "split",
                "--space",
                _write_tmp(config),
                "--functional",
                "(n 1 (l + 2) (l + 3) (l + 4) (l + 5))",
            ],
            capsys,
        )
        assert code == 0
        assert "(n 1 (l + 2) (l + 3))" in out

    def test_deeply_nested_functional_is_usage_error(self, tmp_path, capsys):
        block = tmp_path / "b.vec"
        block.write_text("2\t1\n")
        deep = "(n 1 " * 3000 + "(l + 2)" + ")" * 3000
        code = run(
            ["comparable", "--space", "tsirelson", "--functional", deep, "--blocks", str(block)]
        )
        assert code == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_regularize(self, capsys):
        code, out = invoke(
            ["regularize", "--space", "geometric-s:1/2", "--horizon", "3"], capsys
        )
        assert code == 0
        assert out.split() == ["1/2", "1/4", "1/8"]


def _write_tmp(text):
    import tempfile

    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".cfg", delete=False, encoding="utf-8"
    )
    handle.write(text)
    handle.close()
    return handle.name


class TestReportCommands:
    """``avg`` and the ``audit`` suites write the one report shape."""

    TREE_ARGS = ["--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "1/2"]

    def report(self, tmp_path, argv, suite, expected=0):
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["--json", str(out), *argv]) == expected
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["suite"] == suite
        assert payload["checked"] == sum(r["ok"] is not None for r in payload["rows"])
        assert payload["failed"] == sum(r["ok"] is False for r in payload["rows"])
        return payload

    def test_avg_build_and_check(self, tmp_path):
        tree = tmp_path / "tree.json"
        argv = ["avg", "build", *self.TREE_ARGS, "--relaxed", "3", "--out", str(tree)]
        built = self.report(tmp_path, argv, "averaging-tree")
        assert [r["id"] for r in built["rows"]] == [
            "level-sizes",
            "leaves-successive",
            "siblings-s1-admissible",
            "uniform-averages",
            "size-bounds (relaxed)",
        ]
        assert (built["checked"], built["failed"]) == (5, 0)
        assert built["params"]["conforming"] == "False"
        argv = ["avg", "check", "--space", "geometric-s:1/2", "--input", str(tree)]
        assert self.report(tmp_path, argv, "averaging-tree")["rows"] == built["rows"]

    def test_avg_check_failure_exits_1(self, tmp_path):
        tree = tmp_path / "tree.json"
        assert run(["avg", "build", *self.TREE_ARGS, "--relaxed", "3", "--out", str(tree)]) == 0
        data = json.loads(tree.read_text())
        leaves = data["levels"][-1]["nodes"]
        leaves[1]["support"] = leaves[0]["support"]
        tree.write_text(json.dumps(data))
        argv = ["avg", "check", "--space", "geometric-s:1/2", "--input", str(tree)]
        payload = self.report(tmp_path, argv, "averaging-tree", expected=1)
        failed = {r["id"] for r in payload["rows"] if r["ok"] is False}
        assert "leaves-successive" in failed

    def test_audit_tav(self, tmp_path):
        argv = ["audit", "tav", *self.TREE_ARGS, "--delta", "1/2", "--relaxed", "3"]
        payload = self.report(tmp_path, argv, "tav")
        assert [r["id"] for r in payload["rows"]] == ["j=0", "j=1", "node:j=1,i=1"]
        assert (payload["checked"], payload["failed"]) == (3, 0)

    def test_audit_domination(self, tmp_path):
        paths = []
        for c in (3, 5, 7, 4, 6, 8):
            path = tmp_path / f"e{c}.vec"
            path.write_text(f"{c}\t1\n")
            paths.append(str(path))
        argv = ["audit", "domination", "--space", "tsirelson", "--ys", *paths[:3],
                "--zs", *paths[3:], "--trials", "5", "--seed", "1"]
        payload = self.report(tmp_path, argv, "domination")
        ((row,),) = [payload["rows"]]
        assert row["id"] == "estimate" and row["ok"] is None
        assert float(row["values"]["estimate"]) >= 1.0
        assert (payload["checked"], payload["failed"], payload["seed"]) == (0, 0, 1)


class TestDeterminism:
    def test_json_outputs_byte_identical(self, tmp_path):
        # same seed, two runs, byte-identical machine output
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run(
                ["--json", str(out), "audit", "l3", "--trials", "20", "--seed", "4"]
            )
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_norm_json_stable(self, tmp_path):
        vec = tmp_path / "x.vec"
        vec.write_text("3\t1\n4\t1\n5\t1\n")
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                run(
                    [
                        "--json",
                        str(out),
                        "norm",
                        "--space",
                        "tsirelson",
                        "--vector",
                        str(vec),
                    ]
                )
                == 0
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["value"] == "3/2"


class TestOptionPositions:
    """``--json`` and an audit's ``--seed`` work before or after the subcommand."""

    L3 = ["audit", "l3", "--level", "2", "--trials", "3"]

    def test_seed_reaches_the_report_in_both_positions(self, tmp_path):
        out = tmp_path / "o.json"
        for argv in (
            ["--seed", "5", "--json", str(out), *self.L3],
            ["--json", str(out), *self.L3, "--seed", "5"],
            [*self.L3, "--seed", "5", "--json", str(out)],
        ):
            assert run(argv) == 0
            assert json.loads(out.read_text())["seed"] == 5, argv
        assert run(["--json", str(out), *self.L3]) == 0
        assert json.loads(out.read_text())["seed"] == 0

    def test_json_after_the_subcommand_is_byte_identical(self, tmp_path):
        vec = tmp_path / "x.vec"
        vec.write_text("3\t2/3\n4\t2/3\n5\t2/3\n")
        for argv in (
            ["norm", "--space", "tsirelson", "--vector", str(vec)],
            ["family", "decompose", "--family", "S2", "--set", "2,3,4,6,7,8"],
            ["audit", "sch1", "--ground", "8"],
        ):
            before, after = tmp_path / "before.json", tmp_path / "after.json"
            assert run(["--json", str(before), *argv]) == 0
            assert run([*argv, "--json", str(after)]) == 0
            assert before.read_bytes() == after.read_bytes(), argv


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        vec = tmp_path / "x.vec"
        vec.write_text("3\t1\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tsirelson.cli",
                "norm",
                "--space",
                "tsirelson",
                "--vector",
                str(vec),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "norm = 1/1" in proc.stdout


# the 44 public names of the package, as listed before it loaded lazily
PUBLIC_NAMES = [
    "An", "Compose", "Decomposition", "ExplicitSeq", "Geometric", "Leaf",
    "LogReciprocal", "Node", "NormResult", "PowerLaw", "ScaledPowerLaw", "Sn",
    "SpaceSpec", "SparseVector", "admissible_sum", "brute_norm",
    "check_regularity", "decompose", "derived_params", "errors",
    "eval_functional", "families", "format_functional", "functionals",
    "is_admissible", "is_comparable", "is_member", "make_comparable",
    "max_weight_subset", "maximal_member", "norm", "parse_family",
    "parse_functional", "parse_space_config", "parse_vector", "preset",
    "regularize", "scalars", "spaces", "split_xk", "sum_vectors", "theta",
    "validate", "vectors",
]


def _loaded_modules(code):
    """The modules a fresh interpreter holds after running `code`."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(t.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestStartup:
    def test_family_member_loads_only_what_it_uses(self):
        loaded = _loaded_modules(
            "from tsirelson.cli import run\n"
            "assert run(['family', 'member', '--family', 'S2', '--set', '2,3,4']) == 0"
        )
        assert "tsirelson.families" in loaded
        for name in ("norm", "spaces", "averages", "generators"):
            assert f"tsirelson.{name}" not in loaded

    def test_kriv_runs_without_numpy(self):
        loaded = _loaded_modules(
            "from tsirelson.cli import run\n"
            "assert run(['audit', 'kriv', '--count', '1', '--r', '1']) == 0"
        )
        assert "tsirelson.norm" in loaded
        assert "numpy" not in loaded

    def test_cli_loads_audit(self):
        # tracing tools find the audit module through tsirelson.cli
        assert "tsirelson.audit" in _loaded_modules("import tsirelson.cli")

    def test_norm_is_the_function_after_submodule_imports(self):
        import tsirelson.averages  # noqa: F401  (imports the submodule tsirelson.norm)
        import tsirelson.norm  # noqa: F401

        assert t.norm is sys.modules["tsirelson.norm"].norm
        assert callable(t.norm)

    def test_public_names(self):
        assert t.__all__ == PUBLIC_NAMES
        for name in t.__all__:
            assert getattr(t, name) is not None

    def test_mode_choices_are_the_regularization_modes(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        mode = next(a for a in sub.choices["regularize"]._actions if a.dest == "mode")
        assert mode.choices == [t.spaces.PRODUCT, t.spaces.SUM]

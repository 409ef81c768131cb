import json
import subprocess
import sys
from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson.cli import run
from tsirelson.scalars import render_scalar
from tsirelson.vectors import format_vector, parse_vector

from conftest import child_env


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

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["audit", "kriv", "--space", "schlumprecht", "--r", "2"], "260101"),
            (["audit", "sch1", "--ground", "15"], "capped at ground 14"),
            (
                ["family", "maxweight", "--family", "A8",
                 "--weights", ",".join(f"{c}:1" for c in range(1, 22))],
                "up to 20 positive weights, got 21",
            ),
            (
                ["regularize", "--space", "geometric-s:1/2", "--horizon", "513"],
                "exceeds the regularization bound 512",
            ),
            (
                ["regularize", "--space", "geometric-a:1/2", "--horizon", "2000"],
                "exceeds the regularization bound 512",
            ),
        ],
    )
    def test_budget_refusal_is_2(self, argv, refusal, capsys):
        code = run(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert refusal in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["norm", "witness"])
    def test_support_over_the_norm_bound_is_refused_before_the_fill(
        self, command, tmp_path, capsys, monkeypatch
    ):
        from tsirelson.norm import NORM_SUPPORT_BOUND, _Engine

        class Filled(Exception):
            pass

        def fill(engine):
            raise Filled

        monkeypatch.setattr(_Engine, "fill", fill)
        vec = tmp_path / "x.vec"
        argv = [command, "--space", "tsirelson", "--vector", str(vec)]
        for size in (NORM_SUPPORT_BOUND, NORM_SUPPORT_BOUND + 1):
            vec.write_text(format_vector(t.SparseVector(tuple((c, 1) for c in range(1, size + 1)))))
            if size == NORM_SUPPORT_BOUND:
                with pytest.raises(Filled):
                    run(argv)
            else:
                assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{NORM_SUPPORT_BOUND + 1} support points" in err
        assert f"up to {NORM_SUPPORT_BOUND}" in err

    def test_unbounded_family_stays_1(self, capsys):
        code = run(["audit", "l3", "--level", "3", "--trials", "5", "--seed", "1"])
        assert code == 1
        assert "exceeds guard" in capsys.readouterr().err

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

    def test_comparable_refuses_an_out_of_order_subtree(self, tmp_path, capsys):
        # the first child's leaves run 5, 3: its span 3..5 overlaps the leaf 4
        block = tmp_path / "b.vec"
        block.write_text("3\t1\n4\t1\n5\t1\n")
        f = "(n 1 (n 1 (l + 5) (l + 3)) (l + 4))"
        code = run(
            ["comparable", "--space", "tsirelson", "--functional", f, "--blocks", str(block)]
        )
        assert code == 1
        assert "make_comparable needs a valid functional" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["S1[A2]", "A2[A3]"])
    def test_comparable_in_a_composed_single_family_space(self, family, tmp_path, capsys):
        config = tmp_path / "space.cfg"
        config.write_text(f"kind = single\nsingle_family = {family}\nsingle_theta = 1/3\n")
        (tmp_path / "b1.vec").write_text("4\t1\n")
        (tmp_path / "b2.vec").write_text("5\t1\n6\t1\n")
        blocks = [str(tmp_path / "b1.vec"), str(tmp_path / "b2.vec")]
        argv = ["comparable", "--space", str(config), "--blocks", *blocks, "--functional"]
        # the inner node meets the second block in 5 but not 6: surgery needed
        code = run([*argv, "(n 1 (n 1 (l + 4) (l + 5)) (l + 6))"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and family in err and "ladder" in err
        # already comparable: returned as it is
        comparable = "(n 1 (l + 4) (n 1 (l + 5) (l + 6)))"
        code, out = invoke([*argv, comparable], capsys)
        assert code == 0
        assert out.strip() == comparable

    def test_regularize(self, capsys):
        code, out = invoke(
            ["regularize", "--space", "geometric-s:1/2", "--horizon", "3"], capsys
        )
        assert code == 0
        assert out.split() == ["1/2", "1/4", "1/8"]

    @pytest.mark.parametrize("space", ["tsirelson", "ellp:2"])
    def test_regularize_refuses_a_single_family_space(self, space, capsys):
        assert run(["regularize", "--space", space, "--horizon", "5"]) == 2
        assert "single-family space" in capsys.readouterr().err

    @pytest.mark.parametrize("space", ["ellp:2", "schlumprecht", "tzafriri:1/2"])
    def test_a_float_weight_in_rational_mode_is_1(self, space, tmp_path, capsys):
        # refused up front: the one-point vector never reaches an irrational weight
        vec = tmp_path / "x.vec"
        vec.write_text("1\t1/2\n")
        argv = ["--arithmetic", "rational", "norm", "--space", space, "--vector", str(vec)]
        assert run(argv) == 1
        assert "use float mode" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["powerlaw:2", "scaledpowerlaw:1/2,2", "logreciprocal"])
    def test_float_override_wins_over_a_config_files_rational_default(
        self, theta, tmp_path, capsys
    ):
        config = tmp_path / "space.cfg"
        config.write_text(f"kind = A\ntheta = {theta}\n")
        vec = tmp_path / "x.vec"
        vec.write_text("1\t1/2\n3\t-1/3\n")
        argv = ["norm", "--space", str(config), "--vector", str(vec)]
        assert run(["--arithmetic", "float64", *argv]) == 0
        assert capsys.readouterr().out.startswith("norm = ")
        assert run(argv) == 1
        assert "use float mode" in capsys.readouterr().err

    MISMATCHED = {
        "depth": 0,
        "levels": [{"level": 0, "nodes": [{"support": [2, 3], "values": ["1/2"]}]}],
        "epsilon": "1/2",
        "theta": "1/2",
        "j": 1,
        "support": [2, 3],
        "coefficients": ["1/2"],
    }

    @pytest.mark.parametrize("data", [{}, {"levels": []}, [], {"j": 1, "depth": "x"}, MISMATCHED])
    @pytest.mark.parametrize(
        "argv",
        [["scc", "check"], ["avg", "check", "--space", "geometric-s:1/2"]],
        ids=["scc", "avg"],
    )
    def test_check_json_of_the_wrong_shape_is_2(self, argv, data, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert run([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    @pytest.mark.parametrize("command", ["norm", "witness"])
    def test_json_carries_the_cutoff_certificate(self, command, tmp_path):
        vec = tmp_path / "x.vec"
        vec.write_text("2\t1/2\n3\t-1\n5\t3/4\n8\t1\n")
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            argv = ["--json", str(out), command, "--space", "geometric-s:1/2", "--vector", str(vec)]
            assert run(argv) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert set(payload) == {"value", "witness", "max_n_explored", "cutoff_bound"}
        result = t.norm(t.preset("geometric-s:1/2"), parse_vector(vec.read_text()))
        assert payload["cutoff_bound"] == render_scalar(result.cutoff_bound)
        assert Fraction(payload["cutoff_bound"]) <= Fraction(payload["value"])


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
            env=child_env(),
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
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--space", "tsirelson", "--vector", "{vector}"],
            ["witness", "--space", "geometric-s:1/2", "--vector", "{vector}"],
            ["family", "member", "--family", "S2", "--set", "2,3,4"],
        ],
        ids=["norm", "witness", "family-member"],
    )
    def test_norm_and_member_load_no_audit_or_dataclasses(self, argv, tmp_path):
        vector = tmp_path / "x.vec"
        vector.write_text("1\t1/2\n3\t-1/3\n")
        argv = [a.format(vector=vector) for a in argv]
        loaded = _loaded_modules(f"from tsirelson.cli import run\nassert run({argv!r}) == 0")
        # the norm path reads functionals through ``trees``, not the surgery
        for name in ("tsirelson.audit", "tsirelson.functionals", "dataclasses", "inspect"):
            assert name not in loaded

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["audit", "l3", "--level", "2", "--trials", "5"], ("functionals",)),
            (["audit", "pest", "--trials", "5"], ("functionals",)),
            (["audit", "kriv", "--count", "1", "--r", "1"], ("functionals",)),
            (
                ["audit", "domination", "--space", "tsirelson", "--ys", "{vector}",
                 "--zs", "{vector}", "--trials", "3"],
                ("functionals",),
            ),
            (["audit", "tav", "--relaxed", "3"], ("functionals",)),
            (["scc", "build", "--level", "1", "--epsilon", "3/10"], ("norm", "functionals")),
            (["scc", "check", "--input", "{scc}"], ("norm", "functionals")),
            (
                ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1",
                 "--epsilon", "1/2", "--relaxed", "3", "--out", "{tree}"],
                ("norm", "functionals"),
            ),
            (["avg", "check", "--space", "geometric-s:1/2", "--input", "{tree}"], ("norm", "functionals")),
        ],
        ids=[
            "audit-l3", "audit-pest", "audit-kriv", "audit-domination", "audit-tav",
            "scc-build", "scc-check", "avg-build", "avg-check",
        ],
    )
    def test_commands_load_no_engine_they_do_not_run(self, argv, absent, tmp_path):
        vector = tmp_path / "x.vec"
        vector.write_text("1\t1/2\n3\t-1/3\n")
        scc = tmp_path / "scc.json"
        scc.write_text('{"j": 1, "epsilon": "1/2", "support": [4, 5, 6], '
                       '"coefficients": ["1/3", "1/3", "1/3"]}')
        tree = tmp_path / "tree.json"
        if "{tree}" in argv and argv[1] == "check":
            code = run(["avg", "build", "--space", "geometric-s:1/2", "--levels", "1",
                        "--epsilon", "1/2", "--relaxed", "3", "--out", str(tree)])
            assert code == 0
        argv = [a.format(vector=vector, scc=scc, tree=tree) for a in argv]
        loaded = _loaded_modules(
            "import contextlib, io\nfrom tsirelson.cli import run\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert run({argv!r}) == 0"
        )
        assert "tsirelson.cli" in loaded
        for name in absent:
            assert f"tsirelson.{name}" not in loaded

    def test_averages_loads_audit(self):
        # the benchmark tracer wraps the audit suites because the averages
        # module it imports has loaded them
        assert "tsirelson.audit" in _loaded_modules("import tsirelson.averages")

    def test_norm_is_the_function_after_submodule_imports(self):
        import tsirelson.averages  # noqa: F401  (imports submodules of the package)
        import tsirelson.norm  # noqa: F401

        assert t.norm is sys.modules["tsirelson.norm"].norm
        assert callable(t.norm)

    def test_public_names(self):
        assert t.__all__ == PUBLIC_NAMES
        for name in t.__all__:
            assert getattr(t, name) is not None

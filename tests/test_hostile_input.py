"""Hostile input ends with exit 2 and an ``error:`` line, never a traceback.

Each case is one CLI invocation that once raised out of ``cli.run`` (an
overflow, a zero division, a type error or a recursion error), next to
inputs at the documented bounds that still succeed.  Every case is small:
a refusal comes before any work, and the bound cases are cheap.
"""

import subprocess
import sys

import pytest

from tsirelson.cli import run
from tsirelson.families import MAX_FAMILY_DEPTH
from tsirelson.functionals import MAX_WEIGHT_INDEX

from conftest import child_env

HUGE = "1\t1e400\n"  # exact as a rational, past the float range
LARGE = "1\t1e300\n"  # inside the float range
# an auxiliary S-space with an inner A_3, for ``split``
XK_CONFIG = "kind = S\ntheta = geometric:1/2\ninner_ak = 3\n"


def nested_a1(depth):
    """``A1[A1[...]]`` with ``depth`` letters, ``depth`` levels deep."""
    return "A1[" * (depth - 1) + "A1" + "]" * (depth - 1)


REFUSED = {
    "float-overflow-norm": (HUGE, ["norm", "--space", "schlumprecht", "--vector", "{vec}"]),
    "float-overflow-witness": (HUGE, ["witness", "--space", "schlumprecht", "--vector", "{vec}"]),
    "float-overflow-tsirelson": (
        HUGE, ["--arithmetic", "float64", "norm", "--space", "tsirelson", "--vector", "{vec}"]
    ),
    "float-overflow-geometric-a": (
        HUGE, ["--arithmetic", "float64", "norm", "--space", "geometric-a:1/2", "--vector", "{vec}"]
    ),
    "ellp-q-zero": ("1\t1\n", ["norm", "--space", "ellp:0", "--vector", "{vec}"]),
    "avg-epsilon-zero": (
        None, ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "0"]
    ),
    "kriv-r-zero": (None, ["audit", "kriv", "--r", "0"]),
    "kriv-r-negative": (None, ["audit", "kriv", "--r", "-1"]),
    "schreier-index-member": (None, ["family", "member", "--family", "S999999999", "--set", "1,2"]),
    "schreier-index-decompose": (
        None, ["family", "decompose", "--family", "S999999999", "--set", "1,2"]
    ),
    "nested-composition": (None, ["family", "member", "--family", nested_a1(3000), "--set", "1"]),
    "weight-index-past-bound": (
        "5\t1\n",
        ["comparable", "--space", "geometric-s:1/2", "--functional",
         f"(n {MAX_WEIGHT_INDEX + 1} (l + 5))", "--blocks", "{vec}"],
    ),
}

AT_THE_BOUND = {
    "float-large-norm": (LARGE, ["norm", "--space", "schlumprecht", "--vector", "{vec}"]),
    "ellp-q-half": ("1\t1\n", ["norm", "--space", "ellp:1/2", "--vector", "{vec}"]),
    "avg-epsilon-half": (
        None,
        ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "1/2",
         "--relaxed", "3"],
    ),
    "kriv-r-one": (None, ["audit", "kriv", "--count", "1", "--r", "1"]),
    "schreier-index-at-bound": (
        None, ["family", "member", "--family", f"S{MAX_FAMILY_DEPTH}", "--set", "1,2"]
    ),
    "nested-composition-at-bound": (
        None, ["family", "member", "--family", nested_a1(MAX_FAMILY_DEPTH), "--set", "1"]
    ),
    # S_n programs are built and walked in a loop, so a deep index is no
    # RecursionError: these two ended in one before
    "schreier-index-comparable": (
        "5\t1\n",
        ["comparable", "--space", "geometric-s:1/2", "--functional", "(n 1000 (l + 5))",
         "--blocks", "{vec}"],
    ),
    "schreier-index-split": (
        None, ["split", "--space", "{cfg}", "--functional", "(n 600 (l + 5) (l + 7))"]
    ),
    "weight-index-at-bound": (
        "5\t1\n",
        ["comparable", "--space", "geometric-s:1/2", "--functional",
         f"(n {MAX_WEIGHT_INDEX} (l + 5))", "--blocks", "{vec}"],
    ),
}


def argv_of(case, tmp_path):
    text, argv = case
    files = {"{cfg}": tmp_path / "xk.cfg"}
    files["{cfg}"].write_text(XK_CONFIG)
    if text is not None:
        files["{vec}"] = tmp_path / "x.vec"
        files["{vec}"].write_text(text)
    return [str(files[a]) if a in files else a for a in argv]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_with_exit_2(name, tmp_path, capsys):
    code = run(argv_of(REFUSED[name], tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(AT_THE_BOUND))
def test_at_the_bound_succeeds(name, tmp_path, capsys):
    code = run(argv_of(AT_THE_BOUND[name], tmp_path))
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("depth, refused", [(MAX_FAMILY_DEPTH, False), (MAX_FAMILY_DEPTH + 1, True)])
def test_composition_depth_adds_up(depth, refused, capsys):
    # S_{d-1}[A1] has d levels: S_n counts n and the composition adds A1's one
    code = run(["family", "member", "--family", f"S{depth - 1}[A1]", "--set", "3,4"])
    assert code == (2 if refused else 0), capsys.readouterr().err


def test_no_traceback_from_a_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tsirelson.cli", *argv_of(REFUSED["float-overflow-norm"], tmp_path)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "line 1" in proc.stderr

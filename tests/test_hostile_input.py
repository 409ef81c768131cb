"""Hostile input ends with exit 2 and an ``error:`` line, never a traceback.

Each case is one CLI invocation that once raised out of ``cli.run`` (an
overflow, a zero division, a type error or a recursion error), next to
inputs at the documented bounds that still succeed.  Every case is small:
a refusal comes before any work, and the bound cases are cheap.  A
property test then feeds generated vector files, family strings and space
configuration files through ``cli.run``.
"""

import contextlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tsirelson.cli import run
from tsirelson.families import MAX_FAMILY_DEPTH
from tsirelson.functionals import MAX_WEIGHT_INDEX

from conftest import child_env

HUGE = "1\t1e400\n"  # exact as a rational, past the float range
TINY = "1\t1\n2\t-1e-400\n"  # nonzero as a rational, zero as a float
LARGE = "1\t1e300\n"  # inside the float range
# an auxiliary S-space with an inner A_3, for ``split``
XK_CONFIG = "kind = S\ntheta = geometric:1/2\ninner_ak = 3\n"


def scc_json(epsilon):
    """The level-1 special convex combination that ``scc build --epsilon
    0.3`` writes, with this epsilon."""
    return json.dumps({"j": 1, "epsilon": epsilon, "support": [4, 5, 6, 7],
                       "coefficients": ["1/4"] * 4})


def tree_json(epsilon, value, **extra):
    """An averaging tree file of depth 1 over two leaves, one of them
    storing ``value``, with the ``extra`` keys."""
    leaves = [{"support": [3], "values": [value]}, {"support": [4], "values": ["1/1"]}]
    levels = [{"level": 1, "nodes": [{"interval": [1, 2]}]}, {"level": 0, "nodes": leaves}]
    return json.dumps({"depth": 1, "epsilon": epsilon, "levels": levels, "theta": "1/2", **extra})


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
    "float-underflow-norm": (TINY, ["norm", "--space", "schlumprecht", "--vector", "{vec}"]),
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
    # a zero denominator on the command line or in a file, and a number
    # where an averaging tree stores a string
    "maxweight-zero-denominator": (
        None, ["family", "maxweight", "--family", "S1", "--weights", "1:1/0,2:3"]
    ),
    "scc-build-zero-denominator": (None, ["scc", "build", "--level", "1", "--epsilon", "1/0"]),
    "avg-build-zero-denominator": (
        None, ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "1/0"]
    ),
    "tav-zero-denominator": (None, ["audit", "tav", "--delta", "1/0"]),
    "scc-check-zero-denominator": (scc_json("1/0"), ["scc", "check", "--input", "{vec}"]),
    "avg-check-numeric-epsilon": (
        tree_json(0.5, "1/1"), ["avg", "check", "--space", "geometric-s:1/2", "--input", "{vec}"]
    ),
    "avg-check-numeric-value": (
        tree_json("1/2", 1), ["avg", "check", "--space", "geometric-s:1/2", "--input", "{vec}"]
    ),
    # a special convex combination that no start gives, or past the
    # support bound: these ran without end
    "scc-build-epsilon-zero": (None, ["scc", "build", "--level", "1", "--epsilon", "0"]),
    "scc-build-epsilon-negative": (None, ["scc", "build", "--level", "1", "--epsilon", "-1"]),
    "scc-build-epsilon-tiny": (None, ["scc", "build", "--level", "1", "--epsilon", "1/100000"]),
    "scc-build-level-2-epsilon-tiny": (
        None, ["scc", "build", "--level", "2", "--epsilon", "1/1000000"]
    ),
    # averaging-tree levels below 0 and relaxed scales below 1: a KeyError,
    # a ZeroDivisionError, or size bounds that a negative scale turns over
    "avg-build-levels-negative": (
        None, ["avg", "build", "--space", "geometric-s:1/2", "--levels", "-1", "--epsilon", "1/2"]
    ),
    "tav-levels-negative": (None, ["audit", "tav", "--levels", "-1"]),
    "avg-build-relaxed-zero": (
        None,
        ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "1/2",
         "--relaxed", "0"],
    ),
    "tav-relaxed-zero": (None, ["audit", "tav", "--relaxed", "0"]),
    "avg-build-relaxed-negative": (
        None,
        ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "1/2",
         "--relaxed", "-3"],
    ),
    "tav-relaxed-negative": (None, ["audit", "tav", "--relaxed", "-3"]),
    "avg-check-relaxed-zero": (
        tree_json("1/2", "1/1", relaxed_scale=0),
        ["avg", "check", "--space", "geometric-s:1/2", "--input", "{vec}"],
    ),
}

# the message of a refusal that names its line
REFUSAL_MESSAGES = {
    "float-underflow-norm": "error: value -1e-400 underflows to zero in float64 (line 2)",
}

AT_THE_BOUND = {
    "float-large-norm": (LARGE, ["norm", "--space", "schlumprecht", "--vector", "{vec}"]),
    "float-explicit-zero": ("1\t1\n2\t0\n", ["norm", "--space", "schlumprecht", "--vector", "{vec}"]),
    "ellp-q-half": ("1\t1\n", ["norm", "--space", "ellp:1/2", "--vector", "{vec}"]),
    "avg-epsilon-half": (
        None,
        ["avg", "build", "--space", "geometric-s:1/2", "--levels", "1", "--epsilon", "1/2",
         "--relaxed", "3"],
    ),
    "avg-levels-zero": (
        None, ["avg", "build", "--space", "geometric-s:1/2", "--levels", "0", "--epsilon", "1/2"]
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
    # a numeric epsilon in a combination file is read as that number
    "scc-check-numeric-epsilon": (scc_json(0.3), ["scc", "check", "--input", "{vec}"]),
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
    assert err.startswith(REFUSAL_MESSAGES.get(name, "error: "))


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


# -- generated input ---------------------------------------------------------

MAX_COORDS = 12
# numbers as the parsers meet them: integers, fractions, float reprs and
# strings that are no number or none in range
NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.fractions(max_denominator=50).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e-400", "1/0", "0/0", "nan", "inf", "", "x", "1/2/3", "--1"]),
)
VALUES = st.one_of(st.fractions(max_denominator=50).map(str), st.floats(-1e6, 1e6).map(repr))
# ascending coordinates from a small or a huge first one, and rows of junk
ORDERED_VECTORS = st.builds(
    lambda first, gaps, values: "".join(
        f"{c}\t{v}\n" for c, v in zip(itertools.accumulate([first] + gaps), values)
    ),
    st.one_of(st.integers(1, 40), st.integers(10**12, 10**30)),
    st.lists(st.integers(1, 3), max_size=MAX_COORDS - 1),
    st.lists(VALUES, min_size=MAX_COORDS, max_size=MAX_COORDS),
)
JUNK_VECTORS = st.lists(
    st.tuples(NUMBERS, NUMBERS, st.sampled_from(["\t", " ", ",", "\t#\t"])), max_size=MAX_COORDS
).map(lambda rows: "".join(f"{c}{sep}{v}\n" for c, v, sep in rows))
VECTOR_FILES = st.one_of(ORDERED_VECTORS, ORDERED_VECTORS, JUNK_VECTORS)

VALID_FAMILIES = st.recursive(
    st.one_of(st.builds("A{}".format, st.integers(1, 12)), st.builds("S{}".format, st.integers(0, 12))),
    lambda inner: st.builds("{}[{}]".format, inner, inner),
    max_leaves=3,
)
FAMILIES = st.one_of(
    VALID_FAMILIES,
    VALID_FAMILIES,
    st.builds("{}{}".format, st.sampled_from(["A", "S", "B", ""]), st.integers(10**6, 10**12)),
    st.text(alphabet="AS[]0123456789 ,-", max_size=12),
)
SETS = st.one_of(
    st.lists(st.integers(1, 60), max_size=MAX_COORDS, unique=True).map(sorted),
    st.lists(st.one_of(st.integers(-2, 40), st.integers(10**9, 10**18)), max_size=MAX_COORDS),
).map(lambda elems: ",".join(map(str, elems)))

# weights: a generated ratio below 1 is at most 49/50; ratios closer to 1
# run for minutes on a few points until ROADMAP item 4's work budget
# refuses them, so they are not generated here
RATIOS = st.fractions(min_value=0, max_value=1, max_denominator=50).map(str)
WEIGHTS = st.one_of(
    RATIOS,
    RATIOS,
    st.sampled_from(["0", "1", "2", "-1/2", "1/0", "1e400", "nan", "x", ""]),
)
THETA_LINES = st.one_of(
    st.builds("theta = geometric:{}".format, WEIGHTS),
    st.builds("theta = powerlaw:{}".format, NUMBERS),
    st.builds("theta = scaledpowerlaw:{},{}".format, WEIGHTS, NUMBERS),
    st.just("theta = logreciprocal"),
    st.builds("theta = {}".format, st.text(max_size=8)),
)
CONFIG_LINES = st.one_of(
    st.builds("kind = {}".format, st.sampled_from(["A", "S", "single", "B", ""])),
    THETA_LINES,
    st.builds("inner_ak = {}".format, NUMBERS),
    st.builds("arithmetic = {}".format, st.sampled_from(["rational", "float64", "exact"])),
    st.builds("single_family = {}".format, FAMILIES),
    st.builds("single_theta = {}".format, WEIGHTS),
    st.text(alphabet="=# kindthea", max_size=10),
)
CONFIG_FILES = st.one_of(
    st.builds(
        lambda kind, theta, extra: "\n".join([f"kind = {kind}", theta] + extra),
        st.sampled_from("AS"),
        THETA_LINES,
        st.lists(CONFIG_LINES, max_size=2),
    ),
    st.builds(
        "kind = single\nsingle_family = {}\nsingle_theta = {}".format, VALID_FAMILIES, WEIGHTS
    ),
    st.lists(CONFIG_LINES, max_size=6).map("\n".join),
)
SPACES = st.one_of(
    st.sampled_from(["tsirelson", "schlumprecht", "tzafriri:1/2", "geometric-s:1/2",
                     "geometric-a:1/2", "ellp:2", "nope"]),
    st.just("{cfg}"),
    st.builds("geometric-s:{}".format, WEIGHTS),
)
ARITHMETIC = st.sampled_from([[], ["--arithmetic", "rational"], ["--arithmetic", "float64"]])


@st.composite
def invocations(draw):
    """(argv with {vec} and {cfg} placeholders, vector file text, space
    configuration text)."""
    command = draw(st.sampled_from(["norm", "witness", "member", "decompose"]))
    if command in ("norm", "witness"):
        argv = draw(ARITHMETIC) + [command, "--space", draw(SPACES), "--vector", "{vec}"]
    else:
        argv = ["family", command, "--family", draw(FAMILIES), "--set", draw(SETS)]
    return argv, draw(VECTOR_FILES), draw(CONFIG_FILES)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(invocations())
def test_generated_input_ends_with_an_exit_code(invocation):
    argv, vector_text, config_text = invocation
    out = io.StringIO()
    with tempfile.TemporaryDirectory(prefix="hostile-") as tmp:
        files = {"{vec}": Path(tmp) / "x.vec", "{cfg}": Path(tmp) / "space.cfg"}
        files["{vec}"].write_text(vector_text)
        files["{cfg}"].write_text(config_text)
        argv = [str(files[a]) if a in files else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = run(argv)
    assert code in (0, 1, 2), (argv, vector_text, config_text, out.getvalue())

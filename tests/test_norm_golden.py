"""Golden values of the norm engine beyond the reach of ``brute_norm``.

``data/norm_golden.json`` records, for a seeded corpus of vectors with up
to 40 support points (44 to 64 for the A-ladders at the sizes of the
``norm-large`` benchmark), the value, witness, ``max_n_explored`` and cutoff
certificate of ``norm``, and the value and pieces of ``admissible_sum``.
The cases of composed families (S_n[A_k] spaces, flat vectors that explore
an S_2 head, ``S1[A3]`` and ``S2`` sums) come after the others, so that
those keep their ids.  The test asserts exact equality (float values bit
for bit), so an engine change that moves a value or a witness tie-break
fails here.

Regenerate the fixture only on purpose, with the engine to be certified:

    PYTHONPATH=src python tests/test_norm_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tsirelson as t
from tsirelson.generators import random_vector
from tsirelson.norm import admissible_sum, norm
from tsirelson.scalars import render_scalar

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "norm_golden.json"
SIZES = (1, 2, 5, 12, 24, 40)
VECTORS_PER_SIZE = 2
# A-ladder spaces at the support sizes of the norm-large benchmark
LARGE_A_CASES = (
    ("schlumprecht", 44),
    ("tzafriri:1/2", 48),
    ("explicit-a", 48),
    ("geometric-a:1/2", 64),
)
ADMISSIBLE_SPACES = ("tsirelson", "geometric-a:1/2", "schlumprecht")
ADMISSIBLE_SIZES = (5, 12)
ADMISSIBLE_FAMILIES = ("A1", "A2", "A3", "S1", "S2")
# composed levels whose all-singletons partitions reach past their group
# budget: exact spaces with weights below 1, and one float space
COMPOSED_CASES = (
    ("geometric-s:2/3+A2", 24),
    ("geometric-s:2/3+A2", 40),
    ("single:S1[A3]", 32),
    ("geometric-s:9/10+A2", 24),
    ("float-geometric-s:1/2+A3", 32),
)
# flat vectors, all ones on coordinates 1 .. m, on which this space
# explores its S_2 head
FLAT_CASES = (("geometric-s:9/10+A2", 12), ("geometric-s:9/10+A2", 32))
COMPOSED_ADMISSIBLE = (
    ("tsirelson", 24, "S1[A3]"),
    ("tsirelson", 24, "S2"),
    ("geometric-a:1/2", 24, "S1[A3]"),
    ("geometric-a:1/2", 24, "S2"),
)


def golden_spaces():
    geo_s = t.preset("geometric-s:1/2")
    explicit = t.parse_space_config(
        f"kind = A\ntheta = explicit:{DATA / 'explicit_weights.txt'}\n"
    )
    return {
        "tsirelson": t.preset("tsirelson"),
        "geometric-s:1/2": geo_s,
        "geometric-s:1/2+A3": geo_s.with_inner_ak(3),
        "geometric-a:1/2": t.preset("geometric-a:1/2"),
        "schlumprecht": t.preset("schlumprecht"),
        "tzafriri:1/2": t.preset("tzafriri:1/2"),
        "single:A2": t.SpaceSpec("single", single_family=t.An(2), single_theta=Fraction(1, 2)),
        "single:S2": t.SpaceSpec("single", single_family=t.Sn(2), single_theta=Fraction(1, 3)),
        "single:A3[S1]": t.SpaceSpec(
            "single", single_family=t.Compose(t.An(3), t.Sn(1)), single_theta=Fraction(2, 3)
        ),
        "explicit-a": explicit,
        "float-geometric-s:1/2+A2": t.SpaceSpec(
            "S", thetas=t.Geometric(Fraction(1, 2)), inner_ak=2, arithmetic="float64"
        ),
        "geometric-s:2/3+A2": t.preset("geometric-s:2/3").with_inner_ak(2),
        "single:S1[A3]": t.SpaceSpec(
            "single", single_family=t.Sn(1), single_theta=Fraction(1, 2), inner_ak=3
        ),
        "geometric-s:9/10+A2": t.preset("geometric-s:9/10").with_inner_ak(2),
        "float-geometric-s:1/2+A3": t.SpaceSpec(
            "S", thetas=t.Geometric(Fraction(1, 2)), inner_ak=3, arithmetic="float64"
        ),
    }


def _vector(label, space, m, r):
    rng = random.Random(f"golden:{label}:{m}:{r}")
    first = 1 if r == 0 else rng.randint(2, 9)
    return random_vector(rng, m, first=first, gap=3, exact=space.exact)


def _encode_vector(x):
    return [[c, render_scalar(v)] for c, v in x.entries]


def _decode_vector(entries, exact):
    parse = Fraction if exact else float
    return t.SparseVector(tuple((c, parse(v)) for c, v in entries))


def _norm_record(space, x):
    result = norm(space, x)
    return {
        "value": render_scalar(result.value),
        "witness": t.format_functional(result.witness),
        "max_n_explored": result.max_n_explored,
        "cutoff_bound": render_scalar(result.cutoff_bound),
    }


def _admissible_record(space, x, family):
    result = admissible_sum(space, x, t.parse_family(family))
    return {
        "value": render_scalar(result.value),
        "pieces": [list(p) for p in result.pieces],
    }


def generate():
    spaces = golden_spaces()
    composed = {label for label, _ in COMPOSED_CASES}
    cases = [(label, m) for label in spaces if label not in composed for m in SIZES]
    cases += LARGE_A_CASES + COMPOSED_CASES
    norms = []
    for label, m in cases:
        space = spaces[label]
        for r in range(VECTORS_PER_SIZE):
            x = _vector(label, space, m, r)
            norms.append({"space": label, "vector": _encode_vector(x), **_norm_record(space, x)})
    for label, m in FLAT_CASES:
        x = t.SparseVector(tuple((c, Fraction(1)) for c in range(1, m + 1)))
        norms.append({"space": label, "vector": _encode_vector(x), **_norm_record(spaces[label], x)})
    sums = []
    cases = [
        (label, m, family)
        for label in ADMISSIBLE_SPACES
        for m in ADMISSIBLE_SIZES
        for family in ADMISSIBLE_FAMILIES
    ]
    for label, m, family in cases + list(COMPOSED_ADMISSIBLE):
        space = spaces[label]
        x = _vector(label, space, m, 0)
        sums.append(
            {
                "space": label,
                "family": family,
                "vector": _encode_vector(x),
                **_admissible_record(space, x, family),
            }
        )
    return {"norm": norms, "admissible_sum": sums}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _cases(kind):
    if __name__ == "__main__":  # regenerating: the fixture may not exist yet
        return []
    return [pytest.param(case, id=f"{case['space']}-m{len(case['vector'])}-{i}")
            for i, case in enumerate(_load()[kind])]


@pytest.fixture(scope="module")
def spaces():
    return golden_spaces()


@pytest.mark.parametrize("case", _cases("norm"))
def test_norm_matches_golden(case, spaces):
    space = spaces[case["space"]]
    x = _decode_vector(case["vector"], space.exact)
    expected = {k: case[k] for k in ("value", "witness", "max_n_explored", "cutoff_bound")}
    assert _norm_record(space, x) == expected


@pytest.mark.parametrize("case", _cases("admissible_sum"))
def test_admissible_sum_matches_golden(case, spaces):
    space = spaces[case["space"]]
    x = _decode_vector(case["vector"], space.exact)
    expected = {"value": case["value"], "pieces": case["pieces"]}
    assert _admissible_record(space, x, case["family"]) == expected


def _dump(golden):
    """One case per line, so that a diff names the cases that moved."""
    sections = []
    for kind, cases in golden.items():
        lines = ",\n".join("  " + json.dumps(case) for case in cases)
        sections.append(f" {json.dumps(kind)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump(generate()), encoding="utf-8")

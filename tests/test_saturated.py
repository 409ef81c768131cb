"""The saturated-support closed form against the interval DP run directly.

On a support whose first coordinate is at least its size, where
``saturated.applies`` says so, ``norm``, ``admissible_sum`` and
``interval_norm_table`` skip the DP.  Each case here runs ``_Engine``
itself and compares every output: value and its type, witness,
``max_n_explored``, ``cutoff_bound`` and its type, the ``admissible_sum``
value, type and pieces, and the interval table.
"""

import random
from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson.averages import interval_norm_table
from tsirelson.norm import _Engine, admissible_of, admissible_sum, norm
from tsirelson.saturated import Saturated, applies, solve

GEOM_S = t.preset("geometric-s:1/2")
EXPLICIT_S = t.SpaceSpec(
    "S", thetas=t.ExplicitSeq((Fraction(3, 5), Fraction(1, 2)), Fraction(2, 3)), name="explicit-s"
)
F = t.parse_family


def single(family, theta=Fraction(1, 3)):
    return t.SpaceSpec("single", single_family=F(family), single_theta=theta)


SPACES = {
    "tsirelson": t.preset("tsirelson"),
    "single-S2": single("S2"),
    "single-S2[S1]": single("S2[S1]"),
    "single-S1[A2]": single("S1[A2]", Fraction(2, 5)),
    "geometric-s:1/2": GEOM_S,
    "geometric-s:1/2+A2": GEOM_S.with_inner_ak(2),
    "geometric-s:2/3+A3": t.preset("geometric-s:2/3").with_inner_ak(3),
    "explicit-s": EXPLICIT_S,
}
SPACES.update(
    {f"{name}-float": spec.replace(arithmetic="float64") for name, spec in list(SPACES.items())}
)
# theta_2 = 3/4 > theta_1 = 1/2: the weight loop may explore past n = 1
RISING = t.SpaceSpec("S", thetas=t.ExplicitSeq((Fraction(1, 2), Fraction(3, 4)), Fraction(1, 2)))


def saturated_vector(rng, spec, m, tie=False):
    """m points from a first coordinate of at least m; with ``tie``, one
    entry is set so that |x|_inf = theta_1 |x|_1 where it can be."""
    coords, c = [], m + rng.randint(0, 4)
    for _ in range(m):
        coords.append(c)
        c += rng.randint(1, 3)
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)]
    theta = Fraction(spec.theta_for_index(1))
    if tie and m >= 2 and theta < 1:
        # v = theta * (v + rest) gives v = theta * rest / (1 - theta)
        top = rng.randrange(m)
        rest = sum(values) - values[top]
        candidate = theta * rest / (1 - theta)
        if candidate >= max(values):
            values[top] = candidate
    signed = [v if rng.random() < 0.6 else -v for v in values]
    return t.SparseVector(tuple(zip(coords, (spec.scalar(v) for v in signed))))


# S_1-led families: S_1..S_3 and compositions whose chain leads with S_1
FAMILIES = tuple(F(f) for f in ("S1", "S2", "S3", "S2[S1]", "S1[S2]", "S1[A2]"))


def engine_results(spec, x):
    engine = _Engine(spec, x)
    engine.fill()
    return engine, (
        engine.value(0, engine.m),
        engine.witness(0, engine.m),
        engine.max_n_explored,
        engine.cutoff_bound,
    )


def cases(seed, count):
    rng = random.Random(seed)
    names = sorted(SPACES)
    for k in range(count):
        name = names[k % len(names)]
        spec = SPACES[name]
        m = 1 if k % 9 == 0 else rng.randint(2, 12)
        yield name, spec, saturated_vector(rng, spec, m, tie=k % 4 == 0)


def test_closed_form_matches_the_engine():
    checked = ties = 0
    for name, spec, x in cases(20081227, 540):
        assert applies(spec, x, ())
        engine, expected = engine_results(spec, x)
        result = norm(spec, x)
        got = (result.value, result.witness, result.max_n_explored, result.cutoff_bound)
        assert got == expected, (name, x)
        assert type(result.value) is type(expected[0])
        assert type(result.cutoff_bound) is type(expected[3])
        assert isinstance(result.value, Fraction if spec.exact else float)
        for fam in FAMILIES:
            got = admissible_sum(spec, x, fam)
            want = admissible_of(engine, fam)
            assert got == want, (name, x, fam)
            assert type(got.value) is type(want.value)
        theta = spec.theta_for_index(1)
        ell1 = sum(abs(v) for v in x.values)
        if x.sup_norm() == theta * ell1:
            ties += 1
        checked += 1
    assert checked >= 500
    assert ties >= 20  # both sup-norm and node candidates attain the norm


def test_admissible_sum_is_the_l1_norm_in_singletons():
    rng = random.Random(5)
    x = saturated_vector(rng, GEOM_S, 7)
    result = admissible_sum(GEOM_S, x, t.Sn(2))
    assert result.value == sum(abs(v) for v in x.values)
    assert result.pieces == tuple((c,) for c in x.support)


def test_interval_table_matches_the_engine():
    for name, spec, x in cases(31415, 60):
        engine, _ = engine_results(spec, x)
        coords, d = interval_norm_table(spec, x)
        assert coords == engine.coords
        for a in range(engine.m):
            for b in range(a + 1, engine.m + 1):
                assert d(a, b) == engine.value(a, b), (name, x, a, b)
                assert type(d(a, b)) is type(engine.value(a, b))


@pytest.mark.parametrize(
    "spec, x",
    [
        (RISING, t.SparseVector(((5, Fraction(1)), (6, Fraction(1)), (8, Fraction(1))))),
        # the first coordinate is below the support size
        (GEOM_S, t.SparseVector(((2, Fraction(1)), (3, Fraction(1)), (5, Fraction(1))))),
        # A-ladders and single A_n spaces are not S-type
        (t.preset("geometric-a:1/2"), t.SparseVector(((5, Fraction(1)), (6, Fraction(2))))),
        (t.preset("ellp:2"), t.SparseVector(((5, 1.0), (6, 2.0)))),
        # chains led by A_2, and S_0's empty chain
        (single("A2[S1]"), t.SparseVector(((5, Fraction(1)), (6, Fraction(2)), (7, Fraction(1))))),
        (single("S0"), t.SparseVector(((5, Fraction(1)), (6, Fraction(2))))),
    ],
    ids=[
        "theta2-above-theta1", "unsaturated", "a-ladder", "single-a2", "single-a2[s1]", "single-s0"
    ],
)
def test_other_cases_take_the_engine(spec, x):
    assert not applies(spec, x, ())
    assert isinstance(solve(spec, x), _Engine)
    _, expected = engine_results(spec, x)
    result = norm(spec, x)
    assert (result.value, result.witness, result.max_n_explored, result.cutoff_bound) == expected


def test_rising_weights_explore_past_the_first():
    # the case the closed form must leave alone: the DP reaches n = 2
    x = t.SparseVector(((5, Fraction(1)), (6, Fraction(1)), (8, Fraction(1))))
    result = norm(RISING, x)
    assert result.max_n_explored == 2
    assert result.value == Fraction(3, 4) * 3


def test_only_s_families_take_the_closed_form():
    rng = random.Random(8)
    x = saturated_vector(rng, GEOM_S, 6)
    assert isinstance(solve(GEOM_S, x, (t.Sn(1), t.Sn(3))), Saturated)
    assert isinstance(solve(GEOM_S, x, (F("S2[S1]"), F("S1[A2]"))), Saturated)
    engine, _ = engine_results(GEOM_S, x)
    for fam in ("A2", "A2[S1]"):
        assert isinstance(solve(GEOM_S, x, (F(fam),)), _Engine), fam
        assert admissible_sum(GEOM_S, x, F(fam)) == admissible_of(engine, F(fam)), fam

import collections
import gc
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tsirelson as t
from tsirelson.errors import EmptyVector, SupportTooLarge
from tsirelson.generators import random_vector
from tsirelson.norm import STATS, _Column, _Engine, admissible_sum, brute_norm, flat_norm_table, norm
from tsirelson.scalars import FLOAT64, close as scalar_close

from test_norm_golden import golden_spaces

TSIRELSON = t.preset("tsirelson")
GEOM_S = t.preset("geometric-s:1/2")
GEOM_S_SLOW = t.preset("geometric-s:9/10")
SCHLUMPRECHT = t.preset("schlumprecht")
C0_A2 = t.SpaceSpec("single", single_family=t.An(2), single_theta=Fraction(1, 2))
# an exact weight with denominator 1: node values need no division
S1_FULL = t.SpaceSpec("single", single_family=t.Sn(1), single_theta=Fraction(1), name="s1-full")
ELL2 = t.preset("ellp:2")


def close(a, b, rel=1e-12):
    a, b = float(a), float(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class TestExamples:
    def test_c0_identity_on_pair(self):
        x = t.SparseVector(((1, Fraction(1)), (2, Fraction(1))))
        assert norm(C0_A2, x).value == 1

    def test_tsirelson_triple(self):
        x = t.SparseVector(((3, Fraction(1)), (4, Fraction(1)), (5, Fraction(1))))
        assert norm(TSIRELSON, x).value == Fraction(3, 2)

    def test_ell2_isometry_on_pair(self):
        x = t.SparseVector(((1, 1.0), (2, 1.0)))
        assert close(norm(ELL2, x).value, 2**0.5)

    def test_basis_is_normalized(self):
        for spec in (TSIRELSON, GEOM_S, C0_A2):
            assert norm(spec, t.SparseVector.basis(7)).value == 1

    def test_empty_vector(self):
        with pytest.raises(EmptyVector):
            norm(TSIRELSON, t.SparseVector(()))


class TestAdmissibleSum:
    X = t.SparseVector(((3, Fraction(1)), (4, Fraction(1)), (5, Fraction(1))))

    def test_a3_splits_into_singletons(self):
        result = admissible_sum(TSIRELSON, self.X, t.An(3))
        assert result.value == 3
        assert result.pieces == ((3,), (4,), (5,))

    def test_a1_is_the_norm(self):
        result = admissible_sum(TSIRELSON, self.X, t.An(1))
        assert result.value == norm(TSIRELSON, self.X).value

    def test_a2(self):
        result = admissible_sum(TSIRELSON, self.X, t.An(2))
        assert result.value == 2

    SAME_CHAIN = ("S3", "S2[S1]", "S1[S2]")

    def test_equal_chains_share_one_level(self):
        engine = _Engine(TSIRELSON, self.X)
        engine._setup()
        levels = [engine._level((t.parse_family(text),)) for text in self.SAME_CHAIN]
        assert levels[0] is levels[1] is levels[2]
        assert engine._level((t.Sn(2), t.Sn(1))) is levels[0]

    @pytest.mark.parametrize("spec", [TSIRELSON, GEOM_S], ids=lambda s: s.name)
    def test_equal_chains_agree(self, spec):
        rng = random.Random(f"same-chain:{spec.name}")
        for _ in range(6):
            x = random_vector(rng, rng.randint(1, 24), first=rng.randint(1, 4), gap=2)
            results = {admissible_sum(spec, x, t.parse_family(text)) for text in self.SAME_CHAIN}
            assert len(results) == 1, results


class TestWitness:
    @pytest.mark.parametrize(
        "spec", [TSIRELSON, GEOM_S, C0_A2, SCHLUMPRECHT], ids=lambda s: s.name or "c0"
    )
    def test_witness_is_valid_and_attains(self, spec, rng):
        for _ in range(25):
            x = random_vector(rng, rng.randint(1, 6), exact=spec.exact)
            result = norm(spec, x)
            assert not t.validate(spec, result.witness)
            attained = t.eval_functional(spec, result.witness, x)
            if spec.exact:
                assert attained == result.value
            else:
                assert close(attained, result.value)

    def test_cutoff_certificate_is_dominated(self, rng):
        for spec in (GEOM_S, SCHLUMPRECHT):
            for _ in range(10):
                x = random_vector(rng, rng.randint(2, 6), exact=spec.exact)
                result = norm(spec, x)
                assert float(result.cutoff_bound) <= float(result.value) * (1 + 1e-12)


class TestOracle:
    @pytest.mark.parametrize(
        "spec", [TSIRELSON, GEOM_S, GEOM_S_SLOW, C0_A2, S1_FULL], ids=lambda s: s.name or "c0"
    )
    def test_exact_agreement(self, spec, rng):
        for _ in range(30):
            x = random_vector(rng, rng.randint(1, 5))
            assert norm(spec, x).value == brute_norm(spec, x, len(x))

    def test_depth_zero_is_sup_norm(self, rng):
        x = random_vector(rng, 5)
        assert brute_norm(TSIRELSON, x, 0) == x.sup_norm()

    def test_brute_is_lower_bound_at_any_depth(self, rng):
        for _ in range(10):
            x = random_vector(rng, rng.randint(2, 5))
            full = norm(GEOM_S, x).value
            for depth in range(len(x) + 1):
                assert brute_norm(GEOM_S, x, depth) <= full

    def test_support_cap(self):
        x = t.SparseVector(tuple((i, Fraction(1)) for i in range(1, 11)))
        with pytest.raises(SupportTooLarge):
            brute_norm(TSIRELSON, x, 2)

    def test_random_spaces(self):
        """Exact agreement on random ladders: explicit weights k/20 with a
        random geometric tail, A- and S-type, some S-ladders with an inner
        A_2 or A_3."""
        rng = random.Random(1006)
        checked = 0
        for trial in range(200):
            count = rng.randint(1, 5)
            values = tuple(Fraction(rng.randint(1, 19), 20) for _ in range(count))
            thetas = t.ExplicitSeq(values, Fraction(rng.randint(1, 9), 10))
            kind = "A" if trial % 2 else "S"
            inner = rng.choice((None, None, 2, 3)) if kind == "S" else None
            spec = t.SpaceSpec(kind, thetas=thetas, inner_ak=inner)
            # six points on one A- and one S-ladder in fifty: brute_norm
            # takes 0.1-0.5 s there
            m = 6 if trial % 50 < 2 else rng.randint(1, 5)
            x = random_vector(rng, m, first=rng.randint(1, 4), gap=2)
            assert norm(spec, x).value == brute_norm(spec, x, len(x)), (spec, x)
            checked += 1
        assert checked == 200

    def test_auxiliary_space_agreement(self, rng):
        # the inner-A_k composed ladder runs through the same engine
        aux = GEOM_S.with_inner_ak(2)
        for _ in range(12):
            x = random_vector(rng, rng.randint(2, 5))
            assert norm(aux, x).value == brute_norm(aux, x, len(x))
            assert norm(aux, x).value >= norm(GEOM_S, x).value


class TestInvariants:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.fractions(min_value=-3, max_value=3)),
            min_size=1,
            max_size=5,
        ),
        st.fractions(min_value=Fraction(1, 3), max_value=3),
    )
    def test_homogeneous_and_unconditional(self, pairs, scale):
        seen = set()
        entries = []
        for c, v in sorted(pairs):
            if c not in seen and v != 0:
                entries.append((c, v))
                seen.add(c)
        if not entries:
            return
        x = t.SparseVector(tuple(entries))
        base = norm(TSIRELSON, x).value
        assert norm(TSIRELSON, x.scale(scale)).value == scale * base
        flipped = t.SparseVector(tuple((c, -v) for c, v in entries))
        assert norm(TSIRELSON, flipped).value == base
        absolute = t.SparseVector(tuple((c, abs(v)) for c, v in entries))
        assert norm(TSIRELSON, absolute).value == base

    def test_monotone_under_interval_restriction(self, rng):
        for _ in range(15):
            x = random_vector(rng, rng.randint(2, 6))
            full = norm(GEOM_S, x).value
            coords = x.support
            for a in range(len(coords)):
                for b in range(a + 1, len(coords) + 1):
                    piece = x.restrict(coords[a:b])
                    assert norm(GEOM_S, piece).value <= full

    def test_fixed_point_reexpansion(self, rng):
        # one Bellman re-expansion at the root, with fresh norm() calls on
        # the pieces, reproduces the value
        for spec in (TSIRELSON, GEOM_S):
            for _ in range(8):
                x = random_vector(rng, rng.randint(2, 5))
                result = norm(spec, x)
                coords = x.support
                best = x.sup_norm()
                max_n = result.max_n_explored + 1
                for n in range(1, max_n + 1):
                    fam = spec.family_for_index(1) if spec.kind == "single" else spec.family_for_index(n)
                    if spec.kind == "single" and n > 1:
                        break
                    theta = spec.theta_for_index(n)
                    for s in range(len(coords)):
                        best = max(
                            best,
                            theta
                            * _best_partition_sum(spec, x, coords[s:], fam),
                        )
                assert best == result.value

    def test_every_valid_functional_is_dominated(self, rng):
        from tsirelson.generators import random_valid_functional

        for spec in (TSIRELSON, GEOM_S):
            for _ in range(20):
                x = random_vector(rng, rng.randint(2, 6))
                f = random_valid_functional(spec, rng, x.support)
                assert t.eval_functional(spec, f, x) <= norm(spec, x).value

    def test_admissible_sum_rejects_empty(self):
        with pytest.raises(EmptyVector):
            admissible_sum(TSIRELSON, t.SparseVector(()), t.An(2))

    def test_norm_below_ellp_for_p_space_presets(self, rng):
        for _ in range(10):
            x = random_vector(rng, rng.randint(1, 6), exact=False)
            assert float(norm(SCHLUMPRECHT, x).value) <= x.ellp(1) + 1e-9
            assert float(norm(t.preset("tzafriri:1/2"), x).value) <= x.ellp(2) + 1e-9


PRESETS = (
    "tsirelson",
    "geometric-s:1/2",
    "geometric-a:1/2",
    "schlumprecht",
    "tzafriri:1/2",
    "ellp:2",
)
RATIONAL_PRESETS = ("tsirelson", "geometric-s:1/2", "geometric-a:1/2")
LARGE_SIZES = (16, 24, 32, 40)


def _large_vector(label, m, exact):
    return random_vector(random.Random(f"large:{label}:{m}"), m, first=2, gap=3, exact=exact)


def _spec(label):
    """A preset, with an inner A_k for a ``+A<k>`` suffix."""
    name, _, inner = label.partition("+A")
    spec = t.preset(name)
    return spec.with_inner_ak(int(inner)) if inner else spec


class TestLargeSupports:
    """Supports of 16 to 40 points, past the reach of ``brute_norm``."""

    @pytest.mark.parametrize("label", RATIONAL_PRESETS)
    @pytest.mark.parametrize("m", LARGE_SIZES)
    def test_exact_and_float_agree(self, label, m):
        spec = t.preset(label)
        as_float = spec.replace(arithmetic=FLOAT64)
        x = _large_vector(label, m, exact=True)
        x_float = t.SparseVector(tuple((c, float(v)) for c, v in x.entries))
        exact_value = norm(spec, x).value
        float_value = norm(as_float, x_float).value
        assert isinstance(exact_value, Fraction) and isinstance(float_value, float)
        assert scalar_close(exact_value, float_value, exact=False)

    @pytest.mark.parametrize("label", PRESETS + ("geometric-s:1/2+A3",))
    @pytest.mark.parametrize("m", LARGE_SIZES)
    def test_witness_is_valid_and_attains(self, label, m):
        spec = _spec(label)
        x = _large_vector(label, m, exact=spec.exact)
        result = norm(spec, x)
        assert not t.validate(spec, result.witness)
        attained = t.eval_functional(spec, result.witness, x)
        assert scalar_close(attained, result.value, spec.exact)
        assert float(result.cutoff_bound) <= float(result.value) * (1 + 1e-12)

    @pytest.mark.parametrize("label", ("tzafriri:1/2", "geometric-a:1/2"))
    def test_flat_table_matches_engine(self, label):
        spec = t.preset(label)
        table = flat_norm_table(spec, 33)
        for size in range(1, 34):
            flat = t.SparseVector(tuple((c, 1) for c in range(1, size + 1)))
            value = norm(spec, flat).value
            assert table[size] == value and type(table[size]) is type(value), size


# an A-ladder whose largest weight comes late: the weight loop passes the
# small theta_2..theta_5 and explores n = 6 >= j - i on short intervals
LATE_RECORD = t.SpaceSpec(
    "A",
    thetas=t.ExplicitSeq(tuple(Fraction(1, d) for d in (4, 5, 6, 7, 8)) + (Fraction(3, 5),), Fraction(1, 2)),
    name="late-record",
)

# recorded norm(...).as_dict() on random_vector(Random(f"late:{m}"), m)
LATE_RECORD_RESULTS = {
    (16, "rational"): {
        "value": "35049/2500",
        "witness": "(n 6 (l - 3) (l + 4) (n 6 (n 6 (l + 6) (l + 9) (l + 12) (l + 13)) (l - 14) (l + 17)"
        " (l + 19) (l + 20) (l + 21)) (l + 25) (l - 26) (l + 28))",
        "max_n_explored": 6,
        "cutoff_bound": "1861/200",
    },
    (16, "float64"): {
        "value": "14.019599999999999",
        "witness": "(n 6 (l - 3) (l + 4) (n 6 (n 6 (l + 6) (l + 9) (l + 12) (l + 13)) (l - 14) (l + 17)"
        " (l + 19) (l + 20) (l + 21)) (l + 25) (l - 26) (l + 28))",
        "max_n_explored": 6,
        "cutoff_bound": "9.3049999999999997",
    },
    (24, "rational"): {
        "value": "2577/125",
        "witness": "(n 6 (n 6 (l + 2) (l + 3) (l + 4) (l - 5) (l + 8)) (l + 10) (l - 14) (n 6 (l + 16)"
        " (l + 18) (l + 21) (l + 24) (l + 27) (l + 29)) (n 6 (l + 30) (l - 32) (l + 35) (l + 38)"
        " (l + 41) (n 6 (l + 42) (l + 44) (l + 45))) (l + 48))",
        "max_n_explored": 6,
        "cutoff_bound": "1381/100",
    },
    (24, "float64"): {
        "value": "20.616",
        "witness": "(n 6 (n 6 (l + 2) (l + 3) (l + 4) (l - 5) (l + 8)) (l + 10) (l - 14) (n 6 (l + 16)"
        " (l + 18) (l + 21) (l + 24) (l + 27) (l + 29)) (n 6 (l + 30) (l - 32) (l + 35) (l + 38)"
        " (l + 41) (n 6 (l + 42) (l + 44) (l + 45))) (l + 48))",
        "max_n_explored": 6,
        "cutoff_bound": "13.81",
    },
}


class TestLateRecord:
    """An A-ladder with increasing weights up to theta_6: the weight loop
    cannot stop at the first small weights."""

    def test_agrees_with_brute_force(self):
        rng = random.Random("late-brute")
        for m in range(2, 9):
            x = random_vector(rng, m)
            result = norm(LATE_RECORD, x)
            assert result.max_n_explored == 6
            # a tree over m points has depth at most m - 1
            assert result.value == brute_norm(LATE_RECORD, x, m - 1), m

    @pytest.mark.parametrize("m, arithmetic", sorted(LATE_RECORD_RESULTS))
    def test_results_are_pinned(self, m, arithmetic):
        spec = LATE_RECORD.replace(arithmetic=arithmetic)
        x = random_vector(random.Random(f"late:{m}"), m, exact=spec.exact)
        result = norm(spec, x)
        assert result.as_dict() == LATE_RECORD_RESULTS[m, arithmetic]
        assert not t.validate(spec, result.witness)


FLOAT_SPACES = (
    SCHLUMPRECHT,
    t.preset("tzafriri:1/2"),
    t.preset("ellp:2"),
    GEOM_S.replace(arithmetic=FLOAT64),
)


def _as_floats(x):
    return t.SparseVector(tuple((c, float(v)) for c, v in x.entries))


class TestArithmetic:
    """Results are in the space's arithmetic whatever the input type: the
    engine and ``eval_functional`` take each coordinate through
    ``SpaceSpec.scalar`` once."""

    @pytest.mark.parametrize("spec", FLOAT_SPACES, ids=lambda s: f"{s.name}:{s.arithmetic}")
    def test_a_rational_vector_in_a_float_space(self, spec):
        x = _large_vector(spec.name, 16, exact=True)
        rational, floating = norm(spec, x), norm(spec, _as_floats(x))
        assert type(rational.value) is float and rational.value == floating.value
        assert rational.witness == floating.witness
        assert rational.as_dict() == floating.as_dict()
        value = t.eval_functional(spec, rational.witness, x)
        assert type(value) is float
        assert value == t.eval_functional(spec, rational.witness, _as_floats(x))
        fam = t.An(2)
        assert admissible_sum(spec, x, fam) == admissible_sum(spec, _as_floats(x), fam)
        third = norm(spec, t.SparseVector.basis(1, Fraction(1, 3)))
        assert type(third.value) is float and third.as_dict()["value"] == "0.33333333333333331"

    @pytest.mark.parametrize("label", RATIONAL_PRESETS)
    def test_a_float_vector_in_an_exact_space(self, label):
        spec = t.preset(label)
        x = t.SparseVector(((2, 0.5), (3, -0.25), (5, 0.1), (6, 1 / 3)))
        result = norm(spec, x)
        assert type(result.value) is Fraction and type(result.cutoff_bound) is Fraction
        value = t.eval_functional(spec, result.witness, x)
        assert type(value) is Fraction and value == result.value

    def test_the_saturated_interval_table(self):
        from tsirelson.averages import interval_norm_table

        spec = TSIRELSON.replace(arithmetic=FLOAT64)
        x = t.SparseVector(tuple((c, Fraction(1, c)) for c in range(8, 14)))
        d = interval_norm_table(spec, x)[1]
        d_float = interval_norm_table(spec, _as_floats(x))[1]
        assert type(d(0, 6)) is float and d(0, 6) == d_float(0, 6) == norm(spec, x).value

    def test_scalar_converts_only_other_types(self):
        third, tenth = Fraction(1, 3), 0.1
        assert TSIRELSON.scalar(third) is third and SCHLUMPRECHT.scalar(tenth) is tenth
        assert TSIRELSON.scalar(0.5) == Fraction(1, 2) and SCHLUMPRECHT.scalar(third) == 1 / 3
        assert type(TSIRELSON.scalar(1)) is Fraction and type(SCHLUMPRECHT.scalar(1)) is float


class TestEngineContract:
    """The engine surface that ``benchmarks/tracer.py`` wraps and reads:
    ``_Engine(space, x)``, ``fill()`` with no arguments, the ``witness(i, j)``
    method, and the attributes ``space``, ``m``, ``coords`` and the
    unscaled ``abs_values``."""

    X = t.SparseVector(((2, Fraction(-3, 4)), (3, Fraction(1, 3)), (5, Fraction(5, 7))))

    def test_surface(self):
        assert inspect.isclass(_Engine)
        assert list(inspect.signature(_Engine).parameters) == ["space", "x"]
        assert list(inspect.signature(_Engine.fill).parameters) == ["self"]
        assert list(inspect.signature(_Engine.witness).parameters) == ["self", "i", "j"]

    @pytest.mark.parametrize("spec", [TSIRELSON, SCHLUMPRECHT], ids=lambda s: s.name)
    def test_attributes_before_and_after_fill(self, spec):
        x = self.X if spec.exact else t.SparseVector(tuple((c, float(v)) for c, v in self.X.entries))
        engine = _Engine(spec, x)
        for _ in range(2):
            assert engine.space is spec
            assert engine.m == 3
            assert tuple(engine.coords) == (2, 3, 5)
            assert tuple(engine.abs_values) == tuple(abs(v) for v in x.values)
            assert all(isinstance(v, Fraction if spec.exact else float) for v in engine.abs_values)
            engine.fill()
        assert engine.value(0, engine.m) == norm(spec, x).value
        assert t.format_functional(engine.witness(0, engine.m)) == t.format_functional(
            norm(spec, x).witness
        )

    FAMILIES = (
        t.Sn(0),  # its chain is D itself
        t.An(1),
        t.An(2),
        t.An(3),
        t.An(4),
        t.Sn(1),
        t.Sn(2),
        t.Compose(t.An(3), t.Sn(1)),
    )

    def test_value_accessor(self, rng):
        engine = _Engine(TSIRELSON, self.X)
        engine.fill()
        for a in range(engine.m):
            for b in range(a + 1, engine.m + 1):
                piece = self.X.restrict(engine.coords[a:b])
                assert engine.value(a, b) == norm(TSIRELSON, piece).value
        assert engine.value(0, engine.m, t.An(3)) == sum(engine.abs_values)
        # a level's value is C_K at the group cap K, and its pieces are read
        # off the final tables; on the flat vector in geometric-s:9/10 the
        # S1 chain already holds a table after the fill (the inner chain of
        # the head S2)
        flat = t.SparseVector(tuple((c, Fraction(1)) for c in range(1, 6)))
        for spec in (TSIRELSON, GEOM_S_SLOW):
            for x in (self.X, flat, random_vector(rng, 5, first=1, gap=2)):
                engine = _Engine(spec, x)
                engine.fill()
                if x is flat:
                    assert (engine._level((t.Sn(1),)).F is not None) == (spec is GEOM_S_SLOW)
                coords = engine.coords
                for a in range(engine.m):
                    for b in range(a + 1, engine.m + 1):
                        for fam in self.FAMILIES:
                            value = engine.value(a, b, fam)
                            assert value == _best_partition_sum(spec, x, coords[a:b], fam), (a, b, fam)
                            pieces = engine.pieces(a, b, fam)
                            assert [s for s, _ in pieces] + [b] == [a] + [e for _, e in pieces]
                            assert t.is_member(fam, tuple(coords[s] for s, _ in pieces))
                            assert sum(engine.value(s, e) for s, e in pieces) == value
                        by_cap = [engine.value(a, b, t.An(k)) for k in range(1, b - a + 2)]
                        assert by_cap == sorted(by_cap)


class TestFastLimits:
    """``fast[i]`` of a composed level, the end of its all-singletons
    partitions from i: in an exact space whose weights are all below 1 the
    largest j with coords[i:j] a member of the composed family, elsewhere
    the group budget."""

    STACKS = ("S1[A2]", "S1[A3]", "S2", "S2[A2]", "S3", "A2[A3]", "A3[S1]")

    @staticmethod
    def _fast(spec, x, family):
        engine = _Engine(spec, x)
        engine._setup()
        return engine._level((family,)).fast

    @pytest.mark.parametrize("text", STACKS)
    def test_largest_member_in_exact_spaces_below_one(self, text):
        family = t.parse_family(text)
        rng = random.Random(f"fast:{text}")
        for spec in (TSIRELSON, GEOM_S):
            for _ in range(8):
                x = random_vector(rng, rng.randint(1, 14), first=1, gap=2)
                coords, m = x.support, len(x)
                members = [
                    max(j for j in range(i + 1, m + 1) if t.is_member(family, coords[i:j]))
                    for i in range(m)
                ]
                assert self._fast(spec, x, family) == members

    @pytest.mark.parametrize("text", STACKS)
    def test_group_budget_in_float_spaces_and_at_weight_one(self, text):
        family = t.parse_family(text)
        head = family.outer if isinstance(family, t.Compose) else family
        weight_one = t.SpaceSpec("single", single_family=t.Sn(1), single_theta=Fraction(1), inner_ak=3)
        rng = random.Random(f"capped:{text}")
        for spec in (GEOM_S.replace(arithmetic=FLOAT64), weight_one):
            for _ in range(8):
                x = random_vector(rng, rng.randint(1, 14), first=1, gap=2, exact=spec.exact)
                coords, m = x.support, len(x)
                budgets = [head.n if isinstance(head, t.An) else c for c in coords]
                assert self._fast(spec, x, family) == [i + min(budgets[i], m - i) for i in range(m)]


class TestWorkCounters:
    """Deterministic work counts of the fill, read off ``_Engine.stats`` and
    gated without timing."""

    def test_a_ladder_fills_each_interval_in_one_column_call(self):
        # every head A_n reads its C_k values off one row fill of the
        # interval, not one column call per explored weight index (about
        # 11k here)
        m = 44
        engine = _Engine(SCHLUMPRECHT, _large_vector("schlumprecht", m, exact=False))
        engine.fill()
        assert engine.max_n_explored >= 30
        assert 0 < engine.stats["row_fills"] <= m * (m - 1) // 2

    @pytest.mark.parametrize(
        "label, m, fill_cap",
        [("schlumprecht", 44, 13_874), ("tsirelson", 40, 6_000), ("geometric-s:1/2+A3", 36, 3_300)],
    )
    def test_k_steps_of_the_fill_and_of_the_witness(self, label, m, fill_cap):
        # a k-step is one C_k(e) cell; the witness re-derives its splits
        # with at most a tenth of the fill's cells.  S_1[A_3] takes the l1
        # norm on up to 3 * coords[i] points with no cell: the cap is under
        # 60% of the 5,535 cells of a fill capped at coords[i] points
        spec = _spec(label)
        engine = _Engine(spec, _large_vector(label, m, exact=spec.exact))
        engine.fill()
        fill_cells = engine.stats["cells"]
        engine.witness(0, m)
        assert 0 < fill_cells <= fill_cap
        assert engine.stats["cells"] - fill_cells <= fill_cells // 10

    # the six ``norm-large`` benchmark presets in the workload's order, with
    # caps on the fill's summed cells and row fills over its rounds 0 .. 5
    # at seed 20081227, which these counts meet exactly
    NORM_LARGE = (
        ("tsirelson", 40, 25_065, 0),
        ("geometric-s:1/2", 40, 26_014, 0),
        ("geometric-s:1/2+A3", 36, 13_835, 0),
        ("geometric-a:1/2", 64, 6_166, 740),
        ("schlumprecht", 44, 83_412, 5_097),
        ("tzafriri:1/2", 48, 67_616, 1_432),
    )

    def test_norm_large_work_stays_capped(self):
        specs = [_spec(label) for label, *_ in self.NORM_LARGE]
        work = collections.Counter()
        for r in range(6):
            rng = random.Random(f"norm-large:20081227:{r}")
            for spec, (label, m, _, _) in zip(specs, self.NORM_LARGE):
                engine = _Engine(spec, random_vector(rng, m, first=1, gap=3, exact=spec.exact))
                engine.fill()
                work[label, "cells"] += engine.stats["cells"]
                work[label, "row_fills"] += engine.stats["row_fills"]
        for label, _, cells, row_fills in self.NORM_LARGE:
            assert work[label, "cells"] <= cells, label
            assert work[label, "row_fills"] <= row_fills, label

    @pytest.mark.parametrize(
        "label, m",
        [("tsirelson", 40), ("geometric-s:1/2", 40), ("geometric-a:1/2", 64), ("schlumprecht", 44), ("tzafriri:1/2", 48)],
    )
    def test_carried_bounds_rule_out_s_type_candidates_only(self, label, m):
        # the S-type heads and the A-ladder heads alike: an A-ladder skips
        # C_n(i) cells, and fills no row whose every cell it skips; caps on
        # the A-ladders' C_k cells and row fills
        cell_cap, fill_cap = {
            "geometric-a:1/2": (1_000, 200),
            "schlumprecht": (13_874, None),
            "tzafriri:1/2": (12_000, None),
        }.get(label, (None, None))
        spec = _spec(label)
        engine = _Engine(spec, _large_vector(label, m, exact=spec.exact))
        engine.fill()
        stats = engine.stats
        assert stats["skips"] > 0
        assert cell_cap is None or stats["cells"] <= cell_cap
        assert fill_cap is None or stats["row_fills"] <= fill_cap

    @pytest.mark.parametrize(
        "label",
        ("tsirelson", "geometric-s:1/2", "geometric-s:1/2+A3", "geometric-a:1/2", "schlumprecht", "tzafriri:1/2"),
    )
    def test_a_ladders_never_enter_the_chains(self, label, monkeypatch):
        # an A-ladder reads every head off the base column: no chain level
        # and no exclusive value; the S-types show the patch is live
        def refuse(*args):
            raise AssertionError("chain machinery entered")

        monkeypatch.setattr(_Engine, "_exclusive", refuse)
        monkeypatch.setattr(_Engine, "_head", refuse)
        spec = _spec(label)
        engine = _Engine(spec, _large_vector(label, 12, exact=spec.exact))
        if spec.kind == "A":
            engine.fill()
            assert engine.max_n_explored >= 2
        else:
            with pytest.raises(AssertionError, match="chain machinery"):
                engine.fill()

    @pytest.mark.parametrize("label, m", [("schlumprecht", 44), ("geometric-s:1/2", 40)])
    def test_each_weight_is_computed_once(self, label, m, monkeypatch):
        # the weight loops, the scale and the cutoff certificate read the
        # weights through one table
        spec = _spec(label)
        x = _large_vector(label, m, exact=spec.exact)
        calls = collections.Counter()
        for name in ("theta_tail_sup", "theta_for_index"):

            def counted(space, n, name=name, method=getattr(t.SpaceSpec, name)):
                calls[name, n] += 1
                return method(space, n)

            monkeypatch.setattr(t.SpaceSpec, name, counted)
        _Engine(spec, x).fill()
        assert calls and max(calls.values()) == 1, calls


BOUND_SPACES = ("tsirelson", "geometric-s:1/2", "geometric-s:1/2+A3", "geometric-s:2/3+A3", "geometric-s:9/10", "ellp:2")
LADDER_SPACES = ("geometric-a:1/2", "schlumprecht", "tzafriri:1/2", "explicit-a")


def _bound_specs():
    """Each space in its own arithmetic and, when exact, in float64."""
    for label in BOUND_SPACES:
        spec = _spec(label)
        yield pytest.param(spec, id=f"{label}:{spec.arithmetic}")
        if spec.exact:
            yield pytest.param(spec.replace(arithmetic=FLOAT64), id=f"{label}:float64")


def _ladder_specs():
    """The A-ladders of the golden fixture in their own arithmetic, and
    geometric-a:1/2 in float64."""
    spaces = golden_spaces()
    for label in LADDER_SPACES:
        yield pytest.param(spaces[label], id=f"{label}:{spaces[label].arithmetic}")
    yield pytest.param(spaces["geometric-a:1/2"].replace(arithmetic=FLOAT64), id="geometric-a:1/2:float64")


def _cell(column, n, i):
    """C_n(i) of the column if computed, else the bound that stood in for
    it, else None."""
    if n < len(column.C) and column.C[n][i] is not None:
        return column.C[n][i]
    return None if column.U[n] is None else column.U[n][i]


class TestCarriedBound:
    """The weight loops rule out a candidate on [i, j) that cannot beat the
    best so far by a bound carried from [i, j - 1): the head's exclusive
    value there (in an S-type or single-family space) or C_n(i) (in an
    A-ladder), or the bound that stood in for it, plus |x_{j-1}|, widened
    in floats."""

    SIZES = (4, 7, 11, 16, 23, 31, 40)
    LADDER_SIZES = (4, 9, 17, 30, 45, 64)

    @staticmethod
    def _result(engine):
        result = (
            engine.value(0, engine.m),
            t.format_functional(engine.witness(0, engine.m)),
            engine.max_n_explored,
            engine.cutoff_bound,
        )
        return result, tuple(map(type, result)), engine.stats["skips"]

    @classmethod
    def _results(cls, spec, vectors):
        out = []
        for x in vectors:
            engine = _Engine(spec, x)
            engine.fill()
            out.append(cls._result(engine))
        return out

    @pytest.mark.parametrize("spec", _bound_specs())
    def test_bounds_hold_and_rule_out_no_winner(self, spec, monkeypatch):
        rng = random.Random(f"bound:{spec.name}:{spec.inner_ak}:{spec.arithmetic}")
        vectors = [
            random_vector(rng, m, first=rng.randint(1, 3), gap=3, exact=spec.exact)
            for m in self.SIZES
            for _ in range(2)
        ]
        # (b) the results without the bound: heads that carry no values
        # rule out nothing
        head = _Engine._head

        def carrying_nothing(engine, n):
            level = head(engine, n)
            engine._carriers.clear()
            return level

        with monkeypatch.context() as patch:
            patch.setattr(_Engine, "_head", carrying_nothing)
            plain = self._results(spec, vectors)
        assert all(skips == 0 for _, _, skips in plain)

        # (a) every exclusive value computed is at most its carried bound,
        # and an exact carried value is at least D[i][j-1]: a head carries
        # a sum over two or more pieces (triangle inequality)
        checked = []
        exclusive = _Engine._exclusive

        def checking(engine, level, i, j, ell):
            result = exclusive(engine, level, i, j, ell)
            carried = level.carried
            if result is not None and carried is not None and carried[i] is not None:
                assert not spec.exact or carried[i] >= engine._base.F[i][j - 1], (i, j)
                bound = (carried[i] + engine._absv[j - 1]) * engine._widen
                assert result[0] <= bound, (i, j)
                checked.append(bound)
            return result

        monkeypatch.setattr(_Engine, "_exclusive", checking)
        pruned = self._results(spec, vectors)
        assert [r[:2] for r in pruned] == [r[:2] for r in plain]
        assert checked and sum(skips for _, _, skips in pruned) > 0

    @pytest.mark.parametrize("spec", _ladder_specs())
    def test_ladder_bounds_hold_and_rule_out_no_winner(self, spec, monkeypatch):
        rng = random.Random(f"ladder-bound:{spec.name}:{spec.arithmetic}")
        vectors = [
            random_vector(rng, m, first=rng.randint(1, 3), gap=3, exact=spec.exact)
            for m in self.LADDER_SIZES
            for _ in range(2)
        ]
        weigh = _Engine._weigh_ladder

        # (b) the results without the bound: a previous column with no
        # cells and no bounds carries nothing
        def carrying_nothing(engine, i, j, *args):
            engine._prev_column = _Column(engine._base, j - 1, engine.stats)
            return weigh(engine, i, j, *args)

        with monkeypatch.context() as patch:
            patch.setattr(_Engine, "_weigh_ladder", carrying_nothing)
            plain = self._results(spec, vectors)
        assert all(skips == 0 for _, _, skips in plain)

        # (a) every C_n(i) at j the engine computes or skips is at most the
        # bound carried for it from j - 1, and an exact carried value is at
        # least D[i][j-1]; a skipped cell is computed afresh to check it
        columns = {}

        def recording(engine, i, j, *args):
            columns[j] = engine._base.live
            return weigh(engine, i, j, *args)

        monkeypatch.setattr(_Engine, "_weigh_ladder", recording)
        pruned, checked, skipped = [], 0, 0
        for x in vectors:
            columns.clear()
            engine = _Engine(spec, x)
            engine.fill()
            pruned.append(self._result(engine))
            D, absv, widen = engine._base.F, engine._absv, engine._widen
            for j, column in columns.items():
                prev = columns.get(j - 1)
                if prev is None:
                    continue
                fresh = _Column(engine._base, j, dict.fromkeys(STATS, 0))
                for n in range(2, j - 1):
                    for i in range(j - 1 - n):
                        carried = _cell(prev, n, i)
                        value = _cell(column, n, i)
                        if carried is None or value is None:
                            continue
                        if n >= len(column.C) or column.C[n][i] is None:
                            value = fresh.best(i, n)
                            skipped += 1
                        assert not spec.exact or carried >= D[i][j - 1], (n, i, j)
                        assert value <= (carried + absv[j - 1]) * widen, (n, i, j)
                        checked += 1
        assert [r[:2] for r in pruned] == [r[:2] for r in plain]
        assert skipped and checked > skipped
        assert sum(skips for _, _, skips in pruned) > 0


class TestNoCyclicGarbage:
    """An engine is freed by reference counting alone: no call leaves
    objects that only the cyclic collector can reclaim."""

    @pytest.mark.parametrize("label, m", [("tsirelson", 40), ("schlumprecht", 44), ("geometric-s:1/2+A3", 36)])
    def test_calls_leave_no_cycles(self, label, m):
        from tsirelson.averages import interval_norm_table

        spec = _spec(label)
        x = _large_vector(label, m, exact=spec.exact)
        calls = (
            lambda: norm(spec, x),
            lambda: admissible_sum(spec, x, t.Sn(1)),
            lambda: interval_norm_table(spec, x),
        )
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


def _best_partition_sum(spec, x, coords, fam):
    best = 0
    n = len(coords)
    for mask in range(1 << (n - 1)):
        pieces = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                pieces.append(coords[start : i + 1])
                start = i + 1
        pieces.append(coords[start:])
        if not t.is_member(fam, tuple(p[0] for p in pieces)):
            continue
        total = sum(norm(spec, x.restrict(p)).value for p in pieces)
        best = max(best, total)
    return best

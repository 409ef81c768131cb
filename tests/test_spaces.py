import itertools
import math
from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson.errors import IrrationalInRationalMode, ParseError
from tsirelson.records import Record
from tsirelson.spaces import PRODUCT, SUM, DerivedParams, parse_explicit_file, theta_sup_from


def exhaustive_regularized(values, mode, n, max_terms=6):
    """Oracle: enumerate all index combinations with bounded term count."""
    best = None
    indices = range(1, len(values) + 1)
    for length in range(1, max_terms + 1):
        for combo in itertools.product(indices, repeat=length):
            total = sum(combo) if mode == SUM else math.prod(combo)
            if total < n:
                continue
            prod = math.prod(values[i - 1] for i in combo)
            if best is None or prod > best:
                best = prod
    return best


class TestTheta:
    def test_geometric(self):
        assert t.theta(t.Geometric(Fraction(1, 2)), 3) == Fraction(1, 8)

    def test_log_reciprocal_exact_at_powers_of_two(self):
        assert t.theta(t.LogReciprocal(), 3) == Fraction(1, 2)
        with pytest.raises(IrrationalInRationalMode):
            t.theta(t.LogReciprocal(), 2)
        assert abs(t.theta(t.LogReciprocal(), 2, "float64") - 1 / math.log2(3)) < 1e-15

    def test_explicit_tail(self):
        seq = t.ExplicitSeq((Fraction(1, 2), Fraction(3, 10)), Fraction(1, 2))
        assert t.theta(seq, 3) == Fraction(3, 20)

    def test_powerlaw_rational_only_for_perfect_powers(self):
        seq = t.PowerLaw(2)
        assert t.theta(seq, 4) == Fraction(1, 2)
        with pytest.raises(IrrationalInRationalMode):
            t.theta(seq, 3)

    def test_float_scale_refused_in_rational_mode(self):
        # 4**(-1/2) is rational, but the float scale 0.5 is not exact
        seq = t.ScaledPowerLaw(0.5, 2)
        for weight in (t.theta, theta_sup_from):
            with pytest.raises(IrrationalInRationalMode, match="float"):
                weight(seq, 4, "rational")
        assert t.theta(t.ScaledPowerLaw(Fraction(1, 2), 2), 4) == Fraction(1, 4)
        assert t.theta(seq, 4, "float64") == 0.25

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            t.Geometric(Fraction(3, 2))
        with pytest.raises(ValueError):
            t.PowerLaw(1)
        with pytest.raises(ValueError):
            t.ExplicitSeq((), Fraction(1, 2))

    def test_tail_sup(self):
        seq = t.ExplicitSeq((Fraction(1, 10), Fraction(1, 2)), Fraction(1, 2))
        assert theta_sup_from(seq, 1, "rational") == Fraction(1, 2)
        assert theta_sup_from(seq, 3, "rational") == Fraction(1, 4)


# (sequence, decreasing, arithmetics in which every weight is defined)
BUILTIN_SEQUENCES = [
    (t.Geometric(Fraction(1, 2)), True, ("rational", "float64")),
    (t.Geometric(Fraction(2, 3)), True, ("rational", "float64")),
    (t.Geometric(Fraction(9, 10)), True, ("rational", "float64")),
    (t.PowerLaw(2), True, ("float64",)),
    (t.PowerLaw(2.5), True, ("float64",)),
    (t.ScaledPowerLaw(0.5, 2), True, ("float64",)),
    (t.LogReciprocal(), True, ("float64",)),
    (
        t.ExplicitSeq((Fraction(1, 10), Fraction(1, 2), Fraction(1, 3)), Fraction(1, 2)),
        False,
        ("rational", "float64"),
    ),
]


@pytest.mark.parametrize(
    "seq, decreasing, arithmetic",
    [(seq, dec, a) for seq, dec, modes in BUILTIN_SEQUENCES for a in modes],
    ids=lambda v: repr(v) if isinstance(v, Record) else str(v),
)
def test_tail_sup_bounds_every_later_weight(seq, decreasing, arithmetic):
    """The engine's stop rule and cutoff certificate take theta_sup_from(n)
    as a bound of every weight from n on."""
    for n in range(1, 65):
        sup = theta_sup_from(seq, n, arithmetic)
        assert type(sup) is (Fraction if arithmetic == "rational" else float)
        for m in range(n, n + 65):
            assert sup >= t.theta(seq, m, arithmetic), (n, m)
        if decreasing:
            assert sup == t.theta(seq, n, arithmetic), n


class TestRegularize:
    def test_geometric_sum_mode_is_power(self):
        values = t.regularize(t.Geometric(Fraction(1, 2)), SUM, 6)
        assert values == [Fraction(1, 2) ** n for n in range(1, 7)]

    def test_explicit_examples(self):
        seq = t.ExplicitSeq((Fraction(1, 2), Fraction(3, 10)), Fraction(1, 2))
        assert t.regularize(seq, SUM, 2) == [Fraction(1, 2), Fraction(3, 10)]
        seq2 = t.ExplicitSeq((Fraction(3, 5), Fraction(1, 5)), Fraction(1, 2))
        assert t.regularize(seq2, SUM, 2)[1] == Fraction(9, 25)

    @pytest.mark.parametrize("mode", [SUM, PRODUCT])
    def test_matches_exhaustive_oracle(self, mode):
        seq = t.ExplicitSeq(
            (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(3, 10)),
            Fraction(1, 2),
        )
        horizon = 4
        got = t.regularize(seq, mode, horizon)
        values = [t.theta(seq, n) for n in range(1, 2 * horizon)]
        for n in range(1, horizon + 1):
            expected = exhaustive_regularized(values, mode, n, max_terms=5)
            assert got[n - 1] == expected, (mode, n)

    @pytest.mark.parametrize("mode", [SUM, PRODUCT])
    def test_idempotent_and_supermultiplicative(self, mode):
        seq = t.ExplicitSeq(
            (Fraction(1, 2), Fraction(1, 5), Fraction(1, 4)), Fraction(1, 3)
        )
        horizon = 6
        first = t.regularize(seq, mode, horizon)
        again = t.regularize(
            t.ExplicitSeq(tuple(first), Fraction(1, 3)), mode, horizon
        )
        assert again == first
        for n in range(1, horizon + 1):
            for m in range(n, horizon + 1):
                idx = n + m if mode == SUM else n * m
                if idx <= horizon:
                    assert first[idx - 1] >= first[n - 1] * first[m - 1]

    def test_pointwise_dominates_input(self):
        seq = t.ExplicitSeq((Fraction(1, 2), Fraction(1, 5)), Fraction(1, 2))
        got = t.regularize(seq, SUM, 5)
        for n in range(1, 6):
            assert got[n - 1] >= t.theta(seq, n)


class TestCheckRegularity:
    def test_geometric_clean(self):
        report = t.check_regularity(t.Geometric(Fraction(1, 2)), SUM, 10)
        assert report.regular
        assert report.cn_nonincreasing

    def test_explicit_violation(self):
        seq = t.ExplicitSeq((Fraction(1, 2), Fraction(1, 5)), Fraction(1, 2))
        report = t.check_regularity(seq, SUM, 2)
        assert not report.regular
        assert report.supermultiplicativity_violations[0][:2] == (1, 1)

    def test_explicit_no_violation(self):
        seq = t.ExplicitSeq((Fraction(1, 2), Fraction(3, 10)), Fraction(1, 2))
        report = t.check_regularity(seq, SUM, 2)
        assert report.regular

    @pytest.mark.parametrize("arithmetic", ["rational", "float64"])
    @pytest.mark.parametrize("ratio", ["1/3", "1/2", "2/3", "5/7", "3/4", "9/10"])
    def test_geometric_regular_in_both_arithmetics(self, ratio, arithmetic):
        # theta_{n+m} = theta_n * theta_m holds with equality, so in floats
        # one ulp of rounding must not count as a violation
        report = t.check_regularity(t.Geometric(Fraction(ratio)), SUM, 12, arithmetic)
        assert report.regular
        assert report.cn_nonincreasing

    def test_float_violation_is_still_reported(self):
        seq = t.ExplicitSeq((Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)), Fraction(1, 2))
        report = t.check_regularity(seq, SUM, 12, "float64")
        assert report.supermultiplicativity_violations[0] == (2, 3, 0.05, 0.06)


class TestDerivedParams:
    def test_geometric_s_type_exact(self):
        for ratio in ("1/2", "2/3", "9/10"):
            params = t.derived_params(t.preset(f"geometric-s:{ratio}"), 6)
            assert params.theta_limit_estimate == Fraction(ratio)
            assert type(params.theta_limit_estimate) is Fraction
            assert params.exact_limit
            assert params.c_n == (1,) * 6
            assert all(type(c) is Fraction for c in params.c_n)

    def test_single_family(self):
        params = t.derived_params(t.preset("tsirelson"), 8)
        assert params == DerivedParams(8, Fraction(1, 2), (1,), None, None, exact_limit=True)

    def test_non_geometric_s_ladder_estimates_the_limit(self):
        # theta_n^(1/n) is 1/3, then 1/2 from n = 2 on: theta = 1/2 and
        # c_n = theta_n / theta^n is 2/3, then 1
        spec = t.SpaceSpec("S", thetas=t.ExplicitSeq((Fraction(1, 3), Fraction(1, 4)), Fraction(1, 2)))
        params = t.derived_params(spec, 8)
        assert not params.exact_limit
        assert params.theta_limit_estimate == pytest.approx(0.5, rel=1e-15)
        assert params.c_n == pytest.approx((2 / 3,) + (1.0,) * 7, rel=1e-15)
        assert all(type(c) is float for c in params.c_n)
        assert (params.q_estimate, params.p_estimate) == (None, None)

    def test_tzafriri_constant_cn(self):
        spec = t.preset("tzafriri:9/10")
        params = t.derived_params(spec, 8)
        assert params.q_estimate == 2
        for c in params.c_n:
            assert abs(c - 0.9) < 1e-12

    def test_schlumprecht_is_p1(self):
        params = t.derived_params(t.preset("schlumprecht"), 8)
        assert params.p_estimate == 1.0


class TestConfig:
    def test_single_roundtrip(self):
        spec = t.parse_space_config(
            "kind = single\nsingle_family = S1\nsingle_theta = 1/2\n"
        )
        assert spec.kind == "single"
        assert spec.single_family == t.Sn(1)
        assert spec.single_theta == Fraction(1, 2)

    def test_s_kind_with_inner(self):
        spec = t.parse_space_config(
            "kind = S\ntheta = geometric:1/2\ninner_ak = 3\n# comment\n"
        )
        assert spec.inner_ak == 3
        assert spec.family_for_index(2) == t.Compose(t.Sn(2), t.An(3))

    def test_explicit_file(self):
        seq = parse_explicit_file("1/2\n0.3\ntail 1/2\n")
        assert seq.values == (Fraction(1, 2), Fraction(3, 10))

    def test_arithmetic_override_is_applied_before_the_space_is_built(self):
        text = "kind = A\ntheta = logreciprocal\n"
        with pytest.raises(IrrationalInRationalMode):
            t.parse_space_config(text)
        assert t.parse_space_config(text, "float64").arithmetic == "float64"
        geometric = "kind = S\ntheta = geometric:1/2\narithmetic = float64\n"
        assert t.parse_space_config(geometric, "rational").arithmetic == "rational"

    def test_errors(self):
        with pytest.raises(ParseError):
            t.parse_space_config("kind = Q\n")
        with pytest.raises(ParseError):
            parse_explicit_file("1/2\n")

    def test_inner_ak_rejected_for_a_type(self):
        with pytest.raises(ValueError):
            t.SpaceSpec("A", thetas=t.Geometric(Fraction(1, 2)), inner_ak=2)


class TestPresets:
    def test_names(self):
        assert t.preset("tsirelson").single_theta == Fraction(1, 2)
        assert t.preset("schlumprecht").arithmetic == "float64"
        assert t.preset("tzafriri:1/2").p_hint == 2.0
        assert t.preset("geometric-s:1/3").thetas == t.Geometric(Fraction(1, 3))
        with pytest.raises(ValueError):
            t.preset("nope")

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import tsirelson as t
from tsirelson import families
from tsirelson.errors import NonSuccessive, ParseError, Unbounded
from tsirelson.families import family_members

from conftest import exhaustive_member


class TestMembership:
    def test_s1_examples(self):
        assert t.is_member(t.Sn(1), (3, 4, 5))
        assert not t.is_member(t.Sn(1), (1, 2))

    def test_s2_with_decomposition_witness(self):
        assert t.is_member(t.Sn(2), (2, 3, 4, 6, 7, 8))
        witness = t.decompose(t.Sn(2), (2, 3, 4, 6, 7, 8))
        assert witness is not None

    def test_an_cardinality(self):
        assert t.is_member(t.An(3), (1, 5, 9))
        assert not t.is_member(t.An(2), (1, 5, 9))

    def test_empty_set_everywhere(self):
        for fam in (t.An(2), t.Sn(0), t.Sn(3), t.Compose(t.Sn(1), t.An(2))):
            assert t.is_member(fam, ())

    def test_s0_is_singletons(self):
        assert t.is_member(t.Sn(0), (7,))
        assert not t.is_member(t.Sn(0), (7, 8))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=9), max_size=7), st.integers(0, 2))
    def test_greedy_matches_exhaustive_oracle_sn(self, elems, n):
        elems = tuple(sorted(elems))
        assert t.is_member(t.Sn(n), elems) == exhaustive_member(t.Sn(n), elems)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=9), max_size=7))
    def test_greedy_matches_exhaustive_oracle_compositions(self, elems):
        elems = tuple(sorted(elems))
        for fam in (
            t.Compose(t.Sn(1), t.An(2)),
            t.Compose(t.An(2), t.Sn(1)),
            t.Compose(t.Sn(2), t.An(2)),
            t.Compose(t.Compose(t.Sn(1), t.An(2)), t.An(2)),
            t.Sn(3),
            t.Compose(t.Sn(2), t.Sn(1)),
            t.Compose(t.An(3), t.Compose(t.Sn(1), t.An(2))),
            t.Compose(t.Compose(t.Sn(2), t.An(2)), t.An(3)),
        ):
            assert t.is_member(fam, elems) == exhaustive_member(fam, elems), (
                fam,
                elems,
            )

    @pytest.mark.parametrize(
        "text", ["A2", "S0", "S1", "S2", "S3", "A2[S1]", "S2[S1]", "A3[S1[A2]]", "S2[A2][A3]"]
    )
    def test_family_members_match_exhaustive_filter(self, text):
        fam = t.parse_family(text)
        for g in range(10):
            subsets = [
                elems
                for size in range(g + 1)
                for elems in combinations(range(1, g + 1), size)
                if exhaustive_member(fam, elems)
            ]
            assert sorted(family_members(fam, g)) == sorted(subsets), (text, g)

    def test_long_set(self):
        # the greedy S_1 pieces double in length from 1,000: seven pieces,
        # well inside the S_2 budget of 1,000 set by the first element
        elems = tuple(range(1000, 101_000))
        assert t.is_member(t.Sn(2), elems)
        assert not t.is_member(t.Sn(2), (2,) + elems)
        assert not t.is_member(t.Sn(1), elems)

    def test_no_memo_after_an_audit(self):
        from tsirelson.audit import audit_sch1_grid

        audit_sch1_grid(12)
        assert families._member_memo == {}


class TestRegularityLaws:
    FAMILIES = [t.An(n) for n in (1, 3, 5)] + [t.Sn(n) for n in (0, 1, 2, 3)]
    GROUND = 9

    def _members(self, fam):
        return list(family_members(fam, self.GROUND))

    @pytest.mark.parametrize("fam", FAMILIES, ids=str)
    def test_hereditary_by_single_removal(self, fam):
        # removing one element at a time reaches every subset
        for member in self._members(fam):
            for i in range(len(member)):
                assert t.is_member(fam, member[:i] + member[i + 1 :])

    @pytest.mark.parametrize("fam", FAMILIES, ids=str)
    def test_spreading_by_single_bump(self, fam):
        # unit right-shifts generate every coordinatewise spread
        for member in self._members(fam):
            taken = set(member)
            for i, e in enumerate(member):
                nxt = e + 1
                if nxt <= self.GROUND and nxt not in taken:
                    bumped = tuple(sorted(taken - {e} | {nxt}))
                    assert t.is_member(fam, bumped)

    def test_member_iff_decompose(self):
        fam = t.Compose(t.An(2), t.Sn(1))
        for size in range(0, 6):
            for elems in combinations(range(1, 9), size):
                witness = t.decompose(fam, elems)
                assert (witness is not None) == t.is_member(fam, elems)
                if witness is not None and elems:
                    pieces = witness.piece_sets()
                    assert t.is_admissible(fam.outer, pieces)
                    for piece in pieces:
                        assert t.is_member(fam.inner, piece)


class TestAdmissibility:
    def test_examples(self):
        assert t.is_admissible(t.Sn(1), ((2, 5), (6, 9)))
        assert not t.is_admissible(t.Sn(1), ((1,), (2,)))
        assert not t.is_admissible(t.An(2), ((1,), (2,), (3,)))

    def test_non_successive_is_an_error(self):
        with pytest.raises(NonSuccessive):
            t.is_admissible(t.Sn(1), ((2, 5), (4, 9)))
        with pytest.raises(NonSuccessive):
            t.is_admissible(t.Sn(1), ((4, 9), (1, 2)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            t.is_admissible(t.Sn(1), ((2, 5), ()))


class TestDecompose:
    def test_singleton_s1(self):
        witness = t.decompose(t.Sn(1), (7,))
        assert witness.piece_sets() == ((7,),)

    def test_compose_example(self):
        witness = t.decompose(t.Compose(t.An(3), t.Sn(1)), (2, 3, 4, 5))
        assert witness.piece_sets() == ((2, 3), (4, 5))

    def test_non_member(self):
        assert t.decompose(t.Sn(2), (1, 2)) is None


class TestMaxWeight:
    def test_tie_breaks_toward_small_cardinality(self):
        subset, value = t.max_weight_subset(
            t.Sn(1), {1: Fraction(5), 2: Fraction(3), 3: Fraction(2)}
        )
        assert value == 5
        assert subset == (1,)

    def test_empty_weights(self):
        assert t.max_weight_subset(t.Sn(2), {}) == ((), 0)

    def test_best_two_of_three(self):
        subset, value = t.max_weight_subset(t.An(2), {1: 1, 2: 1, 3: 1})
        assert value == 2
        assert subset == (1, 2)

    @pytest.mark.parametrize("text", ["A2", "S1", "S2", "A2[S1]", "S1[A2]", "S2[A2][A3]"])
    def test_matches_brute_force(self, text):
        fam = t.parse_family(text)
        rng = random.Random(text)
        for _ in range(40):
            coords = rng.sample(range(1, 12), rng.randint(0, 8))
            weights = {c: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for c in coords}
            support = sorted(c for c in coords if weights[c] > 0)
            # the largest weight, then the smallest size, then the lexicographically first set
            best = min(
                (-sum(weights[c] for c in elems), len(elems), elems)
                for size in range(len(support) + 1)
                for elems in combinations(support, size)
                if exhaustive_member(fam, elems)
            )
            assert t.max_weight_subset(fam, weights) == (best[2], -best[0]), (text, weights)


class TestMaximalMember:
    def test_s1_saturates_at_start(self):
        assert t.maximal_member(t.Sn(1), 4) == (4, 5, 6, 7)

    def test_an(self):
        assert t.maximal_member(t.An(3), 10) == (10, 11, 12)

    def test_s2_guard_properties(self):
        run = t.maximal_member(t.Sn(2), 2)
        assert t.is_member(t.Sn(2), run)
        assert not t.is_member(t.Sn(2), run + (run[-1] + 1,))
        assert run[0] == 2
        assert run == tuple(range(2, 2 + len(run)))

    @pytest.mark.parametrize("start", range(1, 9))
    def test_s1_run_has_start_elements(self, start):
        assert t.maximal_member(t.Sn(1), start) == tuple(range(start, 2 * start))

    @pytest.mark.parametrize("start", range(1, 7))
    def test_s2_run_size(self, start):
        # `start` successive S_1 runs, each as long as its first element
        assert len(t.maximal_member(t.Sn(2), start)) == start * (2**start - 1)

    def test_s3_reaches_the_guard_in_few_steps(self, monkeypatch):
        calls = 0
        max_run = families._max_run

        def counting(family, start):
            nonlocal calls
            calls += 1
            return max_run(family, start)

        monkeypatch.setattr(families, "_max_run", counting)
        with pytest.raises(Unbounded, match="consecutive run exceeds guard"):
            t.maximal_member(t.Sn(3), 3)
        assert calls < 100


class TestFamilyHash:
    def test_cached_hash_is_the_dataclass_hash(self):
        inner = t.Compose(t.Sn(1), t.An(2))
        cases = [
            (t.An(3), (3,)),
            (t.Sn(0), (0,)),
            (t.Sn(2), (2,)),
            (inner, (t.Sn(1), t.An(2))),
            (t.Compose(inner, t.An(3)), (inner, t.An(3))),
        ]
        for family, fields in cases:
            assert hash(family) == hash(fields)
            assert hash(family) == hash(fields)  # the second call reads the cache
            assert family == t.parse_family(str(family))
            assert repr(family) == repr(t.parse_family(str(family)))


class TestParser:
    @pytest.mark.parametrize("text", ["A3", "S2", "S2[A3]", "A4[S1[A2]]", "S1[A2][A2]"])
    def test_roundtrip(self, text):
        # note: grammar is left-nesting via juxtaposed brackets
        expr = t.parse_family(text)
        assert t.parse_family(str(expr)) == expr

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            t.parse_family("S2[A]")
        assert "position" in str(err.value)

    def test_rejects_trailing(self):
        with pytest.raises(ParseError):
            t.parse_family("S2]")

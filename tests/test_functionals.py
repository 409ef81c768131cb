import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tsirelson as t
from tsirelson.errors import InvalidInput, ParseError
from tsirelson.functionals import (
    MAX_FUNCTIONAL_DEPTH,
    Violation,
    comparability_constant,
    fold,
    leaves,
    negate_functional,
    restrict_functional,
    support,
)
from tsirelson.generators import random_blocks, random_valid_functional, random_vector
from tsirelson.norm import norm
from tsirelson.vectors import sum_vectors

TSIRELSON = t.preset("tsirelson")
GEOM_S = t.preset("geometric-s:1/2")
SCHLUMPRECHT = t.preset("schlumprecht")


class TestEval:
    def test_node_example(self):
        f = t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4), t.Leaf(1, 5)))
        x = t.SparseVector(((3, Fraction(1)), (4, Fraction(1)), (5, Fraction(1))))
        assert t.eval_functional(TSIRELSON, f, x) == Fraction(3, 2)

    def test_negative_leaf(self):
        assert t.eval_functional(
            TSIRELSON, t.Leaf(-1, 2), t.SparseVector(((2, Fraction(1)),))
        ) == -1

    def test_disjoint_support_is_zero(self):
        f = t.Node(1, (t.Leaf(1, 9),))
        assert t.eval_functional(TSIRELSON, f, t.SparseVector(((2, Fraction(1)),))) == 0


class TestValidate:
    def test_ok_example(self):
        f = t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4), t.Leaf(1, 5)))
        assert t.validate(TSIRELSON, f) == []

    def test_minima_violation(self):
        f = t.Node(1, (t.Leaf(1, 1), t.Leaf(1, 2)))
        violations = t.validate(TSIRELSON, f)
        assert violations and "minima" in violations[0].reason

    def test_single_child_weight_bookkeeping(self):
        f = t.Node(2, (t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4))),))
        assert t.validate(GEOM_S, f) == []
        # single-family spaces have no index 2
        assert t.validate(TSIRELSON, f)

    def test_overlapping_children(self):
        f = t.Node(1, (t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 5))), t.Leaf(1, 4)))
        violations = t.validate(GEOM_S, f)
        assert violations and "successive" in violations[0].reason

    def test_violations_in_pre_order_with_paths(self):
        L, N = t.Leaf, t.Node
        hidden = N(1, (L(1, 7), L(1, 6)))  # below an unavailable index
        f = N(1, (L(1, 2), N(1, (L(1, 3), N(1, (L(1, 5), L(1, 4))))), N(2, (hidden, L(1, 9)))))
        assert t.validate(TSIRELSON, f) == [
            Violation((), "children minima (2, 3, 6) not a member of S1"),
            Violation((1, 1), "children supports not successive"),
            Violation((2,), "weight index 2 not available"),
        ]
        assert t.validate(TSIRELSON, hidden) == [
            Violation((), "children supports not successive")
        ]

    def test_out_of_order_subtree_is_a_violation(self):
        # odd's first child spans 3..5 though its leaves run 5, 3: the root's
        # children overlap, which hides the first child's own violation
        L, N = t.Leaf, t.Node
        odd = N(1, (N(1, (L(1, 5), L(1, 3))), L(1, 4)))
        assert t.validate(TSIRELSON, odd) == [
            Violation((), "children supports not successive")
        ]
        assert t.validate(TSIRELSON, N(1, (L(1, 2), N(1, (L(1, 5), L(1, 3)))))) == [
            Violation((1,), "children supports not successive")
        ]
        assert t.validate(TSIRELSON, N(2, (odd, L(1, 9)))) == [
            Violation((), "weight index 2 not available")
        ]

    def test_matches_norming_set_closure_on_small_supports(self):
        # everything reachable by the closure validates; small perturbations
        # breaking admissibility do not
        coords = (2, 3, 4, 5)
        reachable = _closure(GEOM_S, coords, depth=2, max_n=2)
        assert len(reachable) > 50
        for f in reachable:
            assert t.validate(GEOM_S, f) == [], t.format_functional(f)
        bad = t.Node(1, (t.Leaf(1, 1), t.Leaf(1, 2), t.Leaf(1, 3)))
        assert t.validate(GEOM_S, bad)


def _closure(space, coords, depth, max_n):
    """Enumerate the norming-set closure over subsets of coords (positive
    signs, bounded depth and weight index)."""
    level = [t.Leaf(1, c) for c in coords]
    everything = list(level)
    for _ in range(depth):
        new_level = []
        for k in (2, 3):
            for combo in itertools.combinations(everything, k):
                sups = [support(g) for g in combo]
                if any(a[-1] >= b[0] for a, b in zip(sups, sups[1:])):
                    continue
                minima = tuple(s[0] for s in sups)
                for n in range(1, max_n + 1):
                    if t.is_member(space.family_for_index(n), minima):
                        new_level.append(t.Node(n, tuple(combo)))
        everything.extend(new_level)
        level = new_level
        if len(everything) > 4000:
            break
    return everything


class TestRandomValidFunctional:
    @pytest.mark.parametrize(
        "text, inner_ak",
        [("A2[A3]", None), ("A2[A2]", None), ("S0", None), ("S0", 3), ("S1[A3]", None),
         ("A3[S1]", None), ("S2", None)],
    )
    def test_single_family_functionals_are_valid(self, text, inner_ak):
        # a split takes at most the budget of the family's outermost level
        space = t.SpaceSpec(
            "single", single_family=t.parse_family(text), single_theta=Fraction(1, 2),
            inner_ak=inner_ak,
        )
        coords = tuple(range(10, 30))
        for seed in range(200):
            f = random_valid_functional(space, random.Random(seed), coords)
            assert t.validate(space, f) == [], (seed, str(f))


class TestSExpr:
    def test_example(self):
        f = t.parse_functional("(n 1 (l + 3) (l + 4))")
        assert f == t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4)))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_roundtrip(self, seed):
        rng = random.Random(seed)
        coords = tuple(sorted(rng.sample(range(2, 30), rng.randint(1, 8))))
        f = random_valid_functional(GEOM_S, rng, coords)
        assert t.parse_functional(t.format_functional(f)) == f

    def test_errors(self):
        for text in ["(n 1)", "(l + )", "(x 1 (l + 2))", "(l + 2", "(l + 2))"]:
            with pytest.raises(Exception):
                t.parse_functional(text)

    def test_depth_cap(self):
        def nested(depth):
            return "(n 1 " * (depth - 1) + "(l + 2)" + ")" * (depth - 1)

        f = t.parse_functional(nested(MAX_FUNCTIONAL_DEPTH))
        assert support(f) == (2,)
        with pytest.raises(ParseError, match="nested deeper"):
            t.parse_functional(nested(MAX_FUNCTIONAL_DEPTH + 1))


class TestComparable:
    def test_leaves_inside_blocks(self):
        blocks = [
            t.SparseVector(((2, Fraction(1)), (3, Fraction(1)))),
            t.SparseVector(((5, Fraction(1)),)),
        ]
        f = t.Node(1, (t.Leaf(1, 2), t.Leaf(1, 3), t.Leaf(1, 5)))
        # the root contains every block point of the functional
        assert t.is_comparable(f, blocks)

    def test_partial_straddle_fails(self):
        blocks = [
            t.SparseVector(((2, Fraction(1)), (3, Fraction(1)))),
            t.SparseVector(((4, Fraction(1)), (5, Fraction(1)))),
        ]
        f = t.Node(1, (t.Leaf(1, 2), t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4)))))
        assert not t.is_comparable(f, blocks)

    def test_witness_of_single_block(self, rng):
        for _ in range(10):
            x = random_vector(rng, rng.randint(1, 5))
            witness = norm(GEOM_S, x).witness
            assert t.is_comparable(witness, [x])

    def test_children_not_successive_raise(self):
        blocks = [t.SparseVector(((3, Fraction(1)), (4, Fraction(1))))]
        for f in (
            t.Node(1, (t.Leaf(1, 4), t.Leaf(1, 3))),
            t.Node(1, (t.Node(1, (t.Leaf(1, 5), t.Leaf(1, 3))), t.Leaf(1, 4))),
            t.Node(1, (t.Leaf(1, 3), t.Node(1, (t.Leaf(1, 4), t.Leaf(1, 4))))),
        ):
            with pytest.raises(ValueError, match="not successive"):
                t.is_comparable(f, blocks)

    @pytest.mark.parametrize(
        "name", ["tsirelson", "geometric-s:1/2", "geometric-a:1/2", "schlumprecht"]
    )
    def test_agrees_with_the_definition(self, name):
        """is_comparable against a reference built from each node's support
        set, on random valid functionals whose supports mix block points,
        points in the gaps and points past the ends."""
        from tsirelson.functionals import _partially_met

        spec = t.preset(name)
        rng = random.Random(name)
        met = 0
        for _ in range(130):
            blocks = random_blocks(
                rng, rng.randint(1, 5), block_size_max=rng.randint(1, 5),
                first=rng.randint(1, 9), exact=spec.exact,
            )
            points = [c for b in blocks for c in b.support]
            pool = range(max(1, points[0] - 3), points[-1] + 4)
            extra = rng.sample(pool, min(len(pool), rng.randint(0, 6)))
            coords = sorted(set(points) | set(extra))
            if rng.random() < 0.3:
                coords = sorted(rng.sample(coords, rng.randint(1, len(coords))))
            f = random_valid_functional(spec, rng, tuple(coords), leaf_prob=0.1)
            expected = _partially_met_by_definition(f, blocks)
            assert _partially_met(f, blocks) == expected
            assert t.is_comparable(f, blocks) == (not expected)
            met += bool(expected)
        assert 20 <= met <= 110


def _partially_met_by_definition(f, blocks):
    """The blocks some node of f meets partially: its support's range meets
    the block's range without lying inside it, and the support misses some
    of f's points in the block."""
    everything = set(support(f))
    bad = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, t.Leaf):
            continue
        stack.extend(g.children)
        held = set(support(g))
        lo, hi = min(held), max(held)
        for i, block in enumerate(blocks):
            blo, bhi = block.range()
            meets = lo <= bhi and hi >= blo
            inside = blo <= lo and hi <= bhi
            if meets and not inside and not set(block.support) & everything <= held:
                bad.add(i)
    return bad


class TestCoverMap:
    def test_cover_paths(self):
        blocks = [
            t.SparseVector(((3, Fraction(1)), (4, Fraction(1)))),
            t.SparseVector(((5, Fraction(1)), (6, Fraction(1)))),
            t.SparseVector(((9, Fraction(1)),)),
        ]
        inner = t.Node(1, (t.Leaf(1, 5), t.Leaf(1, 6)))
        f = t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4), inner))
        from tsirelson.functionals import _covering_path, support

        covers = {}
        for idx, block in enumerate(blocks):
            w_n = set(block.support) & set(support(f))
            covers[idx] = _covering_path(f, min(w_n), max(w_n)) if w_n else None
        assert covers[0] == ()  # block 0 spread over two root children
        assert covers[1] == (2,)  # the inner node holds all of block 1
        assert covers[2] is None  # disjoint
        # recorded nodes are maximal with the containment property
        for idx, path in covers.items():
            if path is None:
                continue
            node = f
            for step in path:
                node = node.children[step]
            w = set(blocks[idx].support) & set(support(f))
            assert w <= set(support(node))
            if isinstance(node, t.Node):
                assert not any(
                    w <= set(support(child)) for child in node.children
                )


class TestRestrictAndNegate:
    def test_restriction_stays_valid(self, rng):
        for _ in range(20):
            coords = tuple(sorted(rng.sample(range(2, 25), rng.randint(2, 8))))
            f = random_valid_functional(GEOM_S, rng, coords)
            keep = set(rng.sample(coords, rng.randint(1, len(coords))))
            g = restrict_functional(f, keep)
            if g is not None:
                assert t.validate(GEOM_S, g) == []
                assert set(support(g)) == keep & set(support(f))

    def test_negation_flips_eval(self, rng):
        coords = (3, 4, 5, 6)
        f = random_valid_functional(GEOM_S, rng, coords)
        x = random_vector(rng, 4)
        assert t.eval_functional(GEOM_S, negate_functional(f), x) == -t.eval_functional(
            GEOM_S, f, x
        )


class TestSplitXk:
    def test_four_leaf_regrouping(self):
        aux = t.SpaceSpec(
            "single",
            single_family=t.Sn(1),
            single_theta=Fraction(1, 2),
            inner_ak=2,
        )
        f = t.Node(1, (t.Leaf(1, 2), t.Leaf(1, 3), t.Leaf(1, 4), t.Leaf(1, 5)))
        parts = t.split_xk(aux, f)
        assert parts == [
            t.Node(1, (t.Leaf(1, 2), t.Leaf(1, 3))),
            t.Node(1, (t.Leaf(1, 4), t.Leaf(1, 5))),
        ]

    def test_groups_end_between_blocks_only(self):
        # without blocks the S_1 greedy cuts between 3 and 4; the block
        # {3, 4} moves the cut to the last allowed position, after 2
        aux = t.SpaceSpec(
            "single",
            single_family=t.Sn(1),
            single_theta=Fraction(1, 2),
            inner_ak=2,
        )
        f = t.Node(1, (t.Leaf(1, 2), t.Leaf(1, 3), t.Leaf(1, 4), t.Leaf(1, 5)))
        blocks = [ones((2,)), ones((3, 4)), ones((5,))]
        assert t.split_xk(aux, f, blocks) == [
            t.Node(1, (t.Leaf(1, 2),)),
            t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4), t.Leaf(1, 5))),
        ]
        assert t.split_xk(aux, f, [ones((2, 3)), ones((4, 5))]) == t.split_xk(aux, f)

    def test_already_valid_passthrough(self):
        aux = GEOM_S.with_inner_ak(2)
        f = t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4)))
        assert t.split_xk(aux, f) == [f]

    def test_invalid_input_rejected(self):
        aux = GEOM_S.with_inner_ak(2)
        f = t.Node(1, (t.Leaf(1, 1), t.Leaf(1, 2), t.Leaf(1, 3), t.Leaf(1, 4)))
        with pytest.raises(InvalidInput):
            t.split_xk(aux, f)

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_sum_identity(self, k, rng):
        aux = GEOM_S.with_inner_ak(k)
        for _ in range(40):
            size = rng.randint(2, 10)
            c = rng.randint(1, 4)
            coords = []
            for _ in range(size):
                coords.append(c)
                c += rng.randint(1, 3)
            f = random_valid_functional(aux, rng, tuple(coords))
            parts = t.split_xk(aux, f)
            assert 1 <= len(parts) <= k + 1
            sups = [support(p) for p in parts]
            for a, b in zip(sups, sups[1:]):
                assert a[-1] < b[0]
            for p in parts:
                assert t.validate(GEOM_S, p) == []
            for _ in range(3):
                x = random_vector(rng, rng.randint(1, 6))
                assert sum(
                    t.eval_functional(GEOM_S, p, x) for p in parts
                ) == t.eval_functional(GEOM_S, f, x)


class TestMakeComparable:
    def test_identity_when_comparable(self):
        blocks = [t.SparseVector(((3, Fraction(1)), (4, Fraction(1))))]
        f = t.Node(1, (t.Leaf(1, 3), t.Leaf(1, 4)))
        assert t.make_comparable(TSIRELSON, f, blocks) == f

    def test_single_block_trivial(self, rng):
        x = random_vector(rng, 4, nonnegative=True)
        witness = norm(GEOM_S, x).witness
        assert t.make_comparable(GEOM_S, witness, [x]) == witness

    @pytest.mark.parametrize(
        "spec,seed",
        [(TSIRELSON, 101), (SCHLUMPRECHT, 102), (GEOM_S, 103)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_random_suite(self, spec, seed):
        rng = random.Random(seed)
        const = comparability_constant(spec)
        for _ in range(80):
            blocks = random_blocks(
                rng,
                rng.randint(2, 4),
                block_size_max=3,
                first=rng.randint(4, 9),
                exact=spec.exact,
            )
            coords = tuple(c for b in blocks for c in b.support)
            f = random_valid_functional(spec, rng, coords, leaf_prob=0.1)
            v = sum_vectors(blocks)
            g = t.make_comparable(spec, f, blocks)
            assert t.validate(spec, g) == []
            assert t.is_comparable(g, blocks)
            lhs = const * t.eval_functional(spec, g, v)
            rhs = abs(t.eval_functional(spec, f, v))
            if spec.exact:
                assert lhs >= rhs
            else:
                assert float(lhs) >= float(rhs) - 1e-9

    @pytest.mark.parametrize(
        "text, blocks, value, achieved",
        [
            # the A_4 regrouping once cut through the block {18, 20, 21, 23},
            # and the best comparable part lost more than the factor 4
            (
                "(n 1 (n 1 (n 1 (l + 5) (l - 9)) (n 1 (n 1 (l + 11) (l - 12)) (l + 16))"
                " (n 1 (l - 18) (l + 20)) (n 1 (l + 21) (l + 23)) (l + 27))"
                " (n 1 (l - 29) (l + 31) (l - 33) (l + 38) (l + 40)) (n 1 (l + 42) (l + 44))"
                " (l - 45))",
                [
                    {5: 1}, {9: -2, 11: "7/4", 12: "1/4"}, {16: "1/3"},
                    {18: "3/4", 20: "3/2", 21: 7, 23: "-1/2"},
                    {27: "1/5", 29: "3/4", 31: 3, 33: 1},
                    {38: "1/5", 40: 1, 42: "6/5", 44: "-4/5", 45: "8/5"},
                ],
                Fraction(331, 240),
                Fraction(2293, 960),
            ),
            # f(v) < 0: the output once took 1/24, a factor 25.3 below |f(v)|,
            # unseen by a check against the signed value
            (
                "(n 1 (n 1 (l - 4) (n 1 (l - 6) (n 1 (l - 10) (l - 12)))"
                " (n 1 (l + 13) (n 1 (l - 14) (l + 16)))) (l + 19) (n 1 (l + 20) (l - 21))"
                " (n 1 (l + 22) (l - 25) (l - 26)))",
                [
                    {4: "2/3", 6: "1/3"}, {10: 1}, {12: 4, 13: 2, 14: 1, 16: 7},
                    {19: "3/5", 20: "2/3", 21: "4/3", 22: -6}, {25: "1/6", 26: -1},
                ],
                Fraction(-253, 240),
                Fraction(29, 12),
            ),
        ],
        ids=["regrouping-cut-a-block", "negative-value"],
    )
    def test_recorded_cases(self, text, blocks, value, achieved):
        f = t.parse_functional(text)
        blocks = [
            t.SparseVector(tuple((c, Fraction(q)) for c, q in b.items())) for b in blocks
        ]
        v = sum_vectors(blocks)
        assert t.eval_functional(TSIRELSON, f, v) == value
        g = t.make_comparable(TSIRELSON, f, blocks)
        assert t.validate(TSIRELSON, g) == []
        assert t.is_comparable(g, blocks)
        assert t.eval_functional(TSIRELSON, g, v) == achieved
        assert 4 * achieved >= abs(value)


def chain(first, depth, weight=1):
    """depth nested nodes, each holding the leaf at the next coordinate and
    the rest of the chain: (n w (l + first) (n w (l + first+1) ... (l + last)))."""
    g = t.Leaf(1, first + depth)
    for c in range(first + depth - 1, first - 1, -1):
        g = t.Node(weight, (t.Leaf(1, c), g))
    return g


def ones(coords):
    return t.SparseVector(tuple((c, Fraction(1)) for c in coords))


class TestFold:
    def test_children_in_order_and_post_order(self):
        f = t.Node(2, (t.Leaf(1, 2), t.Node(1, (t.Leaf(-1, 3), t.Leaf(1, 4))), t.Leaf(1, 6)))
        visits = []

        def node(g, kids):
            visits.append(g.weight_index)
            return [g.weight_index, kids]

        assert fold(f, lambda g: g.coordinate, node) == [2, [2, [1, [3, 4]], 6]]
        assert visits == [1, 2]
        assert [g.coordinate for g in leaves(f)] == [2, 3, 4, 6]
        assert fold(t.Leaf(1, 5), lambda g: g.coordinate, node) == 5

    def test_implicit_tree(self):
        # children() builds the tree as the fold walks it: halve a span
        def halves(span):
            a, b = span
            return None if b - a == 1 else [(a, (a + b) // 2), ((a + b) // 2, b)]

        def node(span, kids):
            return [span, *kids]

        assert fold((0, 4), lambda span: span, node, children=halves) == [
            (0, 4), [(0, 2), (0, 1), (1, 2)], [(2, 4), (2, 3), (3, 4)]
        ]


DEEP = 10_000


class TestDeepTrees:
    """Every walker runs without recursion: a 10,000-deep chain goes through
    under the default recursion limit."""

    def test_walkers_on_a_deep_chain(self):
        f = chain(2, DEEP)
        last = 2 + DEEP
        assert support(f) == tuple(range(2, last + 1))
        assert t.validate(TSIRELSON, f) == []
        x = ones((2, last))
        assert t.eval_functional(TSIRELSON, f, x) == Fraction(1, 2) + Fraction(1, 2**DEEP)
        assert t.eval_functional(TSIRELSON, negate_functional(f), x) == -(
            Fraction(1, 2) + Fraction(1, 2**DEEP)
        )
        text = t.format_functional(f)
        assert text == (
            "".join(f"(n 1 (l + {c}) " for c in range(2, last)) + f"(l + {last})" + ")" * DEEP
        )
        evens = restrict_functional(f, range(2, last + 1, 2))
        assert support(evens) == tuple(range(2, last + 1, 2))
        assert t.validate(TSIRELSON, evens) == []
        assert t.is_comparable(f, [ones(range(last - 5, last + 1))])
        assert not t.is_comparable(f, [ones(range(2, 5002)), ones(range(5002, last + 1))])

    def test_deep_violation_has_its_full_path(self):
        last = 2 + DEEP
        g = t.Node(1, (t.Leaf(1, last), t.Leaf(1, last - 1)))
        for c in range(last - 2, 1, -1):
            g = t.Node(1, (t.Leaf(1, c), g))
        assert t.validate(TSIRELSON, g) == [
            Violation((1,) * (DEEP - 1), "children supports not successive")
        ]

    def test_split_regroups_above_a_deep_chain(self):
        # minima (2, 3, 4, 5) are S_1[A_2]- but not S_1-admissible; the
        # chain below is valid in the plain space and stays whole
        aux = TSIRELSON.with_inner_ak(2)
        deep = chain(5, DEEP)
        f = t.Node(1, (t.Leaf(1, 2), t.Leaf(1, 3), t.Leaf(1, 4), deep))
        parts = t.split_xk(aux, f)
        assert parts == [
            t.Node(1, (t.Leaf(1, 2), t.Leaf(1, 3))),
            t.Node(1, (t.Leaf(1, 4), deep)),
        ]
        x = ones((2, 3, 4, 5, 6))
        assert sum(t.eval_functional(TSIRELSON, p, x) for p in parts) == t.eval_functional(
            TSIRELSON, f, x
        )

    @pytest.mark.parametrize("name, weight", [("tsirelson", 1), ("geometric-a:1/2", 2)])
    def test_make_comparable_on_a_deep_chain(self, name, weight):
        space = t.preset(name)
        depth = 1_200
        f = chain(2, depth, weight)
        last = 2 + depth
        blocks = [ones(range(2, 602)), ones(range(602, last + 1))]
        assert not t.is_comparable(f, blocks)
        g = t.make_comparable(space, f, blocks)
        assert t.validate(space, g) == []
        assert t.is_comparable(g, blocks)

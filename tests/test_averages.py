import dataclasses
import random
from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson import averages as av
from tsirelson.errors import HypothesisViolated, InsufficientPool
from tsirelson.norm import norm

from conftest import random_partition_instance

TSIRELSON = t.preset("tsirelson")
GEOM_S = t.preset("geometric-s:1/2")
ELL2 = t.preset("ellp:2")
C0_A2 = t.SpaceSpec("single", single_family=t.An(2), single_theta=Fraction(1, 2))


class TestLrAverages:
    def test_build_example(self):
        x, c_est = av.build_lr_average(TSIRELSON, av.basis_pool(3), 1, 3)
        assert x.entries == ((3, Fraction(2, 3)), (4, Fraction(2, 3)), (5, Fraction(2, 3)))
        assert c_est >= 2.0

    def test_single_block_constant_one(self):
        x, c_est = av.build_lr_average(TSIRELSON, av.basis_pool(5), 1, 1)
        assert x.entries == ((5, Fraction(1)),)
        assert c_est == 1.0

    def test_ell2_unit_vectors(self):
        # the l_2 identification is isomorphic, not isometric: indicator
        # patterns of non-dyadic size already separate the norms slightly
        x, c_est = av.build_lr_average(ELL2, av.basis_pool(1), 2, 4)
        assert 1.0 <= c_est < 1.3
        assert abs(x.entries[0][1] - 0.5) < 1e-12

    def test_pool_exhaustion(self):
        with pytest.raises(InsufficientPool):
            av.build_lr_average(TSIRELSON, iter([t.SparseVector.basis(3)]), 1, 2)

    def test_estimate_is_lower_bound_for_basis(self):
        blocks = [t.SparseVector.basis(c) for c in (16, 17, 18)]
        c_est = av.estimate_equiv_const(TSIRELSON, blocks, 1, samples=200)
        assert c_est >= 2.0 - 1e-12

    def test_bounds_hypothesis_guard(self):
        x, _ = av.build_lr_average(TSIRELSON, av.basis_pool(4), 1, 3)
        with pytest.raises(HypothesisViolated):
            av.check_lr_average_bounds(TSIRELSON, x, 2.0, 1, N=3, M=2)

    def test_bounds_on_short_average(self):
        pool = av.basis_pool(16)
        x, c_est = av.build_lr_average(TSIRELSON, pool, 1, 16)
        report = av.check_lr_average_bounds(TSIRELSON, x, c_est, 1, N=16, M=2)
        assert report.all_pass
        assert report.rows[0].values["value"] == pytest.approx(1.0)


class TestAveragingTree:
    def test_m0_single_leaf(self):
        tree = av.build_averaging_tree(GEOM_S, av.basis_pool(), 0, Fraction(1, 2))
        assert tree.leaf_count() == 1
        assert av.check_averaging_tree(GEOM_S, tree).all_pass

    def test_exact_m1(self):
        tree = av.build_averaging_tree(
            GEOM_S, av.basis_pool(), 1, Fraction(1, 2), leaf_budget=100_000
        )
        assert tree.conforming
        assert tree.leaf_count() == 193  # bound 6*2^3 * theta^-1 * eps^-1 = 192
        report = av.check_averaging_tree(GEOM_S, tree)
        assert report.all_pass
        root = tree.root
        assert sum(root.vector.values) == 1  # exact uniform average of leaves

    def test_relaxed_flagged(self):
        tree = av.build_averaging_tree(
            GEOM_S, av.basis_pool(), 2, Fraction(1, 2), relaxed_scale=2000
        )
        assert not tree.conforming
        report = av.check_averaging_tree(GEOM_S, tree)
        assert report.all_pass  # bounds hold for the scaled-down thresholds
        assert not report.params["conforming"]

    def test_float_check_compares_supports(self):
        tree = av.build_averaging_tree(GEOM_S, av.basis_pool(), 1, Fraction(1, 2))
        tree = av.tree_from_dict(av.tree_to_dict(tree), exact=False)
        float_space = dataclasses.replace(GEOM_S, arithmetic="float64")
        assert av.check_averaging_tree(float_space, tree).all_pass
        # move the last leaf one coordinate right; its value still matches
        # the root entry that belongs to the old coordinate
        root = tree.root
        last = root.children[-1]
        ((coord, value),) = last.vector.entries
        shifted = dataclasses.replace(last, vector=t.SparseVector(((coord + 1, value),)))
        tree = dataclasses.replace(
            tree, root=dataclasses.replace(root, children=root.children[:-1] + (shifted,))
        )
        rows = {r.id: r.ok for r in av.check_averaging_tree(float_space, tree).rows}
        assert rows["leaves-successive"] and rows["siblings-s1-admissible"]
        assert rows["uniform-averages"] is False

    def test_budget_guard(self):
        with pytest.raises(Exception):
            av.build_averaging_tree(
                GEOM_S, av.basis_pool(), 1, Fraction(1, 2), leaf_budget=10
            )

    def test_tav_m0_trivial(self):
        tree = av.build_averaging_tree(GEOM_S, av.basis_pool(), 0, Fraction(1, 2))
        report = av.audit_tav(GEOM_S, tree, Fraction(1, 2))
        assert report.all_pass
        assert len(report.rows) == 1


class TestScc:
    def test_build_example(self):
        scc = av.build_scc(1, Fraction(3, 10), 4)
        assert scc.support == (4, 5, 6, 7)
        assert scc.coefficients == (Fraction(1, 4),) * 4
        assert av.check_scc(scc)

    def test_uniform_pair_fails(self):
        bad = av.SCC(1, Fraction(2, 5), (2, 3), (Fraction(1, 2), Fraction(1, 2)))
        assert not av.check_scc(bad)

    def test_sum_is_exactly_one(self):
        for j, eps, start in ((1, Fraction(1, 5), 2), (2, Fraction(1, 4), 2)):
            scc = av.build_scc(j, eps, start)
            assert sum(scc.coefficients) == 1
            assert av.check_scc(scc)

    def test_level2_mass_really_below_epsilon(self):
        scc = av.build_scc(2, Fraction(1, 4), 2)
        mass = av.max_s1_mass(scc.support, scc.coefficients)
        assert mass < Fraction(1, 4)
        # cross-check the structured maximum against brute force on a
        # truncated instance
        small_support = scc.support[:12]
        small_coeffs = scc.coefficients[:12]
        brute = max(
            (
                sum(
                    c
                    for k, c in zip(small_support, small_coeffs)
                    if k in subset
                )
                for subset in _s1_subsets(small_support)
            ),
            default=0,
        )
        assert av.max_s1_mass(small_support, small_coeffs) == brute

    def test_start_advances(self):
        scc = av.build_scc(1, Fraction(1, 10), 4)
        assert scc.support[0] >= 11
        assert av.check_scc(scc)


def _s1_subsets(elems):
    import itertools

    for size in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, size):
            if len(combo) <= combo[0]:
                yield set(combo)


class TestIntervalNormTable:
    def test_saturated_closed_form_matches_engine(self, rng):
        for _ in range(8):
            count = rng.randint(3, 12)
            c = count + rng.randint(0, 4)
            entries = []
            for _ in range(count):
                entries.append((c, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
                c += rng.randint(1, 2)
            z = t.SparseVector(tuple(entries))
            coords, d = av.interval_norm_table(TSIRELSON, z)
            for a in range(count):
                for b in range(a + 1, count + 1):
                    expected = norm(TSIRELSON, z.restrict(coords[a:b])).value
                    assert d(a, b) == expected, (z.entries, a, b)


class TestEqualNormPartition:
    def test_m1_whole_support(self):
        z = t.SparseVector(tuple((70 + i, Fraction(1, 65)) for i in range(70)))
        assert av.equal_norm_partition(TSIRELSON, z, 1, Fraction(1, 2)) == [z.support]

    def test_c0_space_cannot_meet_the_hypothesis(self):
        # in the c_0-identity space norm == sup-norm, so ||z|| >= 1/2 and
        # ||z||_inf < delta/(8 m^2) are incompatible and the operation must
        # refuse rather than partition
        m, delta = 2, Fraction(1, 2)
        count = 4 * m * m * 8
        z = t.SparseVector(
            tuple((i + 1, Fraction(1, 2 * count)) for i in range(count))
        )
        assert norm(C0_A2, z).value == z.sup_norm()
        with pytest.raises(HypothesisViolated):
            av.equal_norm_partition(C0_A2, z, m, delta)
        with pytest.raises(HypothesisViolated):
            av.equal_norm_partition(C0_A2, z.scale(Fraction(count)), m, delta)

    def test_hypothesis_guards(self):
        z = t.SparseVector(((1, Fraction(1)),))
        with pytest.raises(HypothesisViolated):
            av.equal_norm_partition(TSIRELSON, z, 2, Fraction(1, 2))

    def test_random_instances(self, rng):
        for m, delta in ((2, Fraction(1, 2)), (3, Fraction(1, 2))):
            z = random_partition_instance(rng, TSIRELSON, m, delta)
            parts = av.equal_norm_partition(TSIRELSON, z, m, delta)
            assert len(parts) == m
            assert tuple(c for p in parts for c in p) == z.support
            norms = [norm(TSIRELSON, z.restrict(p)).value for p in parts]
            assert max(norms) <= (1 + delta) * min(norms)
            assert min(norms) >= (1 - delta) * max(norms)


    def test_bisected_split_matches_the_linear_scan(self, rng):
        for m, delta in ((2, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(1, 2))):
            for _ in range(3):
                z = random_partition_instance(rng, TSIRELSON, m, delta)
                _, d = av.interval_norm_table(TSIRELSON, z)
                for j in [*range(1, len(z), 9), len(z)]:
                    linear = next((e for e in range(1, j) if not d(e, j) > d(0, e)), j - 1)
                    assert av._two_part_split(d, j) == linear, (z.entries, j)


class TestC0Associate:
    def test_single_leaf_parts(self):
        x, const = av.c0_average_associate(
            TSIRELSON, [t.Leaf(1, 3), t.Leaf(1, 4), t.Leaf(1, 5)]
        )
        assert x.entries == (
            (3, Fraction(2, 3)),
            (4, Fraction(2, 3)),
            (5, Fraction(2, 3)),
        )
        assert const == 2

    def test_single_part_constant_one(self):
        x, const = av.c0_average_associate(TSIRELSON, [t.Leaf(1, 5)])
        assert const == 1

    def test_witness_parts_reach_duality_bound(self, rng):
        # parts that norm indicator vectors achieve constant >= 1
        for _ in range(15):
            starts = sorted(rng.sample(range(3, 40), 2))
            parts = []
            ok = True
            for s in starts:
                size = rng.randint(1, 3)
                x = t.SparseVector(tuple((s + 2 * i, Fraction(1)) for i in range(size)))
                parts.append(norm(TSIRELSON, x).witness)
            sups = [max(_support(p)) for p in parts]
            if any(sups[i] >= min(_support(parts[i + 1])) for i in range(len(parts) - 1)):
                continue
            _, const = av.c0_average_associate(TSIRELSON, parts)
            assert const >= 1


def _support(f):
    from tsirelson.functionals import support

    return support(f)

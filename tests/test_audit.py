import json
from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson import audit as au
from tsirelson.errors import GroundTooLarge, LengthMismatch

TSIRELSON = t.preset("tsirelson")
TZAFRIRI = t.preset("tzafriri:1/2")
SCHLUMPRECHT = t.preset("schlumprecht")


class TestFamilyInclusion:
    def test_both_sides_s1(self):
        lhs = t.Compose(t.Compose(t.Sn(1), t.An(1)), t.An(1))
        rhs = t.Compose(t.An(1), t.Sn(1))
        report = au.audit_family_inclusion(lhs, rhs, 10)
        assert report.all_pass

    def test_counterexample_found(self):
        lhs = t.Compose(t.Sn(1), t.An(2))
        report = au.audit_family_inclusion(lhs, t.Sn(1), 6)
        assert not report.all_pass
        assert report.rows[0].values["counterexamples"] > 0
        # a concrete witness of the strict inclusion
        assert t.is_member(lhs, (2, 3, 4, 5)) and not t.is_member(t.Sn(1), (2, 3, 4, 5))

    def test_ground_cap(self):
        with pytest.raises(GroundTooLarge):
            au.audit_family_inclusion(t.An(1), t.An(2), 15)


class TestSch1Grid:
    def test_grid_clean_and_control_dirty(self):
        report = au.audit_sch1_grid(ground=10)
        assert report.all_pass
        control = [r for r in report.rows if r.ok is None]
        assert control and control[0].values["counterexamples"] > 0


class TestL3:
    def test_m1_degenerate(self):
        report = au.audit_l3(1, 30, 3)
        assert report.all_pass
        assert report.checked > 0

    def test_m2_randomized(self):
        report = au.audit_l3(2, 60, 7)
        assert report.all_pass
        controls = [r for r in report.rows if r.ok is None]
        assert controls  # negative controls recorded but never counted

    def test_level_cap(self):
        with pytest.raises(ValueError):
            au.audit_l3(4, 10, 0)


class TestDomination:
    def test_identical_sequences(self):
        ys = [t.SparseVector.basis(2 * i) for i in range(1, 5)]
        assert au.estimate_domination(TSIRELSON, ys, ys, 30, 5) == 1.0

    def test_shifted_basis_within_classical_bound(self):
        ys = [t.SparseVector.basis(2 * i) for i in range(1, 5)]
        zs = [t.SparseVector.basis(2 * i + 1) for i in range(1, 5)]
        est = au.estimate_domination(TSIRELSON, ys, zs, 60, 5)
        assert est <= 96.0  # 24 * theta^-2 with theta = 1/2

    def test_length_mismatch(self):
        ys = [t.SparseVector.basis(2)]
        with pytest.raises(LengthMismatch):
            au.estimate_domination(TSIRELSON, ys, [], 5, 0)

    def test_monotone_in_samples(self):
        ys = [t.SparseVector.basis(3 * i) for i in range(1, 4)]
        zs = [
            t.SparseVector(((3 * i + 1, Fraction(1)), (3 * i + 2, Fraction(1, 2))))
            for i in range(1, 4)
        ]
        small = au.estimate_domination(TSIRELSON, ys, zs, 10, 9)
        large = au.estimate_domination(TSIRELSON, ys, zs, 60, 9)
        assert large >= small


class TestTeqRegression:
    def test_interleaved_block_estimate_recorded(self):
        # blocks per the gap hypotheses (2 maxsupp y_n < z_n,
        # 3 maxsupp z_n < y_{n+1}); the estimate is archived as a
        # reproducible regression value, not compared against a bound
        ys, zs = [], []
        start = 4
        for _ in range(3):
            y = t.SparseVector(
                tuple((start + i, Fraction(1, 2)) for i in range(2))
            )
            ys.append(y)
            z_start = 2 * y.support[-1] + 1
            z = t.SparseVector(
                tuple((z_start + i, Fraction(1, 2)) for i in range(2))
            )
            zs.append(z)
            start = 3 * z.support[-1] + 1
        est = au.estimate_domination(TSIRELSON, ys, zs, 40, 17)
        assert 0 < est < 100
        again = au.estimate_domination(TSIRELSON, ys, zs, 40, 17)
        assert est == again  # reproducible regression value


class TestPest:
    @pytest.mark.parametrize("spec", [TZAFRIRI, SCHLUMPRECHT], ids=lambda s: s.name)
    def test_no_violations(self, spec):
        report = au.audit_pest(spec, 80, 11)
        assert report.all_pass
        assert report.checked >= 60

    def test_needs_p_space(self):
        with pytest.raises(ValueError):
            au.audit_pest(TSIRELSON, 5, 0)


class TestKriv:
    def test_exact_n1_on_both_presets(self):
        for spec in (SCHLUMPRECHT, TZAFRIRI):
            report = au.audit_kriv(spec, 1, 1, seed=0)
            assert report.all_pass
            assert report.params["scale"] == 1

    def test_relaxed_rows_are_flagged(self):
        report = au.audit_kriv(TZAFRIRI, 2, 1, seed=0)
        assert report.all_pass
        assert report.params["scale"] > 1
        condition_rows = [r for r in report.rows if r.id.endswith("conditions")]
        assert all(r.ok is None for r in condition_rows)

    def test_budget_error_without_relaxation(self):
        from tsirelson.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            au.audit_kriv(SCHLUMPRECHT, 3, 1, seed=0, relax="exact")

    def test_oversized_flat_table_refused_before_any_work(self, monkeypatch):
        # N = 1, r = 2 plans one block of length 260,101, inside the leaf
        # budget; its table would hold about 3.4e10 floats
        import importlib

        from tsirelson.errors import BudgetExceeded

        norm_mod = importlib.import_module("tsirelson.norm")

        def no_table(space, max_len):
            raise AssertionError(f"flat_norm_table({max_len}) was started")

        monkeypatch.setattr(norm_mod, "flat_norm_table", no_table)
        with pytest.raises(BudgetExceeded, match="260101"):
            au.audit_kriv(SCHLUMPRECHT, 1, 2)
        assert au.FLAT_TABLE_MAX_LEN >= 511  # criterion 10 and the N = 1 tests reach 511


class TestReports:
    def test_deterministic_json(self):
        a = au.audit_l3(2, 25, 13).to_json()
        b = au.audit_l3(2, 25, 13).to_json()
        assert a == b

    def test_roundtrip_parses(self):
        report = au.audit_sch1_grid(ground=8)
        data = json.loads(report.to_json())
        assert data["suite"] == "sch1-grid"
        assert data["failed"] == 0
        assert len(data["rows"]) == len(report.rows)

    def test_table_renders(self):
        table = au.audit_l3(1, 5, 2).table()
        assert "suite: l3" in table

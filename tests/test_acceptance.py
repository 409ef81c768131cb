"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 3 is implemented exactly as stated; see the assertion message for
why the stated tolerance cannot hold on generic random vectors (the single
A_2 family space carries the dyadic-tree norm, which is isomorphic but not
isometric to l_2).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import tsirelson as t
from tsirelson import audit as au
from tsirelson import averages as av
from tsirelson.functionals import comparability_constant
from tsirelson.generators import random_blocks, random_valid_functional, random_vector
from tsirelson.norm import brute_norm, norm
from tsirelson.vectors import sum_vectors

from conftest import child_env, random_aux_functional, random_partition_instance

TSIRELSON = t.preset("tsirelson")
GEOM_S = t.preset("geometric-s:1/2")
SCHLUMPRECHT = t.preset("schlumprecht")
TZAFRIRI = t.preset("tzafriri:1/2")
C0_A2 = t.SpaceSpec("single", single_family=t.An(2), single_theta=Fraction(1, 2))
ELL2 = t.preset("ellp:2")


def report(criterion, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {criterion}: {detail}")
    return ok


def test_criterion_01_oracle_equivalence():
    """norm() equals brute_norm() on >= 200 random small vectors."""
    start = time.time()
    presets = [TSIRELSON, GEOM_S, SCHLUMPRECHT, C0_A2]
    rng = random.Random(1001)
    total = 0
    for trial in range(208):
        spec = presets[trial % 4]
        x = random_vector(rng, rng.randint(1, 6), exact=spec.exact)
        got = norm(spec, x).value
        oracle = brute_norm(spec, x, len(x))
        if spec.exact:
            assert got == oracle, (spec.name, x.entries)
        else:
            assert abs(float(got) - float(oracle)) <= 1e-12 * max(
                abs(float(oracle)), 1.0
            ), (spec.name, x.entries)
        total += 1
    elapsed = time.time() - start
    assert elapsed < 300
    assert report(1, True, f"{total} vectors across 4 presets in {elapsed:.1f}s")


def test_criterion_02_c0_identity():
    """T[A_n, theta] with theta <= 1/n has norm == sup-norm exactly."""
    rng = random.Random(1002)
    spaces = [
        C0_A2,
        t.SpaceSpec("single", single_family=t.An(3), single_theta=Fraction(1, 3)),
        t.SpaceSpec("single", single_family=t.An(4), single_theta=Fraction(1, 5)),
    ]
    for trial in range(100):
        spec = spaces[trial % 3]
        x = random_vector(rng, rng.randint(1, 8))
        assert norm(spec, x).value == x.sup_norm()
    assert report(2, True, "100 random rational vectors, exact equality")


def test_criterion_03_ellp_identity():
    """|norm - l2| <= 1e-9 l2 in T[A_2, 2^(-1/2)] on random vectors.

    Stated tolerance is unattainable: the norming set only carries dyadic
    weight profiles, e.g. norm(e1+e2+e3) = (1+sqrt 2)/sqrt 2 ~ 1.7071 while
    the l2 norm is sqrt 3 ~ 1.7321 (the classical l_p identification is an
    isomorphism).  The Remark-level upper bound norm <= l2 does hold and is
    asserted in the main suite.
    """
    rng = random.Random(1003)
    worst = 0.0
    failures = 0
    for _ in range(100):
        x = random_vector(rng, rng.randint(1, 20), exact=False)
        got = float(norm(ELL2, x).value)
        l2 = x.ellp(2)
        assert got <= l2 * (1 + 1e-12)  # rem-pnorm upper bound: always true
        gap = abs(got - l2) / l2
        worst = max(worst, gap)
        if gap > 1e-9:
            failures += 1
    ok = failures == 0
    report(
        3,
        ok,
        f"{failures}/100 vectors exceed the 1e-9 identity tolerance "
        f"(worst relative gap {worst:.3g}); the identification is not isometric",
    )
    assert ok, (
        "the l_p identity at 1e-9 cannot hold on generic vectors: "
        f"{failures} failures, worst relative gap {worst:.3g}; "
        "see the decisions ledger for the analysis"
    )


def test_criterion_04_family_laws():
    """Hereditary + spreading exhaustively on ground 12; sch1 grid clean with
    a dirty negative control."""
    ground = 12
    fams = [t.An(n) for n in range(1, 6)] + [t.Sn(n) for n in range(0, 4)]
    from tsirelson.families import family_members

    for fam in fams:
        for member in family_members(fam, ground):
            for i in range(len(member)):
                assert t.is_member(fam, member[:i] + member[i + 1 :]), (fam, member)
            taken = set(member)
            for e in member:
                if e + 1 <= ground and e + 1 not in taken:
                    bumped = tuple(sorted(taken - {e} | {e + 1}))
                    assert t.is_member(fam, bumped), (fam, member, e)
    grid = au.audit_sch1_grid(ground=ground)
    assert grid.all_pass
    control = [r for r in grid.rows if r.ok is None][0]
    assert control.values["counterexamples"] > 0
    assert report(
        4, True, "laws exhaustive on {1..12}; sch1 grid clean, control dirty"
    )


def test_criterion_05_lr_average_bounds():
    """Both level-j admissible-sum inequalities for 16-long l1-averages."""
    for spec, start in ((TSIRELSON, 16), (SCHLUMPRECHT, 16)):
        x, c_est = av.build_lr_average(spec, av.basis_pool(start), 1, 16)
        rep = av.check_lr_average_bounds(spec, x, c_est, 1, N=16, M=2)
        assert rep.all_pass, (spec.name, [(r.id, r.values) for r in rep.rows])
    assert report(5, True, "N=16, M=2 on T[S_1,1/2] and Schlumprecht, measured C")


def test_criterion_06_pest():
    """500 random in-hypothesis instances, zero violations."""
    rep = au.audit_pest(TZAFRIRI, 500, 1006)
    assert rep.all_pass
    assert rep.checked >= 400
    assert report(6, True, f"{rep.checked} in-hypothesis instances, 0 violations")


def test_criterion_07_tav():
    """Exact M=1 averaging tree passes every audit row; relaxed M=2 archived."""
    tree = av.build_averaging_tree(GEOM_S, av.basis_pool(), 1, Fraction(1, 2))
    assert tree.conforming
    check = av.check_averaging_tree(GEOM_S, tree)
    assert check.all_pass
    tav = av.audit_tav(GEOM_S, tree, Fraction(1, 2))
    assert tav.all_pass, [(r.id, r.values) for r in tav.rows]
    # M = 2 regression run, relaxed mode, archived values only
    relaxed = av.build_averaging_tree(
        GEOM_S, av.basis_pool(), 2, Fraction(1, 2), relaxed_scale=2000
    )
    assert not relaxed.conforming
    relaxed_tav = av.audit_tav(GEOM_S, relaxed, Fraction(1, 2))
    archived = [
        (r.id, round(r.values["value"], 4)) for r in relaxed_tav.rows if r.id.startswith("j=")
    ]
    assert report(
        7,
        True,
        f"exact M=1 tree ({tree.leaf_count()} leaves) passes; "
        f"relaxed M=2 rows archived: {archived}",
    )


def _check_split(aux, f, x):
    """split_xk's contract: at most k+1 successive parts, each valid in the
    plain space, summing to f."""
    parts = t.split_xk(aux, f)
    assert 1 <= len(parts) <= aux.inner_ak + 1
    assert sum(t.eval_functional(GEOM_S, p, x) for p in parts) == t.eval_functional(
        GEOM_S, f, x
    )
    for p in parts:
        assert t.validate(GEOM_S, p) == []
    sups = [t.functionals.support(p) for p in parts]
    for a, b in zip(sups, sups[1:]):
        assert a[-1] < b[0]
    return parts


def test_criterion_08_surgery():
    """split sum identity on 100 vectors, and on 100 functionals that only
    the auxiliary space admits; comparability constants on 500 random
    instances per ladder type."""
    rng = random.Random(1008)
    aux = GEOM_S.with_inner_ak(3)
    for _ in range(100):
        size = rng.randint(2, 9)
        c = rng.randint(1, 4)
        coords = []
        for _ in range(size):
            coords.append(c)
            c += rng.randint(1, 3)
        f = random_valid_functional(aux, rng, tuple(coords))
        _check_split(aux, f, random_vector(rng, rng.randint(1, 6)))
    # random_valid_functional keeps every node valid in the plain space, where
    # split_xk is the identity; these inputs need regrouping
    rng = random.Random(1082)
    split, drawn = 0, 0
    while drawn < 100:
        size = rng.randint(2, 12)
        c = rng.randint(1, 3)
        coords = []
        for _ in range(size):
            coords.append(c)
            c += rng.randint(1, 3)
        f = random_aux_functional(rng, tuple(coords))
        assert t.validate(aux, f) == []
        if not t.validate(GEOM_S, f):
            continue
        drawn += 1
        parts = _check_split(aux, f, random_vector(rng, rng.randint(1, 8)))
        split += len(parts) >= 2
    assert split >= 90, f"only {split} of 100 plain-invalid functionals split"
    for spec, seed in ((SCHLUMPRECHT, 1080), (TSIRELSON, 1081)):
        rng = random.Random(seed)
        const = comparability_constant(spec)
        for _ in range(500):
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
    assert report(
        8,
        True,
        f"split identity x100, {split}/100 plain-invalid inputs split;"
        " 6x (A-type) and 4x (S-type) on 500 each",
    )


def test_criterion_09_partition():
    """200 in-hypothesis vectors, partition ratios within [1-d, 1+d]."""
    rng = random.Random(1009)
    ran = 0
    for delta in (Fraction(1, 2), Fraction(1, 4)):
        for trial in range(100):
            m = 3 if (delta == Fraction(1, 2) and trial % 5 == 0) else 2
            z = random_partition_instance(rng, TSIRELSON, m, delta)
            parts = av.equal_norm_partition(TSIRELSON, z, m, delta)
            # the operation certifies the ratio bound exactly before
            # returning; re-verify against the full norm engine on a sample
            if trial % 5 == 0:
                norms = [norm(TSIRELSON, z.restrict(p)).value for p in parts]
            else:
                norms = [
                    av.interval_norm_table(TSIRELSON, z.restrict(p))[1](0, len(p))
                    for p in parts
                ]
            assert max(norms) <= (1 + delta) * min(norms), (delta, m)
            assert min(norms) >= (1 - delta) * max(norms), (delta, m)
            ran += 1
    assert report(9, True, f"{ran} vectors at deltas 1/2 and 1/4")


def test_criterion_10_kriv():
    """99 N^(1/p) bound for N in {1,2,3} on both presets; Tzafriri per-J
    table also meets the 6/c bound."""
    details = []
    for spec in (SCHLUMPRECHT, TZAFRIRI):
        for N in (1, 2, 3):
            rep = au.audit_kriv(spec, N, 1, seed=1010)
            assert rep.all_pass, (spec.name, N)
            details.append(f"{spec.name} N={N} scale={rep.params['scale']}")
            if spec is TZAFRIRI:
                for row in rep.rows:
                    if "tz_bound" in row.values:
                        assert row.values["norm"] <= row.values["tz_bound"] * (1 + 1e-9)
    assert report(10, True, "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    """Byte-identical JSON for repeated seeded commands, including
    concurrent execution."""
    vec = tmp_path / "x.vec"
    vec.write_text("3\t1\n4\t1\n5\t1\n")
    commands = [
        ["audit", "l3", "--trials", "25", "--seed", "9"],
        ["audit", "pest", "--trials", "15", "--seed", "3"],
        ["norm", "--space", "tsirelson", "--vector", str(vec)],
        ["audit", "sch1", "--ground", "10"],
    ]
    procs = []
    for round_idx in ("a", "b"):
        for i, cmd in enumerate(commands):
            out = tmp_path / f"{round_idx}{i}.json"
            procs.append(
                (
                    out,
                    subprocess.Popen(
                        [sys.executable, "-m", "tsirelson.cli", "--json", str(out)]
                        + cmd,
                        stdout=subprocess.DEVNULL,
                        env=child_env(),
                    ),
                )
            )
    for _, proc in procs:
        assert proc.wait() == 0
    for i in range(len(commands)):
        first = (tmp_path / f"a{i}.json").read_bytes()
        second = (tmp_path / f"b{i}.json").read_bytes()
        assert first == second, commands[i]
    assert report(11, True, "4 commands, repeated + concurrent, byte-identical")

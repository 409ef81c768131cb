import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tsirelson as t
from tsirelson.norm import norm


def child_env():
    """The environment of a child interpreter that imports the package
    under test, also from a checkout where it is not installed."""
    return dict(os.environ, PYTHONPATH=str(Path(t.__file__).resolve().parents[1]))


def exhaustive_member(family, elems):
    """Pure exhaustive decomposition search; the membership oracle."""
    elems = tuple(elems)
    if not elems:
        return True
    if isinstance(family, t.An):
        return len(elems) <= family.n
    if isinstance(family, t.Sn):
        if family.n == 0:
            return len(elems) <= 1
        if family.n == 1:
            return len(elems) <= elems[0]
        return _exists_split(
            elems,
            lambda piece: exhaustive_member(t.Sn(family.n - 1), piece),
            lambda k: k <= elems[0],
        )
    return _exists_split(
        elems,
        lambda piece: exhaustive_member(family.inner, piece),
        None,
        outer=family.outer,
    )


def _exists_split(elems, piece_ok, count_ok, outer=None):
    n = len(elems)
    for mask in range(1 << (n - 1)):
        pieces = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                pieces.append(elems[start : i + 1])
                start = i + 1
        pieces.append(elems[start:])
        if not all(piece_ok(p) for p in pieces):
            continue
        if count_ok is not None and not count_ok(len(pieces)):
            continue
        if outer is not None and not exhaustive_member(
            outer, tuple(p[0] for p in pieces)
        ):
            continue
        return True
    return False


def random_partition_instance(rng, space, m, delta):
    """A random vector meeting the equal-norm-partition hypothesis, built by
    normalizing a long near-flat vector exactly."""
    count = int(24 * m * m / float(delta)) + rng.randint(0, 8)
    c = count + rng.randint(0, 10)
    entries = []
    for _ in range(count):
        entries.append((c, Fraction(rng.randint(2, 3))))
        c += rng.randint(1, 2)
    z = t.SparseVector(tuple(entries))
    from tsirelson.averages import interval_norm_table

    coords, d = interval_norm_table(space, z)
    return z.scale(Fraction(1) / d(0, len(coords)))


def random_aux_functional(rng, coords):
    """A functional valid in an inner-A_3 auxiliary S-space and often
    invalid in the plain one, so that ``split_xk`` has regrouping to do.

    A node takes up to 3 * (its first coordinate) children: cut into runs
    of at most three, the run minima number at most the first coordinate,
    so the children minima form an S_1[A_3] (hence S_n[A_3]) set.
    """
    if len(coords) == 1:
        return t.Leaf(rng.choice((1, -1)), coords[0])
    if len(coords) <= 3 and rng.random() < 0.3:
        return t.Node(1, tuple(t.Leaf(rng.choice((1, -1)), c) for c in coords))
    k = rng.randint(2, min(len(coords), 3 * coords[0]))
    cuts = sorted(rng.sample(range(1, len(coords)), k - 1))
    pieces = [coords[a:b] for a, b in zip([0] + cuts, cuts + [len(coords)])]
    return t.Node(rng.randint(1, 2), tuple(random_aux_functional(rng, p) for p in pieces))


@pytest.fixture
def rng():
    return random.Random(20240817)

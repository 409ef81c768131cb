"""Seeded random instances: vectors, block sequences, valid functionals.

Audits and property suites share these so that every randomized run is
reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from . import families
from .spaces import A_TYPE, S_TYPE, SpaceSpec
from .trees import Leaf, Node, TreeFunctional
from .vectors import SparseVector


def random_rational(rng: random.Random, max_num: int = 8, max_den: int = 6) -> Fraction:
    value = Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
    return value if rng.random() < 0.8 else -value


def random_vector(
    rng: random.Random,
    support_size: int,
    first: int = 1,
    gap: int = 3,
    exact: bool = True,
    nonnegative: bool = False,
) -> SparseVector:
    coords = []
    c = rng.randint(first, first + gap)
    for _ in range(support_size):
        coords.append(c)
        c += rng.randint(1, gap)
    entries = []
    for coord in coords:
        v = random_rational(rng)
        if nonnegative:
            v = abs(v)
        entries.append((coord, v if exact else float(v)))
    return SparseVector(tuple(entries))


def random_blocks(
    rng: random.Random,
    count: int,
    block_size_max: int = 4,
    first: int = 1,
    exact: bool = True,
) -> List[SparseVector]:
    blocks = []
    c = first
    for _ in range(count):
        size = rng.randint(1, block_size_max)
        entries = []
        for _ in range(size):
            v = random_rational(rng)
            entries.append((c, v if exact else float(v)))
            c += rng.randint(1, 2)
        blocks.append(SparseVector(tuple(entries)))
        c += rng.randint(1, 3)
    return blocks


def _admissible_split_count(space: SpaceSpec, coords: Tuple[int, ...], rng) -> Tuple[int, int]:
    """Pick (weight index, piece count) admissible for a split of coords."""
    m = len(coords)
    if space.kind == A_TYPE:
        n = rng.randint(2, 4)
        return n, rng.randint(2, min(n, m))
    if space.kind == S_TYPE:
        cap = min(coords[0], m)
        if cap < 2:
            return 0, 0
        return rng.randint(1, 3), rng.randint(2, cap)
    # single family: any pieces up to the budget of its outermost level
    levels = families.chain(space.family_for_index(1))
    cap = min(families.budget(levels[0], coords[0]), m) if levels else 1
    if cap < 2:
        return 0, 0
    return 1, rng.randint(2, cap)


def random_valid_functional(
    space: SpaceSpec,
    rng: random.Random,
    coords: Tuple[int, ...],
    leaf_prob: float = 0.2,
    signs: bool = True,
) -> TreeFunctional:
    """A random member of the space's norming set with support = coords.

    Splits always put the k pieces' minima in an S_1 (hence every S_n) or
    A_n set, the outermost level of a single family, so no rejection
    sampling is needed.
    """
    if len(coords) == 1 or rng.random() < leaf_prob:
        if len(coords) == 1:
            sign = rng.choice((1, -1)) if signs else 1
            return Leaf(sign, coords[0])
    n, k = _admissible_split_count(space, coords, rng)
    if k < 2:
        sign = rng.choice((1, -1)) if signs else 1
        return Leaf(sign, coords[0])
    boundaries = sorted(rng.sample(range(1, len(coords)), k - 1))
    pieces = []
    prev = 0
    for b in boundaries + [len(coords)]:
        pieces.append(coords[prev:b])
        prev = b
    children = tuple(
        random_valid_functional(space, rng, piece, leaf_prob, signs)
        for piece in pieces
    )
    return Node(n, children)


def random_family_member(
    rng: random.Random, family, start: int, max_size: Optional[int] = None
) -> Tuple[int, ...]:
    """A random member containing `start`: a subset of the maximal
    consecutive member, spread randomly to the right."""
    run = families.maximal_member(family, start)
    size = len(run)
    if max_size is not None:
        size = min(size, max_size)
    keep = sorted(rng.sample(range(len(run)), rng.randint(1, size)))
    if 0 not in keep:
        keep = [0] + keep[: size - 1] if size > 1 else [0]
    elems = [run[i] for i in sorted(set(keep))]
    # random spreading: push elements right while keeping the order
    spread = []
    shift = 0
    for e in elems:
        shift += rng.randint(0, 1)
        spread.append(e + shift)
    out = tuple(spread)
    return out if families.is_member(family, out) else tuple(elems)

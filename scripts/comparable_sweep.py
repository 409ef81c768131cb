"""Seeded sweep of ``make_comparable`` against its certificate.

    PYTHONPATH=src python scripts/comparable_sweep.py --cases 2300

For each space and seed, draws ``--cases`` instances (2-6 random blocks of up
to 5 points, a random valid functional on their support with leaf
probability 0.1) and checks that the output validates, is comparable with
the blocks and satisfies c * f'(v) >= |f(v)|, with v the sum of the blocks
and c the space's comparability constant.  Prints one line per miss or
``SurgeryFailed`` and then the counts; exits 1 when anything missed.
"""

import argparse
import collections
import random
import sys

import tsirelson as t
from tsirelson.errors import SurgeryFailed
from tsirelson.functionals import comparability_constant
from tsirelson.generators import random_blocks, random_valid_functional
from tsirelson.vectors import sum_vectors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--cases", type=int, default=2300, help="instances per space and seed")
    p.add_argument("--spaces", nargs="+", default=["tsirelson", "geometric-s:1/2", "geometric-a:1/2"])
    p.add_argument("--seeds", nargs="+", type=int, default=[7, 8, 9])
    args = p.parse_args(argv)
    counts = collections.Counter()
    for name in args.spaces:
        space = t.preset(name)
        const = comparability_constant(space)
        for seed in args.seeds:
            rng = random.Random(seed)
            for case in range(args.cases):
                blocks = random_blocks(
                    rng, rng.randint(2, 6), block_size_max=5, first=rng.randint(2, 9),
                    exact=space.exact,
                )
                coords = tuple(c for b in blocks for c in b.support)
                f = random_valid_functional(space, rng, coords, leaf_prob=0.1)
                v = sum_vectors(blocks)
                value = t.eval_functional(space, f, v)
                counts["f(v) < 0" if value < 0 else "f(v) >= 0"] += 1
                try:
                    g = t.make_comparable(space, f, blocks)
                except SurgeryFailed as exc:
                    counts["SurgeryFailed"] += 1
                    print(f"SurgeryFailed {name} seed {seed} case {case}: {exc}")
                    continue
                if (
                    t.validate(space, g)
                    or not t.is_comparable(g, blocks)
                    or not const * t.eval_functional(space, g, v) >= abs(value)
                ):
                    counts["missed"] += 1
                    print(f"missed {name} seed {seed} case {case}: {t.format_functional(f)}")
    for key in ("f(v) >= 0", "f(v) < 0", "SurgeryFailed", "missed"):
        print(f"{key}: {counts[key]}")
    return 1 if counts["SurgeryFailed"] or counts["missed"] else 0


if __name__ == "__main__":
    sys.exit(main())

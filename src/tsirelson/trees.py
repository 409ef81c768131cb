"""The tree core of norming functionals: leaves, nodes, the fold, and the
s-expression writer.

A functional is a tree whose leaves are signed unit functionals and whose
internal nodes carry a weight index n.  This module holds what the norm
engine, the generators and the audits need to build and walk such trees;
``functionals`` re-exports every name here and adds evaluation, validation,
the parser and the surgery, which those callers never run.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple, Union

from .records import Record


class Leaf(Record):
    sign: int
    coordinate: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("leaf sign must be +1 or -1")
        if self.coordinate < 1:
            raise ValueError("leaf coordinate must be a positive integer")


class Node(Record):
    weight_index: int
    children: Tuple["TreeFunctional", ...]

    def __post_init__(self):
        if self.weight_index < 1:
            raise ValueError("weight index must be >= 1")
        if not self.children:
            raise ValueError("nodes need at least one child")


TreeFunctional = Union[Leaf, Node]


def _children(g):
    return None if isinstance(g, Leaf) else g.children


def fold(f, leaf: Callable, node: Callable, children: Callable = _children):
    """Post-order fold over a tree without recursion: ``leaf(l)`` at each
    leaf, ``node(n, results)`` at each node with its children's results in
    order; returns the root's result.  ``children(g)`` gives the children of
    g, None at a leaf: by default those of a ``TreeFunctional``, otherwise
    of a tree that is built as it is walked."""
    kids = children(f)
    if kids is None:
        return leaf(f)
    stack = [(f, iter(kids), [])]
    while True:
        g, pending, results = stack[-1]
        for child in pending:
            kids = children(child)
            if kids is None:
                results.append(leaf(child))
            else:
                stack.append((child, iter(kids), []))
                break
        else:
            stack.pop()
            value = node(g, results)
            if not stack:
                return value
            stack[-1][2].append(value)


def leaves(f: TreeFunctional) -> Iterator[Leaf]:
    """The leaves of f, left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Leaf):
            yield g
        else:
            stack.extend(reversed(g.children))


def support(f: TreeFunctional) -> Tuple[int, ...]:
    return tuple(leaf.coordinate for leaf in leaves(f))


def format_functional(f: TreeFunctional) -> str:
    return fold(
        f,
        lambda g: f"(l {'+' if g.sign > 0 else '-'} {g.coordinate})",
        lambda g, inner: f"(n {g.weight_index} {' '.join(inner)})",
    )

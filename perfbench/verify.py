"""Independent permutation arithmetic for checking verdicts.

Nothing here imports genex: permutations are 0-based image tuples, products
compose left to right (``mul(p, q)`` applies p, then q), and group closures
are plain breadth-first saturation.  The benchmark client uses these helpers
to relabel fixtures, to draw seeded elements, and to check every witness a
query returns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def mul(p, q):
    return tuple(q[i] for i in p)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conj(x, s):
    """s^-1 x s: the image of x under the point relabelling s."""
    return mul(mul(inv(s), x), s)


def is_even(p):
    seen = [False] * len(p)
    transpositions = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            transpositions += 1
        transpositions -= 1
    return transpositions % 2 == 0


def closure(gens, degree):
    """All products of the generators, as a frozenset of image tuples."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def parse_cycles(text, degree):
    """A product of disjoint cycles such as "(1,2,3)(4,5)" on 1-based points."""
    imgs = list(range(degree))
    for chunk in text.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"malformed cycle text {text!r}")
        points = [int(t) - 1 for t in chunk[1:-1].replace(",", " ").split()]
        for a, b in zip(points, points[1:] + points[:1]):
            imgs[a] = b
    if sorted(imgs) != list(range(degree)):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(imgs)


def read_grp(path: Path):
    """(degree, generators) of a ".grp" file, parsed without genex."""
    degree = None
    gens = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("degree:"):
            degree = int(line[len("degree:"):])
        elif line.startswith("gen:"):
            gens.append(parse_cycles(line[len("gen:"):], degree))
    if degree is None:
        raise ValueError(f"{path}: missing degree line")
    return degree, gens


def witness_hash(verdict) -> str:
    return hashlib.sha256(json.dumps(verdict, sort_keys=True).encode()).hexdigest()[:16]

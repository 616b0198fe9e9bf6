"""The four workloads: query templates and seeded query instances.

A pass runs every template of a workload once, in the order listed.  Each
query instance gets its own point relabelling, and for the main group two
random words in the relabelled generators are added to its generating set,
all drawn from ``random.Random(f"{seed}:{instance}")``.  Every answer checked
(orders, d, D_M, class counts, densities, membership) is invariant under the
relabelling, so one frozen answer covers every seed.

Relabellings are drawn from the normaliser of the main group in the
symmetric group on its points, so the group's element set, and with it the
canonical order the searches walk, stays the same.  An arbitrary relabelling
of A5 wr C2 moves the first generating tuple in that order and changes one
query's cost by a factor of two, which a 20-second run holds too few
queries to average out.  Each instance is still a new group given by new
generators, with its chains built from scratch.

A5 wr C2 queries are relabelled by a normaliser element followed by the
fixed ``BASE_LABELLING``.  Of twelve random labellings, half made
``min_generators`` visit 8096 nodes, as this one does; the natural block
labelling of the fixture visits 10838 and takes about twice as long.
"""

from __future__ import annotations

import random
from pathlib import Path

from verify import conj, is_even, mul, parse_cycles, read_grp

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Each template: (kind, main fixture, other fixtures, extra).  Wall seconds
# per pass on the seed code (2-core Xeon VM, CPython 3.11) size the run: a
# run of --seconds makes round(seconds / pass_s) passes, so every commit
# does the same work and the tail percentile stays fixed.
WORKLOADS = {
    "gen-search": {
        "pass_s": 6.0,
        "templates": [
            ("d", "S5", (), None), ("d", "A5", (), None), ("d", "S6", (), None),
            ("d", "A6", (), None), ("d", "S7", (), None), ("d", "A5wrC2", (), None),
            ("dm", "S5", ("S4_in_S5",), None), ("dm", "A5", ("A4_in_A5",), None),
            ("dm", "S6", ("S5_in_S6",), None), ("dm", "A6", ("A5_in_A6",), None),
            ("dm", "S7", ("S6_in_S7",), None), ("dm", "A5wrC2", ("A5wrC2_diag",), None),
        ],
    },
    "lattice": {
        "pass_s": 3.8,
        "templates": [("lattice", g, (), None) for g in ("S4", "A5", "S5", "A6", "S6")],
    },
    "density": {
        "pass_s": 3.7,
        "templates": [("density", "S5", ("A5",), None)] * 3 + [
            # (N, Htilde, g1, g2) as in tests/test_gensets.py
            ("replacement", "S5", ("A5", "S4_fix1_in_S5"), ("(2,3,4,5)", "(2,3)")),
            ("replacement", "A5wrC2", ("A5xA5", "A4wrC2"),
             ("(1,2,3)(6,7,8)", "(1,6)(2,7)(3,8)(4,9)(5,10)")),
        ],
    },
    "chain": {
        "pass_s": 5.0,
        "templates": [("chain", g, (), None) for g in (
            "S12", "A12", "S20", "A20", "S28", "A28", "A5wrC3", "S4wrS4")],
    },
}

MEMBERSHIP_TESTS = 2000  # elements per chain query, half members
EXTRA_WORDS = 2
BLOCK_SIZE = {"A5wrC2": 5, "A5wrC3": 5, "S4wrS4": 4}  # imprimitive on blocks of this size
FIXES_LAST = {"S12", "S20", "S28"}  # S_n on n of n + 1 points
BASE_LABELLING = {"A5wrC2": (8, 9, 0, 7, 3, 2, 6, 5, 4, 1)}


def load_fixture(name):
    return read_grp(FIXTURES / f"{name}.grp")


def _random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _with_parity(p, even):
    if is_even(p) != even:
        p = (p[1], p[0]) + p[2:]
    return p


def _wreath_element(rng, inner, blocks, m, top):
    """Flat permutation with block coordinates from ``inner`` and block map ``top``."""
    coords = [inner(rng) for _ in range(blocks)]
    return tuple(top[b] * m + coords[b][d] for b in range(blocks) for d in range(m))


def _preserves_blocks(p, m):
    return all(len({p[b * m + d] // m for d in range(m)}) == 1 for b in range(len(p) // m))


def _chain_element(rng, name, degree, member):
    """A seeded element of the unrelabelled fixture group, or a non-member."""
    if name.startswith("S") and "wr" not in name:
        n = degree - 1  # S_n fixes the last point
        if member:
            return _random_perm(rng, n) + (n,)
        while True:
            p = _random_perm(rng, degree)
            if p[n] != n:
                return p
    if name.startswith("A") and "wr" not in name:
        return _with_parity(_random_perm(rng, degree), member)
    if name == "A5wrC3":
        top = rng.choice([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        p = _wreath_element(rng, lambda r: _with_parity(_random_perm(r, 5), True), 3, 5, top)
        if not member:  # one odd block coordinate: block-preserving, still outside
            b = rng.randrange(3)
            p = list(p)
            p[5 * b], p[5 * b + 1] = p[5 * b + 1], p[5 * b]
            p = tuple(p)
        return p
    if name == "S4wrS4":
        if member:
            return _wreath_element(rng, lambda r: _random_perm(r, 4), 4, 4,
                                   _random_perm(rng, 4))
        while True:
            p = _random_perm(rng, degree)
            if not _preserves_blocks(p, 4):
                return p
    raise ValueError(f"no membership model for {name}")


def _normaliser_element(rng, name, degree):
    """A random permutation of the points that normalises fixture ``name``."""
    if name in BLOCK_SIZE:
        # any block permutation; for A5 wr C_k the block coordinates must share
        # one parity, so that conjugation keeps the top group's coordinates even
        m = BLOCK_SIZE[name]
        even = rng.random() < 0.5

        def inner(r):
            p = _random_perm(r, m)
            return _with_parity(p, even) if name.startswith("A5") else p
        return _wreath_element(rng, inner, degree // m, m, _random_perm(rng, degree // m))
    if name in FIXES_LAST:
        return _random_perm(rng, degree - 1) + (degree - 1,)
    return _random_perm(rng, degree)  # S_n and A_n on all their points


def relabelled(gens, sigma):
    return [conj(g, sigma) for g in gens]


def make_instance(workload: str, seed: int, index: int):
    """Query instance ``index`` of a run: the message sent to a worker plus
    the relabelled data the client needs to check the verdict."""
    templates = WORKLOADS[workload]["templates"]
    kind, main, others, extra = templates[index % len(templates)]
    rng = random.Random(f"{seed}:{index}")
    degree, gens = load_fixture(main)
    sigma = _normaliser_element(rng, main, degree)
    if main in BASE_LABELLING:
        sigma = mul(sigma, BASE_LABELLING[main])
    words = [[rng.randrange(len(gens)) for _ in range(rng.randint(2, 5))]
             for _ in range(EXTRA_WORDS)]
    query = {"id": index, "kind": kind, "main": main, "others": list(others),
             "sigma": list(sigma), "words": words, "roundtrip": index < len(templates)}
    model = {"degree": degree, "gens": relabelled(gens, sigma),
             "others": [relabelled(load_fixture(o)[1], sigma) for o in others]}
    if kind == "density":
        while True:
            lifts = [_random_perm(rng, degree) for _ in range(2)]
            if not all(is_even(p) for p in lifts):
                break
        model["coset"] = ",".join("even" if is_even(p) else "odd" for p in lifts)
        query["lifts"] = [list(conj(p, sigma)) for p in lifts]
    elif kind == "replacement":
        pair = [conj(parse_cycles(t, degree), sigma) for t in extra]
        query["gens"] = [list(p) for p in pair]
        model["pair"] = pair
    elif kind == "chain":
        flags = [i % 2 == 0 for i in range(MEMBERSHIP_TESTS)]
        rng.shuffle(flags)
        elements = [conj(_chain_element(rng, main, degree, f), sigma) for f in flags]
        query["elements"] = [list(p) for p in elements]
        model["members"] = flags
    return query, model


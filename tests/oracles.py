"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw 0-based image tuples and deliberately avoids the
stabilizer-chain engine: closures are plain breadth-first set saturation, the
subgroup lattice is a join closure of cyclic subgroups, and so on.  Slow but
obviously correct, usable up to a few thousand elements.
"""

from itertools import product
from math import prod


def mul(p, q):
    return tuple(q[i] for i in p)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def closure(gens, degree):
    """All products of the generators, as a frozenset of image tuples."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
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


def generates(gens, degree, target_order):
    return len(closure(gens, degree)) == target_order


def cyclic_subgroups(elements, degree):
    """Subgroups generated by single elements, as frozensets."""
    out = set()
    for e in elements:
        out.add(closure([e], degree))
    return out


def all_subgroups(elements, degree):
    """Every subgroup, via join closure of the cyclic subgroups."""
    cyclics = cyclic_subgroups(elements, degree)
    known = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        nxt = []
        for h in frontier:
            for c in cyclics:
                if c <= h:
                    continue
                j = closure(list(h | c), degree)
                if j not in known:
                    known.add(j)
                    nxt.append(j)
        frontier = nxt
    return known


def maximal_subgroups(elements, degree):
    subs = all_subgroups(elements, degree)
    full = frozenset(elements)
    proper = [s for s in subs if s != full]
    out = []
    for s in proper:
        if not any(s < t for t in proper):
            out.append(s)
    return out


def commutator_closure(elements, degree):
    """Derived subgroup of the given element set (must be a group)."""
    comms = [mul(mul(inv(a), inv(b)), mul(a, b)) for a in elements for b in elements]
    return closure(comms, degree)


def element_order(p):
    ident = tuple(range(len(p)))
    k, x = 1, p
    while x != ident:
        x = mul(x, p)
        k += 1
    return k


def quotient_is_cyclic(G_elems, N_elems):
    """Whether G/N is cyclic, N normal: some g has least k with g^k in N
    equal to |G:N|, that is gN has order |G:N|."""
    index = len(G_elems) // len(N_elems)
    for g in G_elems:
        k, x = 1, g
        while x not in N_elems:
            x = mul(x, g)
            k += 1
        if k == index:
            return True
    return False


def minimal_normal_subgroups(gens, degree):
    """Minimal members of {<class of x>, x != 1}, with classes built by
    conjugating x by every element of G."""
    elems = closure(gens, degree)
    ident = tuple(range(degree))
    classes = {frozenset(mul(mul(inv(g), x), g) for g in elems) for x in elems if x != ident}
    normals = {closure(c, degree) for c in classes}
    return [n for n in normals if not any(m < n for m in normals)]


def socle_intersection_shape(stabilizer_gens, factor_gens, degree):
    """Shape of I = soc meet M in a primitive group of type 2, from element sets.

    ``stabilizer_gens`` generate M, the stabilizer of a point, and
    ``factor_gens`` holds the generators of each simple direct factor F of
    the socle.  I is trivial, coordinate (the product of its meets with the
    factors) or diagonal (each meet is proper and I projects onto every F:
    the projection's kernel is I meet R, R the product of the other factors,
    so its image has order |I| / |I meet R|); anything else is "none".
    """
    factors = [closure(gens, degree) for gens in factor_gens]
    soc = factors[0] if len(factors) == 1 else \
        closure([g for gens in factor_gens for g in gens], degree)
    inter = soc & closure(stabilizer_gens, degree)
    per_factor = [len(inter & f) for f in factors]
    if len(inter) == 1:
        return "trivial"
    if prod(per_factor) == len(inter):
        return "coordinate"
    rests = [closure([g for j, gens in enumerate(factor_gens) if j != i for g in gens], degree)
             for i in range(len(factors))]
    if all(c < len(f) and len(inter) == len(f) * len(inter & r)
           for c, f, r in zip(per_factor, factors, rests)):
        return "diagonal"
    return "none"


def non_generators(elements, degree):
    """Elements g such that no proper subgroup H has <H, g> = everything."""
    subs = all_subgroups(elements, degree)
    full = frozenset(elements)
    proper = [s for s in subs if s != full]
    return [g for g in sorted(elements)
            if all(closure(list(h) + [g], degree) != full for h in proper)]


def min_generating_size(elements, degree):
    """Exhaustive d(G) over tuples, no pruning.  Tiny groups only."""
    n = len(elements)
    elems = sorted(elements)
    if n == 1:
        return 0
    for k in range(1, 6):
        for tup in product(elems, repeat=k):
            if len(closure(list(tup), degree)) == n:
                return k
    raise AssertionError("no generating tuple of size <= 5")


def mgse_by_definition(elements, degree, d):
    """Direct quantifier check of the exchange property for tiny groups."""
    elems = sorted(elements)
    n = len(elements)
    gen_cache = {}

    def gen(tup):
        key = tuple(sorted(set(tup)))
        if key not in gen_cache:
            gen_cache[key] = len(closure(list(key), degree)) == n
        return gen_cache[key]

    gen_tuples = [t for t in product(elems, repeat=d) if gen(t)]
    for x in gen_tuples:
        for i in range(d):
            rest = x[:i] + x[i + 1:]
            for y in gen_tuples:
                if not any(gen(rest + (yj,)) for yj in y):
                    return False, (x, i, y)
    return True, None

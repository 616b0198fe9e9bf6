"""Permutation-group engine: stabilizer chains, membership, actions, products.

Groups are immutable once constructed; all queries after construction are
read-only, so Group objects can be shared freely between workers.  Chains are
built deterministically by incremental Schreier-Sims: base points are the
smallest moved points, each level's orbit grows in place in discovery order as
the level gains generators, and each (orbit point, generator) Schreier pair is
sifted once.  Orders, transversals and everything derived from them are
reproducible run to run.  The base is deterministic but differs from that of
releases which rebuilt each orbit in point order; no answer depends on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .perm import Permutation, _identity, _inv, _mul, _order

DEFAULT_MAX_POINTS = 100_000
DEFAULT_ELEMENT_BOUND = 200_000


class BoundExceeded(ValueError):
    """A configured degree/order/enumeration bound would be exceeded."""


class _Chain:
    """Mutable stabilizer chain used during construction (Schreier-Sims).

    Level i holds the i-th stabilizer group: ``gens[i]`` are the strong
    generators fixing ``base[:i]`` and ``trans[i]`` maps each point of the
    basepoint's orbit to a representative carrying the basepoint there.
    ``ginvs[i]`` holds the inverses of ``gens[i]`` and ``itrans[i]`` the
    inverse of every representative, built alongside ``trans[i]`` as
    g^-1 * rep^-1, so sifting and Schreier generators never invert a
    permutation (Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    Orbits grow in place: ``trans[i]`` keeps its points in discovery order,
    and a point keeps its representative once found.  ``sifted[i]`` is the
    (points, generators) prefix whose Schreier pairs are done (sifted, or
    trivial because the pair found its point), so each pair is handled once
    however often the level gains generators.
    New base points are always the smallest moved point, so chains are
    reproducible; the base need not match that of releases which rebuilt
    each orbit in point order.
    """

    __slots__ = ("degree", "ident", "base", "gens", "ginvs", "trans", "itrans", "sifted")

    def __init__(self, degree):
        self.degree = degree
        self.ident = _identity(degree)
        self.base = []
        self.gens = []
        self.ginvs = []
        self.trans = []
        self.itrans = []
        self.sifted = []

    def order(self):
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def sift(self, p):
        """Reduce p through the chain; identity residue means membership."""
        return self._sift_from(0, p)[0]

    def _sift_from(self, start, p):
        for lev in range(start, len(self.base)):
            b = self.base[lev]
            img = p[b]
            if img == b:
                continue
            rep_inv = self.itrans[lev].get(img)
            if rep_inv is None:
                return p, lev
            p = _mul(p, rep_inv)
        return p, len(self.base)

    def extend(self, p):
        """Add p (raw tuple) to the group; returns True if the group grew."""
        residue, j = self._sift_from(0, p)
        if residue == self.ident:
            return False
        self._add(residue, j, 0)
        return True

    def _add(self, g, j, top):
        # g fixes base[:j]; register it at levels top..j, then restore the
        # stabilizer invariant from the bottom up
        if j == len(self.base):
            moved = min(a for a, b in enumerate(g) if a != b)
            self.base.append(moved)
            self.gens.append([])
            self.ginvs.append([])
            self.trans.append({moved: self.ident})
            self.itrans.append({moved: self.ident})
            self.sifted.append((1, 0))
        ginv = _inv(g)
        for k in range(top, j + 1):
            self.gens[k].append(g)
            self.ginvs[k].append(ginv)
        for k in range(j, top - 1, -1):
            self._schreier_sims(k)

    def _schreier_sims(self, i):
        # establish H^(i)_{base[i]} = H^(i+1), assuming it holds at deeper
        # levels.  The orbit grows in place: the first ``npts`` points are
        # closed under the first ``ngens`` generators and their pairs are
        # done, so they meet only the newer generators, and every point
        # found since meets all of them.  A pair that finds a new point gives
        # a trivial Schreier generator; any other is sifted once, as a known
        # point's representative never changes.  A residue is added at deeper
        # levels only, so this level's generators stay fixed during the scan.
        tr = self.trans[i]
        itr = self.itrans[i]
        gens = list(zip(self.gens[i], self.ginvs[i]))
        npts, ngens = self.sifted[i]
        orbit = list(tr)
        pos = 0
        while pos < len(orbit):
            pt = orbit[pos]
            rep = tr[pt]
            for g, ginv in (gens[ngens:] if pos < npts else gens):
                img = g[pt]
                if img not in tr:
                    tr[img] = _mul(rep, g)
                    itr[img] = _mul(ginv, itr[pt])
                    orbit.append(img)
                    continue
                residue, j = self._sift_from(i + 1, _mul(_mul(rep, g), itr[img]))
                if residue != self.ident:
                    self._add(residue, j, i + 1)
            pos += 1
        self.sifted[i] = (len(orbit), len(gens))


def _build_chain(degree, raw_gens):
    chain = _Chain(degree)
    for g in raw_gens:
        chain.extend(g)
    return chain


def _orbit_count(degree, raw_gens) -> int:
    """Number of orbits of <raw_gens> on range(degree), by union-find."""
    root = list(range(degree))
    count = degree
    for g in raw_gens:
        for a, b in enumerate(g):
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                count -= 1
    return count


def _conjugation_orbits(points, pairs) -> list[tuple]:
    """Orbits of x -> g^-1 x g over the (g, g^-1) pairs, one per member of
    ``points`` not in an earlier orbit.

    With ``points`` closed under the action the orbits partition it.  Each
    orbit is a sorted tuple, and orbits come in the order of their first
    member in ``points``, so for sorted points they are ordered by least
    member.
    """
    remaining = set(points)
    orbits = []
    for x in points:
        if x not in remaining:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, ginv in pairs:
                z = _mul(ginv, _mul(y, g))
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        remaining -= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


class Group:
    """A finite permutation group given by generators plus a chain certificate."""

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators of mixed degrees")
        self._setup(degree, tuple(g.imgs for g in gens))

    def _setup(self, degree, raw_gens, chain=None):
        # the one place every field, caches included, is set; subgroup_closure
        # calls it directly to skip the degree checks on trusted raw tuples.
        # A caller that already extended a chain by raw_gens in order passes
        # it as ``chain``: extending again would rebuild the same chain.
        self._degree = degree
        ident = _identity(degree)
        self._raw_gens = tuple(p for p in raw_gens if p != ident)
        self._gens = tuple(Permutation._wrap(p) for p in self._raw_gens)
        self._chain = chain if chain is not None else _build_chain(degree, self._raw_gens)
        self._order = self._chain.order()
        self._orbits = _orbit_count(degree, self._raw_gens)
        self._elements: tuple | None = None
        self._classes: tuple | None = None
        self._lattice = None  # structure.SubgroupLattice, set by all_subgroups
        self._minimal_normals = None  # set by structure.minimal_normal_subgroups

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._gens

    def order(self) -> int:
        return self._order

    def contains(self, g: Permutation) -> bool:
        if g.degree != self._degree:
            raise ValueError("degree mismatch")
        return self._contains_raw(g.imgs)

    def _contains_raw(self, p) -> bool:
        return self._chain.sift(p) == self._chain.ident

    def base(self) -> tuple[int, ...]:
        """Chain base points (1-based)."""
        return tuple(b + 1 for b in self._chain.base)

    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def __repr__(self) -> str:
        return f"Group(degree={self._degree}, order={self._order}, ngens={len(self._gens)})"

    # -- element enumeration -------------------------------------------------

    def elements_raw(self) -> tuple:
        """All elements as raw image tuples, sorted."""
        if self._elements is None:
            if self._order > DEFAULT_ELEMENT_BOUND:
                raise BoundExceeded(f"group order {self._order} exceeds element "
                                    f"enumeration bound {DEFAULT_ELEMENT_BOUND}")
            out = [_identity(self._degree)]
            for t in reversed(self._chain.trans):
                reps = [t[pt] for pt in sorted(t)]
                out = [_mul(x, rep) for rep in reps for x in out]
            out.sort()
            self._elements = tuple(out)
        return self._elements

    def elements(self) -> list[Permutation]:
        return [Permutation._wrap(p) for p in self.elements_raw()]

    def conjugacy_classes_raw(self) -> tuple:
        """Conjugacy classes as sorted tuples of raw tuples, ordered by least member."""
        if self._classes is None:
            pairs = [(g, _inv(g)) for g in self._raw_gens]
            self._classes = tuple(_conjugation_orbits(self.elements_raw(), pairs))
        return self._classes

    def is_abelian(self) -> bool:
        gens = self._raw_gens
        return all(_mul(a, b) == _mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1:])

    def is_cyclic(self) -> bool:
        return self.is_abelian() and any(_order(p) == self._order for p in self.elements_raw())

    # -- subgroup relations ---------------------------------------------------

    def is_subgroup_of(self, other: "Group") -> bool:
        """Containment checked generator-by-generator via sifting."""
        if self._degree != other._degree:
            raise ValueError("degree mismatch")
        return all(other._contains_raw(g) for g in self._raw_gens)

    def is_normal_in(self, other: "Group") -> bool:
        if not self.is_subgroup_of(other):
            return False
        for g in other._raw_gens:
            ginv = _inv(g)
            for h in self._raw_gens:
                if not self._contains_raw(_mul(ginv, _mul(h, g))):
                    return False
        return True

    def conjugated(self, g: Permutation) -> "Group":
        ginv = g.inverse()
        return Group([ginv * h * g for h in self._gens], self._degree)


def trivial_group(degree: int) -> Group:
    return Group([], degree)


# ---------------------------------------------------------------------------
# closures built inside an ambient group

def subgroup_closure(ambient_degree: int, raw_gens, chain=None) -> Group:
    """Subgroup generated by trusted raw tuples; ``chain``, if given, is the
    chain already built by extending with ``raw_gens`` in order."""
    g = Group.__new__(Group)
    g._setup(ambient_degree, raw_gens, chain)
    return g


def normal_closure(G: Group, seeds: Iterable[Permutation]) -> Group:
    """Smallest normal subgroup of G containing the seed elements."""
    raw_seeds = [s.imgs for s in seeds]
    chain = _build_chain(G.degree, raw_seeds)
    gens = [p for p in raw_seeds if p != chain.ident]
    queue = deque(gens)
    ambient = [(g, _inv(g)) for g in G._raw_gens]
    while queue:
        x = queue.popleft()
        for g, ginv in ambient:
            y = _mul(ginv, _mul(x, g))
            if chain.extend(y):
                gens.append(y)
                queue.append(y)
    return subgroup_closure(G.degree, gens, chain)


def commutator_subgroup(G: Group) -> Group:
    """Derived subgroup: normal closure of generator commutators."""
    comms = []
    for a in G._raw_gens:
        ainv = _inv(a)
        for b in G._raw_gens:
            comms.append(_mul(_mul(ainv, _inv(b)), _mul(a, b)))
    return normal_closure(G, [Permutation._wrap(c) for c in comms])


def _stabilizer(degree, order, gens, moves, start):
    """Stabilizer of ``start`` in K = <gens> of the given order, by orbit-stabilizer.

    ``moves[i]`` maps a point to its image under ``gens[i]``; points may be
    any hashable, such as frozensets of element ids.  The orbit is walked
    breadth-first and kept in discovery order, which needs no ordering of
    the points.  Schreier generators are sifted, in that order, into a chain
    until it reaches the exact order |K| / |orbit|.  Returns the stabilizer's
    generators, that chain (the one ``_build_chain`` would make from them),
    and the orbit as a dict from each point to an element of K carrying
    ``start`` there.
    """
    orbit = {start: _identity(degree)}
    queue = deque([start])
    while queue:
        y = queue.popleft()
        rep = orbit[y]
        for g, move in zip(gens, moves):
            z = move(y)
            if z not in orbit:
                if len(orbit) >= DEFAULT_ELEMENT_BOUND:
                    raise BoundExceeded("orbit too large")
                orbit[z] = _mul(rep, g)
                queue.append(z)
    target = order // len(orbit)
    chain = _build_chain(degree, [])
    stab_gens = []
    for y, rep in orbit.items():
        if chain.order() >= target:
            break
        for g, move in zip(gens, moves):
            schreier = _mul(_mul(rep, g), _inv(orbit[move(y)]))
            if chain.extend(schreier):
                stab_gens.append(schreier)
                if chain.order() >= target:
                    break
    return stab_gens, chain, orbit


def centralizer_in(G: Group, x: Permutation) -> Group:
    """Centralizer of x in G: the stabilizer of x under conjugation."""
    moves = [lambda y, g=g, ginv=_inv(g): _mul(ginv, _mul(y, g)) for g in G._raw_gens]
    gens, chain, _ = _stabilizer(G.degree, G.order(), G._raw_gens, moves, x.imgs)
    return subgroup_closure(G.degree, gens, chain)


# ---------------------------------------------------------------------------
# homomorphisms and coset actions

@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism onto ``target``, given by an apply rule on raw tuples."""

    source: Group
    target: Group
    _apply: Callable[[tuple], tuple]

    def apply(self, g: Permutation) -> Permutation:
        return Permutation._wrap(self._apply(g.imgs))

    def kernel(self) -> Group:
        """Kernel as iterated point stabilizers over a base of the image.

        k is in the kernel iff its image fixes the base; each step acts through
        the images of the current stabilizer's generators only (Seress, 2003,
        ch. 5), and stops once the known order |source|/|target| is reached.
        """
        degree = self.source.degree
        gens = self.source._raw_gens
        order = self.source.order()
        want = order // self.target.order()
        chain = None
        for b in self.target._chain.base:
            if order == want:
                break
            moves = [self._apply(g).__getitem__ for g in gens]
            gens, chain, _ = _stabilizer(degree, order, gens, moves, b)
            order = chain.order()
        return subgroup_closure(degree, gens, chain)


def coset_canonical(H: Group, p):
    """Canonical representative of the right coset H*p (raw tuples).

    Greedily minimizes the images of H's base points, so equal cosets get
    equal representatives.
    """
    chain = H._chain
    for b, t in zip(chain.base, chain.trans):
        best_pt = min(t, key=lambda y: p[y])
        p = _mul(t[best_pt], p)
    return p


def coset_action(G: Group, H: Group, max_points: int = DEFAULT_MAX_POINTS) -> tuple[Group, Homomorphism]:
    """Action of G on the right cosets of H; kernel is the core of H in G.

    The image acts transitively on |G:H| points and realizes G / core(H)
    faithfully.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    index = G.order() // H.order()
    if index > max_points:
        raise BoundExceeded(f"index {index} exceeds the {max_points}-point bound")

    start = coset_canonical(H, _identity(G.degree))
    labels = {start: 0}
    reps = [start]
    queue = deque([start])
    raw_gens = G._raw_gens
    while queue:
        rep = queue.popleft()
        for g in raw_gens:
            img = coset_canonical(H, _mul(rep, g))
            if img not in labels:
                labels[img] = len(reps)
                reps.append(img)
                queue.append(img)
    if len(reps) != index:
        raise AssertionError("coset enumeration mismatch")

    def act(p):
        return tuple(labels[coset_canonical(H, _mul(rep, p))] for rep in reps)

    image_gens = [Permutation._wrap(act(g)) for g in raw_gens]
    image = Group(image_gens, index)
    hom = Homomorphism(G, image, act)
    return image, hom


def quotient(G: Group, N: Group, max_points: int = DEFAULT_MAX_POINTS) -> tuple[Group, Homomorphism]:
    """G/N realized by the coset action; requires N normal in G."""
    if not N.is_normal_in(G):
        raise ValueError("N is not normal in G")
    return coset_action(G, N, max_points)


# ---------------------------------------------------------------------------
# products

def direct_product(A: Group, B: Group) -> Group:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = A.degree, B.degree
    gens = []
    for g in A._raw_gens:
        gens.append(Permutation._wrap(tuple(g) + tuple(range(da, da + db))))
    for g in B._raw_gens:
        gens.append(Permutation._wrap(tuple(range(da)) + tuple(x + da for x in g)))
    return Group(gens, da + db)


@dataclass(frozen=True)
class WreathElement:
    """Element of inner wr top, decomposed: base coordinates and top permutation.

    ``flat`` is the imprimitive-action permutation on n * m points and is the
    canonical form for equality and hashing.
    """

    base: tuple[Permutation, ...]
    top: Permutation
    flat: Permutation

    def __eq__(self, other):
        return isinstance(other, WreathElement) and self.flat == other.flat

    def __hash__(self):
        return hash(self.flat)


def wreath_flat(base, top, inner_degree: int) -> Permutation:
    """Flatten ((a_1..a_n), s) to the permutation of n*inner_degree points.

    Block i (1-based) holds points (i-1)*m+1 .. i*m; the image of (d, i) is
    (d^(a_i), i^s).
    """
    n = top.degree
    m = inner_degree
    imgs = [0] * (n * m)
    for i in range(n):
        block_img = top.imgs[i]
        a = base[i].imgs
        for d in range(m):
            imgs[i * m + d] = block_img * m + a[d]
    return Permutation._wrap(imgs)


def wreath_product(inner: Group, top: Group,
                   max_degree: int = DEFAULT_MAX_POINTS) -> tuple[Group, Callable[[Permutation], WreathElement]]:
    """Imprimitive wreath product inner wr top, plus an exact decomposer.

    Returns the group of order |inner|^n * |top| on n * m points together
    with a function inverting the flat embedding.
    """
    n = top.degree
    m = inner.degree
    if n * m > max_degree:
        raise BoundExceeded(f"wreath degree {n * m} exceeds bound {max_degree}")
    ident_inner = Permutation.identity(m)
    ident_top = Permutation.identity(n)
    gens = []
    for i in range(n):
        for g in inner.generators:
            base = [ident_inner] * n
            base[i] = g
            gens.append(wreath_flat(base, ident_top, m))
    for t in top.generators:
        gens.append(wreath_flat([ident_inner] * n, t, m))
    W = Group(gens, n * m)

    def decompose(flat: Permutation) -> WreathElement:
        if flat.degree != n * m:
            raise ValueError("degree mismatch")
        imgs = flat.imgs
        top_imgs = []
        base = []
        for i in range(n):
            j = imgs[i * m] // m
            coord = [0] * m
            for d in range(m):
                img = imgs[i * m + d]
                if img // m != j:
                    raise ValueError("permutation does not preserve the block system")
                coord[d] = img - j * m
            top_imgs.append(j)
            base.append(Permutation(coord))
        return WreathElement(tuple(base), Permutation(top_imgs), flat)

    return W, decompose

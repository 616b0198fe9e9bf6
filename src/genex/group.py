"""Permutation-group engine: stabilizer chains, membership, actions, products.

Groups are immutable once constructed; all queries after construction are
read-only, so Group objects can be shared freely between workers.  Chains are
built deterministically (base points are the smallest moved points, orbits
explored in point order), so orders, transversals and everything derived from
them are reproducible run to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .perm import Permutation, _conj, _identity, _inv, _mul, _order

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
    New base points are always the smallest moved point, and orbits are
    explored breadth-first in insertion order, so chains are reproducible.
    """

    __slots__ = ("degree", "ident", "base", "gens", "ginvs", "trans", "itrans")

    def __init__(self, degree):
        self.degree = degree
        self.ident = _identity(degree)
        self.base = []
        self.gens = []
        self.ginvs = []
        self.trans = []
        self.itrans = []

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

    def _rebuild_orbit(self, i):
        b = self.base[i]
        gens = list(zip(self.gens[i], self.ginvs[i]))
        tr = {b: self.ident}
        itr = {b: self.ident}
        queue = deque([b])
        while queue:
            pt = queue.popleft()
            rep = tr[pt]
            rep_inv = itr[pt]
            for g, ginv in gens:
                img = g[pt]
                if img not in tr:
                    tr[img] = _mul(rep, g)
                    itr[img] = _mul(ginv, rep_inv)
                    queue.append(img)
        self.trans[i] = tr
        self.itrans[i] = itr

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
        ginv = _inv(g)
        for k in range(top, j + 1):
            self.gens[k].append(g)
            self.ginvs[k].append(ginv)
        for k in range(j, top - 1, -1):
            self._schreier_sims(k)

    def _schreier_sims(self, i):
        # establish H^(i)_{base[i]} = H^(i+1) by sifting Schreier generators;
        # assumes the invariant already holds at deeper levels
        while True:
            self._rebuild_orbit(i)
            tr = self.trans[i]
            itr = self.itrans[i]
            clean = True
            for pt in sorted(tr):
                rep = tr[pt]
                for g in self.gens[i]:
                    sg = _mul(_mul(rep, g), itr[g[pt]])
                    residue, j = self._sift_from(i + 1, sg)
                    if residue != self.ident:
                        self._add(residue, j, i + 1)
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                return


def _build_chain(degree, raw_gens):
    chain = _Chain(degree)
    for g in raw_gens:
        chain.extend(g)
    return chain


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

    def _setup(self, degree, raw_gens):
        # the one place every field, caches included, is set; subgroup_closure
        # calls it directly to skip the degree checks on trusted raw tuples
        self._degree = degree
        ident = _identity(degree)
        self._raw_gens = tuple(p for p in raw_gens if p != ident)
        self._gens = tuple(Permutation._wrap(p) for p in self._raw_gens)
        self._chain = _build_chain(degree, self._raw_gens)
        self._order = self._chain.order()
        self._elements: tuple | None = None
        self._classes: tuple | None = None
        self._class_of: dict | None = None

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

    def is_trivial(self) -> bool:
        return self._order == 1

    def __repr__(self) -> str:
        return f"Group(degree={self._degree}, order={self._order}, ngens={len(self._gens)})"

    # -- element enumeration -------------------------------------------------

    def elements_raw(self, bound: int = DEFAULT_ELEMENT_BOUND) -> tuple:
        """All elements as raw image tuples, sorted."""
        if self._elements is None:
            if self._order > bound:
                raise BoundExceeded(
                    f"group order {self._order} exceeds element enumeration bound {bound}")
            out = [_identity(self._degree)]
            for t in reversed(self._chain.trans):
                reps = [t[pt] for pt in sorted(t)]
                out = [_mul(x, rep) for rep in reps for x in out]
            out.sort()
            self._elements = tuple(out)
        return self._elements

    def elements(self, bound: int = DEFAULT_ELEMENT_BOUND) -> list[Permutation]:
        return [Permutation._wrap(p) for p in self.elements_raw(bound)]

    def conjugacy_classes_raw(self, bound: int = DEFAULT_ELEMENT_BOUND) -> tuple:
        """Conjugacy classes as sorted tuples of raw tuples, ordered by least member."""
        if self._classes is None:
            elems = self.elements_raw(bound)
            inv_gens = [(_g, _inv(_g)) for _g in self._raw_gens]
            remaining = set(elems)
            classes = []
            for e in elems:
                if e not in remaining:
                    continue
                orbit = {e}
                queue = [e]
                while queue:
                    x = queue.pop()
                    for g, ginv in inv_gens:
                        y = _mul(ginv, _mul(x, g))
                        if y not in orbit:
                            orbit.add(y)
                            queue.append(y)
                remaining -= orbit
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda c: c[0])
            self._classes = tuple(classes)
        return self._classes

    def class_index_raw(self) -> dict:
        """Map from each raw element to the index of its conjugacy class."""
        if self._class_of is None:
            self._class_of = {p: ci for ci, cls in enumerate(self.conjugacy_classes_raw())
                              for p in cls}
        return self._class_of

    def class_representatives(self) -> list[Permutation]:
        return [Permutation._wrap(c[0]) for c in self.conjugacy_classes_raw()]

    def element_orders(self) -> list[int]:
        return sorted(_order(p) for p in self.elements_raw())

    def is_abelian(self) -> bool:
        gens = self._raw_gens
        return all(_mul(a, b) == _mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1:])

    def is_cyclic(self) -> bool:
        if self._order == 1:
            return True
        return any(_order(c[0]) == self._order for c in self.conjugacy_classes_raw())

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


def group_from_generators(gens: Iterable[Permutation], degree: int | None = None) -> Group:
    """Group with a stabilizer-chain certificate; exact order and membership."""
    return Group(gens, degree)


def trivial_group(degree: int) -> Group:
    return Group([], degree)


def order(G: Group) -> int:
    return G.order()


def contains(G: Group, g: Permutation) -> bool:
    return G.contains(g)


# ---------------------------------------------------------------------------
# closures built inside an ambient group

def subgroup_closure(ambient_degree: int, raw_gens) -> Group:
    g = Group.__new__(Group)
    g._setup(ambient_degree, raw_gens)
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
    return subgroup_closure(G.degree, gens)


def commutator_subgroup(G: Group) -> Group:
    """Derived subgroup: normal closure of generator commutators."""
    comms = []
    for a in G._raw_gens:
        ainv = _inv(a)
        for b in G._raw_gens:
            comms.append(_mul(_mul(ainv, _inv(b)), _mul(a, b)))
    return normal_closure(G, [Permutation._wrap(c) for c in comms])


def centralizer_in(G: Group, x: Permutation, bound: int = DEFAULT_ELEMENT_BOUND) -> Group:
    """Centralizer of x in G via the conjugation orbit of x.

    Uses orbit-stabilizer with Schreier generators; stops extending once the
    known order |G| / |class of x| is reached.
    """
    raw_x = x.imgs
    gens = [(g, _inv(g)) for g in G._raw_gens]
    orbit = {raw_x: _identity(G.degree)}
    queue = deque([raw_x])
    while queue:
        y = queue.popleft()
        rep = orbit[y]
        for g, ginv in gens:
            z = _mul(ginv, _mul(y, g))
            if z not in orbit:
                if len(orbit) >= bound:
                    raise BoundExceeded("conjugacy class too large")
                orbit[z] = _mul(rep, g)
                queue.append(z)
    target = G.order() // len(orbit)
    chain = _build_chain(G.degree, [])
    stab_gens = []
    for y in sorted(orbit):
        if chain.order() >= target:
            break
        rep = orbit[y]
        for g, ginv in gens:
            schreier = _mul(_mul(rep, g), _inv(orbit[_mul(ginv, _mul(y, g))]))
            if chain.extend(schreier):
                stab_gens.append(schreier)
                if chain.order() >= target:
                    break
    return subgroup_closure(G.degree, stab_gens)


# ---------------------------------------------------------------------------
# homomorphisms and coset actions

@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism given by generator images and an apply rule."""

    source: Group
    target: Group
    images: dict
    _apply: Callable[[tuple], tuple]

    def apply(self, g: Permutation) -> Permutation:
        return Permutation._wrap(self._apply(g.imgs))

    def kernel(self, bound: int = DEFAULT_ELEMENT_BOUND) -> Group:
        """Kernel by element scan (preimage data); exact at enumeration scale."""
        idt = _identity(self.target.degree)
        gens = [p for p in self.source.elements_raw(bound) if self._apply(p) == idt]
        return subgroup_closure(self.source.degree, gens)


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
    if H.order() == 0 or G.order() % H.order():
        raise ValueError("invalid subgroup")
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
    images = {Permutation._wrap(g): Permutation._wrap(act(g)) for g in raw_gens}
    hom = Homomorphism(G, image, images, act)
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


def embed_left(A: Group, g: Permutation, total_degree: int) -> Permutation:
    return Permutation._wrap(tuple(g.imgs) + tuple(range(A.degree, total_degree)))


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

"""Permutations on 1-based points, with cycle notation I/O.

Internally a permutation is a tuple ``imgs`` of 0-based images: point ``i``
(1-based) maps to ``imgs[i-1] + 1``.  All engine-internal arithmetic works on
these raw tuples; the :class:`Permutation` class is the user-facing value
object.  Products compose left to right: ``(p * q)(i) == q(p(i))``, matching
the right-action convention used for wreath coordinates throughout.

Every other module imports this one, so it also holds the engine's limits:
one table, ``BOUNDS``, checked by ``_check_bound`` before the allocation
each limit guards.
"""

from __future__ import annotations

from functools import total_ordering
from math import lcm
from operator import index, itemgetter

_TABLE_ID = bytes(range(256))  # the identity translate table, shared with group's chains


class BoundExceeded(ValueError):
    """A configured degree/order/enumeration bound would be exceeded."""


# The engine's limits, read at each check: the degree of a permutation or
# group (and a coset action's index), the elements of an enumerated group or
# orbit, the conjugacy classes of subgroups a lattice registers, and the
# tuples a generation density counts.
BOUNDS = {"points": 100_000, "elements": 200_000, "lattice": 5000, "density": 10 ** 8}


def _check_bound(name, value, what):
    if value > BOUNDS[name]:
        raise BoundExceeded(f"{what} {value} exceeds the {name} bound {BOUNDS[name]}")


def _check_degree(degree):
    """A degree given from outside: an int that is not a bool, >= 0 and
    within ``BOUNDS["points"]``, checked before any point list is built."""
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be an int >= 0, not {degree!r}")
    _check_bound("points", degree, "degree")


# ---------------------------------------------------------------------------
# raw-tuple arithmetic (hot paths operate on these, not on Permutation)

def _identity(n):
    return tuple(range(n))


def _mul(p, q):
    """Product p then q on 0-based image tuples: entry i is ``q[p[i]]``.

    ``itemgetter(*p)`` gathers the images in C.  It returns a scalar for a
    single index and cannot be built from none, so degrees 0 and 1 take the
    ``map`` form instead.
    """
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(map(q.__getitem__, p))


def _inv(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _pow(p, n):
    """p^n by binary powering from p, high bit first, with no identity factor."""
    if n < 0:
        return _pow(_inv(p), -n)
    if n == 0:
        return _identity(len(p))
    q = p
    for bit in bin(n)[3:]:
        q = _mul(q, q)
        if bit == "1":
            q = _mul(q, p)
    return q


def _cycles(p):
    """Nontrivial cycles as 0-based tuples, each starting at its least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def _order(p):
    """The lcm of the lengths of the nontrivial cycles ``_cycles`` returns;
    1 for the identity."""
    return lcm(*map(len, _cycles(p)))


def _odd(p):
    """Whether p is an odd permutation: its degree less its number of cycles
    (fixed points included) is odd.

    Its own walk, not ``_cycles``: it is the closed-form membership test of
    every Alt (``group.Group._contains_raw``), called once per query, and a
    parity read off ``_cycles``, which builds each cycle's tuple, took
    1.5-1.9 times as long per call on random permutations of 12 to 28
    points."""
    left = set(range(len(p)))
    odd = len(p)
    while left:
        a = left.pop()
        odd -= 1
        b = p[a]
        while b != a:
            left.remove(b)
            b = p[b]
    return odd % 2 == 1


# ---------------------------------------------------------------------------
# small arithmetic helpers shared by the order/r-part machinery

def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Whether n is prime: its factorization is n itself, once."""
    return prime_factors(n) == {n: 1}


@total_ordering
class Permutation:
    """A bijection of {1..degree} stored in image form."""

    __slots__ = ("imgs",)

    def __init__(self, imgs):
        """Checked in C.  ``tuple`` rejects a non-iterable, and ``bytes`` (up
        to 256 points) or ``index`` a non-integer image.  The n images are a
        bijection of range(n) iff every point of range(n) is among them
        (pigeonhole: n images cannot cover n points with a repeat or with an
        image outside range(n)).  Up to 256 points that is one translate:
        deleting the images from the first n bytes of the identity table
        leaves nothing.  Above 256 the images' set must equal range(n)."""
        try:
            imgs = tuple(imgs)
            n = len(imgs)
            if n <= 256:
                ok = not _TABLE_ID[:n].translate(None, bytes(imgs))
            else:
                imgs = tuple(map(index, imgs))
                ok = set(imgs) == set(range(n))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError("images are not a bijection of the point set")
        object.__setattr__(self, "imgs", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def _wrap(imgs) -> "Permutation":
        # trusted path: skip the bijection check
        p = object.__new__(Permutation)
        object.__setattr__(p, "imgs", tuple(imgs))
        return p

    @staticmethod
    def identity(degree: int) -> "Permutation":
        _check_degree(degree)
        return Permutation._wrap(range(degree))

    @property
    def degree(self) -> int:
        return len(self.imgs)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image sequence: entry i is the image of point i+1."""
        return tuple(j + 1 for j in self.imgs)

    def __call__(self, point: int) -> int:
        n = len(self.imgs)
        if isinstance(point, bool) or not isinstance(point, int) or not 1 <= point <= n:
            raise ValueError(f"point {point!r} out of range: not an int in 1..{n}")
        return self.imgs[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.imgs) != len(other.imgs):
            raise ValueError("degree mismatch")
        return Permutation._wrap(_mul(self.imgs, other.imgs))

    def __pow__(self, n: int) -> "Permutation":
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        return Permutation._wrap(_pow(self.imgs, n))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_inv(self.imgs))

    def order(self) -> int:
        return _order(self.imgs)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        if not isinstance(g, Permutation) or len(g.imgs) != len(self.imgs):
            raise ValueError("conjugate takes a Permutation of the same degree")
        return Permutation._wrap(_mul(_inv(g.imgs), _mul(self.imgs, g.imgs)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based points."""
        return [tuple(i + 1 for i in c) for c in _cycles(self.imgs)]

    def has_fixed_point(self) -> bool:
        return any(i == j for i, j in enumerate(self.imgs))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.imgs == other.imgs

    def __lt__(self, other: "Permutation") -> bool:
        """Orders by degree, then by images; <=, > and >= follow."""
        if not isinstance(other, Permutation):
            return NotImplemented
        return (len(self.imgs), self.imgs) < (len(other.imgs), other.imgs)

    def __hash__(self) -> int:
        return hash(self.imgs)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles over {1..degree}.

    "()" denotes the identity.  Points are ASCII decimal numerals, separated
    by commas or spaces; ``int`` alone would also take "+3", "1_0" and
    non-ASCII digits.  Raises ValueError on text that is not a str or is
    malformed, out-of-range points, or a point repeated across cycles, and
    BoundExceeded on a degree above ``BOUNDS["points"]``.
    """
    _check_degree(degree)
    if not isinstance(text, str):
        raise ValueError(f"permutation text must be a str, not {text!r}")
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    imgs = list(range(degree))
    seen: set[int] = set()
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "(":
            raise ValueError(f"malformed cycle text {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        body = s[pos + 1:end].replace(",", " ").split()
        pos = end + 1
        if not body:
            continue
        if not all(tok.isascii() and tok.isdigit() for tok in body):
            raise ValueError(f"point not in ASCII decimal digits in {text!r}")
        points = [int(tok) for tok in body]
        for pt in points:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} out of range 1..{degree}")
            if pt in seen:
                raise ValueError(f"point {pt} repeated in {text!r}")
            seen.add(pt)
        if len(points) > 1:
            for a, b in zip(points, points[1:]):
                imgs[a - 1] = b - 1
            imgs[points[-1] - 1] = points[0] - 1
    return Permutation._wrap(imgs)


def format_cycles(p: Permutation) -> str:
    """Disjoint-cycle string; "()" for the identity."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

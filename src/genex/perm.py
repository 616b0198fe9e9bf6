"""Permutations on 1-based points, with cycle notation I/O.

Internally a permutation is a tuple ``imgs`` of 0-based images: point ``i``
(1-based) maps to ``imgs[i-1] + 1``.  All engine-internal arithmetic works on
these raw tuples; the :class:`Permutation` class is the user-facing value
object.  Products compose left to right: ``(p * q)(i) == q(p(i))``, matching
the right-action convention used for wreath coordinates throughout.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import itemgetter


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
    if n < 0:
        return _pow(_inv(p), -n)
    q = _identity(len(p))
    while n:
        if n & 1:
            q = _mul(q, p)
        p = _mul(p, p)
        n >>= 1
    return q


def _cycle_lengths(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return out


def _order(p):
    o = 1
    for length in _cycle_lengths(p):
        o = o * length // gcd(o, length)
    return o


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


# ---------------------------------------------------------------------------
# small arithmetic helpers shared by the order/r-part machinery

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


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


def r_part(n: int, r: int) -> int:
    """Largest power of the prime r dividing n."""
    part = 1
    while n % r == 0:
        part *= r
        n //= r
    return part


class Permutation:
    """A bijection of {1..degree} stored in image form."""

    __slots__ = ("imgs",)

    def __init__(self, imgs):
        imgs = tuple(imgs)
        if sorted(imgs) != list(range(len(imgs))):
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
        return Permutation._wrap(range(degree))

    @property
    def degree(self) -> int:
        return len(self.imgs)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image sequence: entry i is the image of point i+1."""
        return tuple(j + 1 for j in self.imgs)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.imgs):
            raise ValueError(f"point {point} out of range 1..{len(self.imgs)}")
        return self.imgs[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.imgs) != len(other.imgs):
            raise ValueError("degree mismatch")
        return Permutation._wrap(_mul(self.imgs, other.imgs))

    def __pow__(self, n: int) -> "Permutation":
        return Permutation._wrap(_pow(self.imgs, n))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_inv(self.imgs))

    def order(self) -> int:
        return _order(self.imgs)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return Permutation._wrap(_mul(_inv(g.imgs), _mul(self.imgs, g.imgs)))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.imgs))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based points."""
        return [tuple(i + 1 for i in c) for c in _cycles(self.imgs)]

    def fixed_points(self) -> list[int]:
        return [i + 1 for i, j in enumerate(self.imgs) if i == j]

    def has_fixed_point(self) -> bool:
        return any(i == j for i, j in enumerate(self.imgs))

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in _cycles(self.imgs)) % 2 else 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.imgs == other.imgs

    def __lt__(self, other: "Permutation") -> bool:
        return (len(self.imgs), self.imgs) < (len(other.imgs), other.imgs)

    def __hash__(self) -> int:
        return hash(self.imgs)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles over {1..degree}.

    "()" denotes the identity.  Points may be separated by commas or spaces.
    Raises ValueError on malformed text, out-of-range points, or a point
    repeated across cycles.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    imgs = list(range(degree))
    seen: set[int] = set()
    pos = 0
    found = False
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
        found = True
        if not body:
            continue
        try:
            points = [int(tok) for tok in body]
        except ValueError:
            raise ValueError(f"non-integer point in {text!r}") from None
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
    if not found:
        raise ValueError(f"malformed cycle text {text!r}")
    return Permutation._wrap(imgs)


def format_cycles(p: Permutation) -> str:
    """Disjoint-cycle string; "()" for the identity."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)


def element_order_r_part(g: Permutation, r: int) -> tuple[int, int]:
    """Order of g and the largest power of the prime r dividing it."""
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    o = g.order()
    return o, r_part(o, r)

"""The ".grp" group text format.

A file is a `degree: <n>` line followed by one `gen: <cycles>` line per
generator; the degree and the points are ASCII decimal numerals.  Lines
starting with `#` and blank lines are ignored.  Round trips are bit-exact
on the parsed generators: parse -> serialize -> parse yields identical
generator permutations in identical order.  A degree above
``BOUNDS["points"]`` raises ``BoundExceeded`` before any point list is
built, in ``parse_permutation`` or ``Group()``.
"""

from __future__ import annotations

from .group import Group
from .perm import Permutation, format_cycles, parse_permutation


def parse_group_text(text: str) -> Group:
    if not isinstance(text, str):
        raise ValueError(f"group text must be a str, not {text!r}")
    degree = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("degree:"):
            if degree is not None:
                raise ValueError(f"line {lineno}: duplicate degree line")
            value = line[len("degree:"):].strip()
            if not (value.isascii() and value.isdigit()):
                raise ValueError(f"line {lineno}: bad degree")
            degree = int(value)
            if degree < 1:
                raise ValueError(f"line {lineno}: degree must be positive")
        elif line.startswith("gen:"):
            if degree is None:
                raise ValueError(f"line {lineno}: gen before degree")
            gens.append(parse_permutation(line[len("gen:"):].strip(), degree))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if degree is None:
        raise ValueError("missing degree line")
    return Group(gens, degree)


def serialize_group(G: Group, comment: str | None = None) -> str:
    """G's ".grp" text; ValueError for degree 0, which the format cannot
    write, as ``parse_group_text`` takes a positive degree only."""
    if G.degree < 1:
        raise ValueError("a group of degree 0 has no .grp text")
    lines = []
    if comment:
        lines.extend("# " + c for c in comment.splitlines())
    lines.append(f"degree: {G.degree}")
    lines.extend(f"gen: {format_cycles(g)}" for g in G.generators)
    return "\n".join(lines) + "\n"

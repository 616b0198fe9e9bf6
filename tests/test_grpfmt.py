import pytest

from genex.group import Group
from genex.grpfmt import parse_group_text, serialize_group
from genex.perm import BOUNDS, BoundExceeded

S5_TEXT = """\
# S5, symmetric group of degree 5
degree: 5
gen: (1,2,3,4,5)
gen: (1,2)
"""

A5_WR_C2_TEXT = """\
# A5 wr C2
# imprimitive action on two blocks of five points
degree: 10
gen: (1,2,3,4,5)
gen: (3,4,5)
gen: (6,7,8,9,10)
gen: (8,9,10)
gen: (1,6)(2,7)(3,8)(4,9)(5,10)
"""


def _comment(text):
    return "\n".join(line[2:] for line in text.splitlines() if line.startswith("# "))


@pytest.mark.parametrize("text,order", [(S5_TEXT, 120), (A5_WR_C2_TEXT, 7200)])
def test_round_trip_is_bit_exact(text, order):
    g1 = parse_group_text(text)
    assert g1.order() == order
    out = serialize_group(g1, _comment(text))
    assert out == text
    g2 = parse_group_text(out)
    assert [g.imgs for g in g2.generators] == [g.imgs for g in g1.generators]
    assert serialize_group(g2, _comment(text)) == out


def test_comments_and_blank_lines_are_ignored():
    noisy = "\n# a\n\n" + S5_TEXT.replace("gen: (1,2)\n", "# b\n\ngen: (1,2)\n")
    assert serialize_group(parse_group_text(noisy)) == serialize_group(parse_group_text(S5_TEXT))


@pytest.mark.parametrize("text", [
    "degree: 5\ndegree: 5\n",                 # duplicate degree
    "gen: (1,2)\ndegree: 5\n",                # gen before degree
    "degree: 5\norder: 120\n",                # unknown line
    "degree: 5\ngen: (1,2,3\n",               # unbalanced cycle
    "degree: 0\n",
    "degree: five\n",
    "# no degree\n",
    "degree: 1_0\n",                          # int() would read 10
    "degree: +5\n",
    "degree: \uff15\n",                       # full-width 5
    "degree: 10\ngen: (1_0,2)\n",             # int() would read (2,10)
    "degree: 5\ngen: (+3,1)\n",
    "degree: 5\ngen: (\uff13,1)\n",           # full-width 3
    None,                                     # not a str
    5,
    b"degree: 3\n",
])
def test_malformed_text_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_group_text(text)


def test_serialize_writes_only_text_that_parses():
    # degree 0 has no text ("degree: 0" is malformed above); degree 1 round trips
    with pytest.raises(ValueError):
        serialize_group(Group([], 0))
    out = serialize_group(Group([], 1))
    assert out == "degree: 1\n"
    assert serialize_group(parse_group_text(out)) == out


def test_degree_above_point_bound_raises():
    assert parse_group_text(f"degree: {BOUNDS['points']}\n").degree == BOUNDS["points"]
    with pytest.raises(BoundExceeded):
        parse_group_text(f"degree: {BOUNDS['points'] + 1}\n")

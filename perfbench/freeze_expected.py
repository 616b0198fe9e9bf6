"""Regenerate ``expected.json``: the benchmark's known answers, never from genex.

Usage (from the root of a checkout, takes about a minute):
    python3 perfbench/freeze_expected.py

Literature values are written with their source.  The rest are computed here
with the brute-force closures of ``tests/oracles.py``, which is imported and
never edited.  The benchmark itself only reads the frozen file.
"""

from __future__ import annotations

import json
import sys
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from verify import inv, mul, parse_cycles  # noqa: E402
from workloads import WORKLOADS, load_fixture  # noqa: E402

ORACLE = "tests/oracles.py"

ORDERS = {  # fixture -> (order, formula)
    **{f"S{n}": (factorial(n), f"{n}!") for n in (4, 5, 6, 7, 12, 20, 28)},
    **{f"A{n}": (factorial(n) // 2, f"{n}!/2") for n in (5, 6, 12, 20, 28)},
    "A5wrC2": (60 ** 2 * 2, "|A5|^2 |C2|"), "A5wrC3": (60 ** 3 * 3, "|A5|^3 |C3|"),
    "S4wrS4": (24 ** 4 * 24, "|S4|^4 |S4|"),
}
SUBGROUP_CLASSES = {"S4": 11, "A5": 9, "S5": 19, "A6": 22, "S6": 56}
TWO_GENERATED = ("S_n and A_n (n >= 3) are 2-generated (Miller 1901; Coxeter-Moser, "
                 "Generators and Relations, ch. 6); A5 wr C2 is generated by "
                 "((1,2,3,4,5), id; swap) and ((3,4,5), id; 1); each group is "
                 "nonabelian, so d = 2")


def elements(name):
    degree, gens = load_fixture(name)
    return degree, gens, oracles.closure(gens, degree)


def _by_order(elements):
    """Elements by descending order, then ascending: generators are found early."""
    def order(p):
        return len(oracles.closure([p], len(p)))
    return sorted(elements, key=lambda p: (-order(p), p))


def d_metric_value(g_name, h_name):
    """D_H(G) for d(G) = 2 and H proper: 1 iff some (h, g) with h in H generates."""
    degree, _, G = elements(g_name)
    _, _, H = elements(h_name)
    candidates = _by_order(G)
    for h in _by_order(H):
        for g in candidates:
            if oracles.generates([h, g], degree, len(G)):
                return 1, [list(h), list(g)]
    return 0, None


def conj_orbit(sub, gens):
    orbit = {sub}
    frontier = [sub]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = frozenset(mul(mul(inv(g), x), g) for x in s)
                if t not in orbit:
                    orbit.add(t)
                    nxt.append(t)
        frontier = nxt
    return orbit


def maximal_classes(name):
    """Conjugacy classes of maximal subgroups as sorted
    [order, class size, |G : core|, |core|] rows, plus the Frattini order.

    Candidates are the proper subgroups <a, b> (a over class representatives);
    every maximal subgroup of these groups is 2-generated (ATLAS), and each
    candidate's maximality is certified by <M, g> = G for every g outside M.
    Up to order 120 the total is also checked against the exhaustive
    ``oracles.maximal_subgroups``.
    """
    degree, gens, G = elements(name)
    reps = []
    seen = set()
    for a in sorted(G):
        if a not in seen:
            seen |= {mul(mul(inv(g), a), g) for g in G}
            reps.append(a)
    subs = {oracles.closure([a, b], degree) for a in reps for b in G}
    proper = {s for s in subs if len(s) < len(G)}
    everything = set()
    for s in proper:
        everything |= conj_orbit(s, gens)
    candidates = [s for s in everything if not any(s < t for t in everything)]
    rows, classes = [], []
    for m in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        if any(m in orbit for orbit in classes):
            continue
        outside = sorted(G - m)
        if not all(oracles.generates([*_small_gens(m, degree), g], degree, len(G))
                   for g in outside):
            raise AssertionError(f"candidate of order {len(m)} in {name} is not maximal")
        orbit = conj_orbit(m, gens)
        classes.append(orbit)
        core = frozenset.intersection(*orbit)
        rows.append([len(m), len(orbit), len(G) // len(core), len(core)])
    if len(G) <= 120:  # small enough for the exhaustive join-closure oracle
        if len(oracles.maximal_subgroups(G, degree)) != sum(len(o) for o in classes):
            raise AssertionError(f"maximal subgroups of {name} disagree with the oracle")
    frattini = frozenset.intersection(*(s for orbit in classes for s in orbit))
    return sorted(rows), len(frattini)


def _small_gens(sub, degree):
    """A short generating list of a subgroup given as an element set."""
    gens = []
    current = oracles.closure([], degree)
    for x in sorted(sub):
        if x not in current:
            gens.append(x)
            current = oracles.closure(gens, degree)
    return gens


def density(g_name, n_name):
    degree, _, G = elements(g_name)
    _, _, N = elements(n_name)
    odd, even = parse_cycles("(1,2)", degree), tuple(range(degree))
    lifts = {"odd,odd": (odd, odd), "odd,even": (odd, even), "even,odd": (even, odd)}
    favorable = {}
    for key, (l1, l2) in lifts.items():
        favorable[key] = sum(oracles.generates([mul(n1, l1), mul(n2, l2)], degree, len(G))
                             for n1 in sorted(N) for n2 in sorted(N))
    return {"total": len(N) ** 2, "favorable": favorable,
            "source": f"{ORACLE} generates() over every pair in {n_name}^2, one lift "
                      "pair per coset type (the count depends only on the cosets)"}


def main():
    out = {"_about": "Known answers for perfbench, frozen by perfbench/freeze_expected.py; "
                     "none comes from genex.  All are invariant under point relabelling.",
           "order": {k: {"value": v, "source": f"literature: {f}"}
                     for k, (v, f) in sorted(ORDERS.items())}}
    templates = [t for w in WORKLOADS.values() for t in w["templates"]]
    out["d"] = {main: {"value": 2, "source": f"literature: {TWO_GENERATED}"}
                for kind, main, _, _ in templates if kind == "d"}
    out["d_metric"] = {}
    for kind, main, others, _ in templates:
        if kind == "dm":
            value, pair = d_metric_value(main, others[0])
            out["d_metric"][f"{main}/{others[0]}"] = {
                "value": value, "first_pair": pair,
                "source": f"{ORACLE} generates(): a generating (h, g) with h in M; "
                          "d(G) = 2 and M < G bound D_M by 1"}
            print("d_metric", main, others[0], value, flush=True)
    out["lattice"] = {}
    for kind, main, _, _ in templates:
        if kind == "lattice":
            rows, frattini = maximal_classes(main)
            out["lattice"][main] = {
                "classes": SUBGROUP_CLASSES[main], "maximal": rows, "frattini_order": frattini,
                "source": "classes: literature (subgroup class counts of S4, A5, S5, A6, "
                          "S6: 11, 9, 19, 22, 56; Pfeiffer's table of marks library); "
                          f"maximal rows and Frattini order: {ORACLE} closure(), see "
                          "maximal_classes() in freeze_expected.py"}
            print("lattice", main, rows, frattini, flush=True)
    out["density"] = {"S5/A5": density("S5", "A5")}
    print("density", out["density"], flush=True)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

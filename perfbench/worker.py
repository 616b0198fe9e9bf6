"""Answer one paper query in a fresh interpreter.

Usage: python3 perfbench/worker.py --trace 0|1 --fixtures NAME [NAME ...]

Protocol on stdin/stdout, one JSON object per line:
  1. set-up: import genex from the checkout's ``src`` and parse the named
     fixtures through ``grpfmt``; then print ``{"ready": true}``;
  2. read one query line, answer it, print the verdict line (the client
     times the interval between the two);
  3. outside the timed region, if the query asks for it, check that each
     fixture round-trips bit-exactly through ``serialize_group`` and
     ``parse_group_text``; then print a line with that result, the peak RSS
     and, when traced, the spans.
A query that raises is answered with ``{"error": ...}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _imgs(perms):
    return [list(p.imgs) for p in perms]


class Answerer:
    """Runs one query against genex, calling each module through its attribute
    so that a tracer installed on the modules sees the calls."""

    def __init__(self, mods, fixtures):
        self.m = mods
        self.fixtures = fixtures

    def relabel(self, G, sigma, words=()):
        perm = self.m["perm"].Permutation
        sinv = sigma.inverse()
        gens = [sinv * g * sigma for g in G.generators]
        base = list(gens)
        for word in words:
            w = perm.identity(G.degree)
            for i in word:
                w = w * base[i]
            gens.append(w)
        return self.m["group"].Group(gens, G.degree)

    def answer(self, q):
        Permutation = self.m["perm"].Permutation
        sigma = Permutation(q["sigma"])
        G = self.relabel(self.fixtures[q["main"]], sigma, q["words"])
        others = [self.relabel(self.fixtures[o], sigma) for o in q["others"]]
        gensets, structure = self.m["gensets"], self.m["structure"]
        kind = q["kind"]
        if kind == "d":
            rep = gensets.min_generators(G)
            return {"d": rep.d, "witness": _imgs(rep.witness)}
        if kind == "dm":
            rep = gensets.d_metric(G, others[0])
            return {"value": rep.value, "witness": _imgs(rep.witness),
                    "in_subgroup": list(rep.in_subgroup)}
        if kind == "lattice":
            lat = structure.all_subgroups(G)
            maximal = []
            for cls in lat.maximal_classes():
                rep = structure.classify_maximal(G, cls.rep)
                maximal.append([cls.order, cls.size, rep.quotient_order, rep.core.order()])
            return {"classes": len(lat.classes), "maximal": sorted(maximal),
                    "frattini_order": structure.frattini(G).order()}
        if kind == "density":
            rep = gensets.generation_density(G, others[0], [Permutation(p) for p in q["lifts"]])
            return {"favorable": rep.favorable, "total": rep.total}
        if kind == "replacement":
            N, H = others
            got = gensets.replacement_search(G, N, [Permutation(p) for p in q["gens"]],
                                             H.contains)
            return {"pair": None if got is None else _imgs(got)}
        if kind == "chain":
            return {"order": G.order(),
                    "members": [G.contains(Permutation(p)) for p in q["elements"]]}
        raise ValueError(f"unknown query kind {kind!r}")


def _roundtrip_ok(grpfmt, texts) -> bool:
    """parse -> serialize -> parse gives the same generators in the same
    order, and the serialized text equals the fixture without its comments."""
    for text in texts.values():
        g1 = grpfmt.parse_group_text(text)
        out = grpfmt.serialize_group(g1)
        g2 = grpfmt.parse_group_text(out)
        body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
        if out != body or [g.imgs for g in g1.generators] != [g.imgs for g in g2.generators]:
            return False
        if grpfmt.serialize_group(g2) != out:
            return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fixtures", nargs="+", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import genex
    from genex import group, gensets, grpfmt, perm, structure
    if Path(genex.__file__).resolve().parent != SRC / "genex":
        print(f"worker: genex imported from {genex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    mods = {"perm": perm, "group": group, "structure": structure,
            "gensets": gensets, "grpfmt": grpfmt}

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(mods)
        tracer.install()
        setup_span = tracer.open("bench.setup")
    texts = {name: (HERE / "fixtures" / f"{name}.grp").read_text(encoding="utf-8")
             for name in args.fixtures}
    fixtures = {name: grpfmt.parse_group_text(text) for name, text in texts.items()}
    if tracer:
        tracer.close(setup_span)
        tracer.end_setup()
    _emit({"ready": True})

    query = json.loads(sys.stdin.readline())
    if tracer:
        query_span = tracer.open("bench.query")
    try:
        verdict = Answerer(mods, fixtures).answer(query)
    except Exception as exc:  # counted as a failed query by the client
        traceback.print_exc(file=sys.stderr)
        verdict = {"error": f"{type(exc).__name__}: {exc}"}
    if tracer:
        tracer.close(query_span)
        tracer.uninstall()
    _emit(verdict)

    _emit({"roundtrip": _roundtrip_ok(grpfmt, texts) if query.get("roundtrip") else None,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "trace": tracer.export() if tracer else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory tracing of genex entry points, installed from outside the package.

``Tracer.install`` replaces each traced function in every genex module that
binds it, because ``_mul`` and ``_build_chain`` are imported by name into
``group``, ``structure`` and ``gensets``; a wrapper on the defining module
alone would miss those calls.  Methods are wrapped on their class.

Spans are rows ``[name, start, end, parent]`` (parent is a row index, -1 for
a root); the query id is carried by the worker that owns the tracer.  Hot,
tiny entry points are counted instead of spanned: ``perm._mul``/``_inv``
(counts only), ``_Chain.extend`` (count) and ``_Chain.sift`` (count plus
total time).  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
from time import perf_counter

# layer -> (module, attribute) pairs recorded as spans
SPANNED = {
    "group.chain": [("group", "_build_chain"), ("group", "Group.__init__"),
                    ("group", "subgroup_closure")],
    "group.enum": [("group", "Group.elements_raw"), ("group", "Group.conjugacy_classes_raw"),
                   ("group", "coset_action"), ("group", "normal_closure"),
                   ("group", "centralizer_in")],
    "structure": [("structure", "all_subgroups"), ("structure", "classify_maximal"),
                  ("structure", "minimal_normal_subgroups"), ("structure", "is_primitive"),
                  ("structure", "frattini")],
    "gensets": [("gensets", "exists_generating_tuple"), ("gensets", "min_generators"),
                ("gensets", "d_metric"), ("gensets", "generation_density"),
                ("gensets", "replacement_search")],
    "grpfmt": [("grpfmt", "parse_group_text"), ("grpfmt", "serialize_group")],
}


def span_name(mod: str, attr: str) -> str:
    """``group.Group`` for a constructor, ``module.function`` otherwise."""
    cls, _, meth = attr.rpartition(".")
    return f"{mod}.{cls if meth == '__init__' else meth}"


LAYER_OF = {span_name(mod, attr): layer
            for layer, entries in SPANNED.items() for mod, attr in entries}
QUERY_COUNTS = ("perm.mul_calls", "perm.inv_calls", "group.extend_calls", "group.sift_calls",
                "gensets.search_nodes", "gensets.search_pruned", "gensets.density_tuples",
                "gensets.density_favorable", "structure.lattice_classes")


class Tracer:
    """Spans and counters of one worker; ``install`` patches the genex modules."""

    def __init__(self, genex_modules: dict):
        self.mods = genex_modules  # short name -> module object
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(QUERY_COUNTS + ("grpfmt.bytes_parsed",), 0)
        self.sift_s = 0.0
        self.setup_counts = dict(self.counts)
        self.setup_sift_s = 0.0
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    def end_setup(self) -> None:
        """Mark the end of set-up: later counts belong to the query."""
        self.setup_counts = dict(self.counts)
        self.setup_sift_s = self.sift_s

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._observe(name, idx, args, result)
            return result
        return wrapper

    def _observe(self, name, idx, args, result):
        """Counters read from what an entry point returns."""
        c = self.counts
        if name in ("gensets.min_generators", "gensets.d_metric"):
            c["gensets.search_nodes"] += result.stats.nodes
            c["gensets.search_pruned"] += result.stats.pruned
        elif name == "gensets.generation_density":
            c["gensets.density_tuples"] += result.total
            c["gensets.density_favorable"] += result.favorable
        elif name == "structure.all_subgroups":
            parent = self.spans[idx][3]
            if parent >= 0 and self.spans[parent][0] == "bench.query":
                c["structure.lattice_classes"] += len(result.classes)
        elif name == "grpfmt.parse_group_text":
            c["grpfmt.bytes_parsed"] += len(args[0].encode("utf-8"))

    # -- install / uninstall -------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        """Point every genex module's binding of ``original`` at ``new``."""
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        for entries in SPANNED.values():
            for mod, attr in entries:
                owner = self.mods[mod]
                name = span_name(mod, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._replace(cls, meth, self._spanned(name, getattr(cls, meth)))
                else:
                    original = getattr(owner, attr)
                    self._rebind(original, self._spanned(name, original))
        counts = self.counts
        perm = self.mods["perm"]
        mul, inv = perm._mul, perm._inv

        def counted_mul(p, q):
            counts["perm.mul_calls"] += 1
            return mul(p, q)

        def counted_inv(p):
            counts["perm.inv_calls"] += 1
            return inv(p)

        self._rebind(mul, counted_mul)
        self._rebind(inv, counted_inv)

        chain_cls = self.mods["group"]._Chain
        extend, sift = chain_cls.extend, chain_cls.sift

        def counted_extend(chain, p):
            counts["group.extend_calls"] += 1
            return extend(chain, p)

        def timed_sift(chain, p):
            counts["group.sift_calls"] += 1
            t = perf_counter()
            try:
                return sift(chain, p)
            finally:
                self.sift_s += perf_counter() - t

        self._replace(chain_cls, "extend", counted_extend)
        self._replace(chain_cls, "sift", timed_sift)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def export(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                "query_counts": {k: self.counts[k] - self.setup_counts[k] for k in QUERY_COUNTS},
                "query_sift_s": self.sift_s - self.setup_sift_s,
                "bytes_parsed": self.counts["grpfmt.bytes_parsed"]}


def _inclusive(spans, names, wanted, keep):
    """Total duration of the kept spans in ``wanted`` not nested in another one."""
    total = 0.0
    for i, (name_i, a, b, parent) in enumerate(spans):
        if not keep[i] or names[name_i] not in wanted:
            continue
        p = parent
        while p >= 0 and names[spans[p][0]] not in wanted:
            p = spans[p][3]
        if p < 0:
            total += b - a
    return total


# inclusive-time metrics: name -> entry points whose outermost spans are summed
INCLUSIVE = {
    "group.chain_build_s": {"group._build_chain"},
    "group.enum_s": {n for n, layer in LAYER_OF.items() if layer == "group.enum"},
    "group.coset_action_s": {"group.coset_action"},
    "structure.lattice_s": {"structure.all_subgroups"},
    "structure.classify_s": {"structure.classify_maximal"},
    "structure.minimal_normal_s": {"structure.minimal_normal_subgroups"},
    "gensets.search_s": {"gensets.exists_generating_tuple", "gensets.min_generators",
                         "gensets.d_metric"},
    "gensets.replacement_s": {"gensets.replacement_search"},
    "grpfmt.parse_s": {"grpfmt.parse_group_text"},
}


def summarize(exports: list[dict]) -> dict:
    """Per-layer metrics summed over the workers of one traced pass.

    Everything is measured inside the query (the timed region) except the
    ``grpfmt`` metrics, which are measured in set-up, where fixtures are parsed.
    """
    out = {k: 0 for k in QUERY_COUNTS}
    out.update({k: 0.0 for k in INCLUSIVE})
    out.update({f"{layer}.self_s": 0.0 for layer in SPANNED})
    out.update({"group.chain_builds": 0, "group.enum_calls": 0, "group.sift_s": 0.0,
                "grpfmt.bytes_parsed": 0})
    for ex in exports:
        names, spans = ex["names"], ex["spans"]
        for k in QUERY_COUNTS:
            out[k] += ex["query_counts"][k]
        out["group.sift_s"] += ex["query_sift_s"]
        out["grpfmt.bytes_parsed"] += ex["bytes_parsed"]
        root = []
        for i, (_, _, _, parent) in enumerate(spans):
            root.append(i if parent < 0 else root[parent])
        in_query = [names[spans[r][0]] == "bench.query" for r in root]
        for key, wanted in INCLUSIVE.items():
            keep = [True] * len(spans) if key.startswith("grpfmt.") else in_query
            out[key] += _inclusive(spans, names, wanted, keep)
        child_time = [0.0] * len(spans)
        for name_i, a, b, parent in spans:
            if parent >= 0:
                child_time[parent] += b - a
        for i, (name_i, a, b, parent) in enumerate(spans):
            name = names[name_i]
            layer = LAYER_OF.get(name)
            if layer is None or not (in_query[i] or layer == "grpfmt"):
                continue
            out[f"{layer}.self_s"] += (b - a) - child_time[i]
            if name == "group._build_chain":
                out["group.chain_builds"] += 1
            elif layer == "group.enum":
                out["group.enum_calls"] += 1
    nodes = out["gensets.search_nodes"]
    out["gensets.prune_ratio"] = out["gensets.search_pruned"] / nodes if nodes else 0.0
    out["gensets.builds_per_node"] = out["group.chain_builds"] / nodes if nodes else 0.0
    return out

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

from genex.perm import Trace

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# stdlib modules genex computes nothing with; each costs import time in the
# fresh interpreter that answers every query
UNUSED = ("dataclasses", "inspect", "fractions", "decimal", "typing", "random")

PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import genex
from genex import group, gensets, grpfmt, perm, structure
print(sorted(m for m in {UNUSED!r} if m in sys.modules))
A5 = group.Group([perm.parse_permutation(t, 5) for t in ("(1,2,3,4,5)", "(3,4,5)")], 5)
ident = perm.Permutation.identity(5)
rep = gensets.generation_density(A5, A5, (ident, ident))
print("fractions" in sys.modules)
print(type(rep.ratio).__module__, rep.ratio)
"""


def test_import_loads_no_unused_stdlib_module():
    # -S skips site, so only what genex imports is loaded; the density query
    # leaves fractions unloaded until its ratio is read
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["[]", "False", "fractions 19/30"]


# a group's chain and the fields of group._Chain: its levels, tables and
# their encoding
CHAIN_FIELDS = {"_chain", "levels", "tail", "enc", "ident", "one", "mul", "inv"}


def test_only_group_reads_a_chain():
    # structure and gensets name no group's chain and read no chain field
    for name in ("structure", "gensets"):
        tree = ast.parse((SRC / "genex" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in CHAIN_FIELDS, (name, node.lineno, node.attr)


# what builds, extends or hands over a chain: the builder, the chain class
# and the closure loop, whose groups structure and gensets read instead
CHAIN_BUILDERS = {"_build_chain", "_Chain", "_grown", "_normal_closure_chain"}


def test_only_group_builds_a_chain():
    # structure and gensets import no chain builder and pass no chain to
    # subgroup_closure, which takes none
    for name in ("structure", "gensets"):
        tree = ast.parse((SRC / "genex" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert not names & CHAIN_BUILDERS, (name, node.lineno, names & CHAIN_BUILDERS)
            elif isinstance(node, ast.Name):
                assert node.id not in CHAIN_BUILDERS, (name, node.lineno, node.id)
            elif isinstance(node, ast.Call):
                assert all(kw.arg != "chain" for kw in node.keywords), (name, node.lineno)
                if getattr(node.func, "id", None) == "subgroup_closure":
                    assert len(node.args) == 2 and not node.keywords, (name, node.lineno)


# what a group keeps of its answers, and the one module that writes each;
# Group._setup initialises them all
KEPT_BY = {"_minimal_normals": "structure", "_lattice": "structure", "_generation": "gensets"}


def test_only_the_owner_writes_a_kept_answer():
    for path in sorted((SRC / "genex").glob("*.py")):
        tree = ast.parse(path.read_text())
        setup = {id(n) for f in ast.walk(tree)
                 if path.stem == "group" and isinstance(f, ast.FunctionDef) and f.name == "_setup"
                 for n in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and node.attr in KEPT_BY and id(node) not in setup):
                assert KEPT_BY[node.attr] == path.stem, (path.stem, node.lineno, node.attr)


def test_gensets_imports_no_private_name_of_structure():
    # gensets reads structure only through its public functions
    tree = ast.parse((SRC / "genex" / "gensets.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "structure":
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, (node.lineno, private)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "structure":
            assert not node.attr.startswith("_"), (node.lineno, node.attr)


def test_only_build_chain_constructs_a_chain():
    # every chain is one plain Schreier-Sims build: _Chain is constructed
    # only inside group._build_chain, and _build_chain takes a degree and
    # generators, nothing more
    for path in sorted((SRC / "genex").glob("*.py")):
        tree = ast.parse(path.read_text())
        builder = {id(n) for f in ast.walk(tree)
                   if path.stem == "group" and isinstance(f, ast.FunctionDef) and f.name == "_build_chain"
                   for n in ast.walk(f)}
        assert path.stem != "group" or builder
        constructed = 0
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None)
            if name == "_Chain":
                assert id(node) in builder, (path.stem, node.lineno)
                constructed += 1
            elif name == "_build_chain":
                assert len(node.args) <= 2 and not node.keywords, (path.stem, node.lineno)
        assert constructed == (path.stem == "group"), path.stem


def test_each_trace_counter_has_one_site_and_a_reader():
    # every Trace counter is counted by exactly one _count("...") call in
    # genex, and some test reads it, so a count is pinned where it happens
    sites = Counter()
    for path in sorted((SRC / "genex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_count":
                assert len(node.args) == 1 and isinstance(node.args[0], ast.Constant), \
                    (path.stem, node.lineno)
                sites[node.args[0].value] += 1
    assert sites == Counter(Trace.__slots__)
    read = {node.attr for path in TESTS.glob("test_*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert set(Trace.__slots__) <= read, set(Trace.__slots__) - read


# what tests read through a Trace, never by patching (or recording) the name
COUNTED_NOT_PATCHED = {"_build_chain", "_generates"}


def test_no_test_patches_a_counted_function():
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            called = isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in {"setattr", "patch", "object", "record"}:
                names = {arg.value.rpartition(".")[2] for arg in node.args
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
                assert not names & COUNTED_NOT_PATCHED, (path.name, node.lineno)

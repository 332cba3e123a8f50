"""Every module under ``src/evtl`` uses each name it imports, and each private name it defines;
``formulas.fold`` is the one walk that matches on formula node kinds, ``formulas`` the one
module that reads a node's children, and ``FiniteChain`` the one owner of the map from values
to chain states."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "evtl"

# ``bench/run.py`` wraps these two in ``evtl.monitor`` to time them, and its own
# tests require that they exist there, although ``monitor`` itself calls neither
TRACED = {("monitor", "estimate"), ("monitor", "one_sided_wasserstein")}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read in code, in quoted annotations such as ``"Formula"``, and in ``__all__``."""
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            quoted.append(node.value)
    texts = [
        c.value
        for root in quoted
        for c in ast.walk(root)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    trees = [tree, *(ast.parse(t, mode="eval") for t in texts)]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported(tree) - _used(tree) - {n for m, n in TRACED if m == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def _private_definitions(tree: ast.Module):
    """``(name, statement)`` for each module-level ``def _x``, ``class _X`` and ``_X = ...``."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((n, stmt) for n in names if n.startswith("_") and not n.startswith("__"))


def _reads(node: ast.AST) -> set[str]:
    """Names a statement reads: loaded names, attributes and names it imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_private_name_is_read_outside_its_definition():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, stmt in _private_definitions(tree)
        if not any(name in names for other, names in reads if other is not stmt)
    ]
    assert not dead, f"private names that nothing in src/evtl reads: {dead}"


# the node kinds a formula walk dispatches on; an ``isinstance(a, Target)`` check is not a walk
NODE_KINDS = {"Truth", "Not", "Or", "Until"}


def _node_kind_matches(tree: ast.Module):
    """Top-level definitions holding a ``match`` with a class pattern over a node kind."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Match) and any(
                isinstance(p, ast.MatchClass)
                and getattr(p.cls, "id", getattr(p.cls, "attr", None)) in NODE_KINDS
                for case in node.cases
                for p in ast.walk(case.pattern)
            ):
                yield getattr(stmt, "name", "<module>")
                break


def test_formulas_fold_is_the_only_walk_over_node_kinds():
    walks = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _node_kind_matches(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert walks == {"formulas.fold"}, f"write these as an algebra for formulas.fold: {walks}"


# the fields that hold a formula node's children
CHILDREN = {"child", "left", "right"}


def _child_reads(tree: ast.Module):
    """Lines that read a node's children: as an attribute, a ``match`` keyword or a string.

    A string given as a keyword's value, such as ``side="left"``, is an option, not a field.
    """
    options = {id(k.value) for k in ast.walk(tree) if isinstance(k, ast.keyword)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr in CHILDREN
            or isinstance(node, ast.MatchClass) and CHILDREN & set(node.kwd_attrs)
            or isinstance(node, ast.Constant) and node.value in CHILDREN and id(node) not in options
        ):
            yield node.lineno


def test_only_formulas_reads_a_nodes_children():
    readers = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "formulas"
        for line in _child_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not readers, f"walk a formula with formulas.fold, not its fields: {readers}"


# the calls that find a value among sorted states; in chains.py only FiniteChain makes them
STATE_MAPS = {"argsort", "searchsorted"}


def test_finite_chain_is_the_only_value_to_state_map():
    tree = ast.parse((SRC / "chains.py").read_text(encoding="utf-8"))
    outside = {
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        if getattr(stmt, "name", None) != "FiniteChain" and _reads(stmt) & STATE_MAPS
    }
    assert not outside, f"map values to states with FiniteChain.state_index: {sorted(outside)}"

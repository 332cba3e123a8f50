"""Every module under ``src/evtl`` uses each name it imports, and each private name it defines;
``formulas.fold`` is the one walk that matches on formula node kinds, ``formulas`` the one
module that reads a node's children, and ``FiniteChain`` the one owner of the map from values
to chain states, the one reader of its sampler; the exact chain route reads a chain's data
and never its sampler. Only ``Simulation.blocks`` draws a run's noise and steps its paths:
every other reader takes states through ``blocks(width)``, at the one width rule
``simulation._block_width``, only the CLI and ``monitor.check_formula`` build a
``Simulation``, and only ``simulation`` builds an ``EvolutionEstimate``. No command stores
its runs: nothing under ``src/evtl`` calls ``estimate``.
Numeric failures are raised where numbers are made, not around the callers, and the tank
step writes through a mask only in its level clamp. Only ``_io`` opens or decodes a file:
every input file is read by ``_io.read_text``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "evtl"

# ``bench/run.py`` wraps these names in ``evtl.monitor`` and ``evtl.cli`` to time them, and
# its own tests require that they exist there, although neither module calls them; they go
# when the benchmark reads the program's own spans (ROADMAP item 6b)
TRACED = {("monitor", "estimate"), ("monitor", "one_sided_wasserstein"), ("cli", "estimate")}


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


# ``(name, statement)`` for each top-level statement of chains.py; a statement that defines
# nothing is named ``<module>``
CHAINS = [
    (getattr(stmt, "name", "<module>"), stmt)
    for stmt in ast.parse((SRC / "chains.py").read_text(encoding="utf-8")).body
]


def _chain_readers(names: set[str]) -> set[str]:
    """Top-level statements of ``chains.py``, other than ``FiniteChain``, that read ``names``."""
    return {name for name, stmt in CHAINS if name != "FiniteChain" and _reads(stmt) & names}


def test_finite_chain_is_the_only_value_to_state_map():
    # the calls that find a value among sorted states
    outside = _chain_readers({"argsort", "searchsorted"})
    assert not outside, f"map values to states with FiniteChain.state_index: {sorted(outside)}"


# the exact oracles: closed forms from a chain's transition, initial, penalty table and state map
EXACT_ROUTE = [
    "transient_distributions", "_snapped_weights", "_reference_weights", "exact_robustness",
    "_profile", "exact_divergence", "distinguishing_formula",
]


def test_the_exact_chain_route_never_reads_the_sampler():
    outside = _chain_readers({"_cdf", "_values"})
    assert not outside, f"only FiniteChain reads its sampler's arrays: {sorted(outside)}"
    defs = dict(CHAINS)
    readers = [name for name in EXACT_ROUTE if _reads(defs[name]) & {"advance", "noise", "_cdf"}]
    assert not readers, f"the exact route must not share the estimators' code: {readers}"


# how runs are drawn and stepped, and the functions that may read each; every other reader
# takes states through ``blocks(width)``, and a range of runs is a ``Simulation``
SIMULATION_INTERNALS = {
    "_run_noise": {"simulation.Simulation.blocks"},
    "_paths": {"simulation.Simulation.blocks"},
}


def _functions(node: ast.AST, name: str):
    """``(qualified name, definition)`` for each function under ``node``, methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{name}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield qualified, child
            yield from _functions(child, qualified)
        else:
            yield from _functions(child, name)


def test_only_simulation_draws_and_steps_runs():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    importers = {
        module
        for module, tree in trees.items()
        if module != "simulation" and SIMULATION_INTERNALS.keys() & _reads(tree)
    }
    assert not importers, f"read states as a Simulation's blocks(width): {sorted(importers)}"
    functions = [item for module, tree in trees.items() for item in _functions(tree, module)]
    for internal, allowed in SIMULATION_INTERNALS.items():
        readers = {name for name, fn in functions if internal in _reads(fn)}
        assert readers == allowed, f"{internal} is read by {sorted(readers)}"


def _top_level(path: Path):
    """``(module.name, statement)`` for each top-level statement; an assignment is named by
    its first target, anything else unnamed by ``<module>``."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [t.id for t in getattr(stmt, "targets", []) if isinstance(t, ast.Name)]
        yield f"{path.stem}.{getattr(stmt, 'name', None) or next(iter(targets), '<module>')}", stmt


def _mentions(stmt: ast.AST) -> set[str]:
    """Names a statement reads or binds."""
    return _reads(stmt) | {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}


# every reader of runs, stored or simulated, sizes its blocks by this rule
BLOCK_READERS = {
    "simulation.estimate",
    "simulation.run_moments",
    "monitor.evaluate",
    "wasserstein.evolution_divergence",
    "stats.error_reports",
}


def test_simulation_owns_the_one_block_width_rule():
    statements = [item for path in sorted(SRC.glob("*.py")) for item in _top_level(path)]
    owners = {name for name, stmt in statements if "_BLOCK_VALUES" in _mentions(stmt)}
    assert owners == {"simulation._BLOCK_VALUES", "simulation._block_width"}, owners
    readers = {name for name, stmt in statements if "_block_width" in _reads(stmt)}
    # monitor, stats and wasserstein also import it at module level
    imports = {"monitor.<module>", "stats.<module>", "wasserstein.<module>"}
    assert readers - imports == BLOCK_READERS, readers


# where numbers are made (a kernel step, a penalty score, the reference run sum), and the CLI
ERRSTATE_SITES = {
    "cli.main",
    "simulation._paths",
    "simulation.run_moments",
    "spaces.Penalty.project",
}


def _sites(node: ast.AST, name: str, found):
    """Qualified names of the definitions under ``node`` that hold a node ``found`` accepts;
    a node outside any definition is in ``<module>``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _sites(child, f"{name}.{child.name}", found)
            continue
        if found(child):
            yield name
        yield from _sites(child, name, found)


def _sites_in_src(found) -> set[str]:
    return {
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    }


def _named(node: ast.AST) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def test_numeric_failures_are_raised_where_numbers_are_made():
    sites = _sites_in_src(lambda node: _named(node) in {"errstate", "seterr"})
    assert sites == ERRSTATE_SITES, f"raise numeric failures where they happen: {sorted(sites)}"


def test_only_the_cli_and_check_formula_build_a_simulation():
    # every other reader takes the runs it reads as a source; ``replace`` of one is no build
    builders = _sites_in_src(
        lambda node: isinstance(node, ast.Call) and _named(node.func) == "Simulation"
    )
    outside = {site for site in builders if not site.startswith("cli.")}
    assert outside <= {"monitor.check_formula"}, f"take a Simulation, do not build one: {outside}"


def test_only_simulation_builds_a_stored_estimate():
    # the (steps+1, runs, dim) layout is one module's; a reader takes a stored
    # estimate's runs through ``split`` and ``blocks``, as it takes a Simulation's
    builders = _sites_in_src(
        lambda node: isinstance(node, ast.Call) and _named(node.func) == "EvolutionEstimate"
    )
    outside = {site for site in builders if not site.startswith("simulation.")}
    assert not outside, f"take an estimate's runs with split(n), do not build one: {outside}"


def test_no_command_stores_its_runs():
    # every reader takes a run source a block at a time; a stored estimate is library API
    callers = _sites_in_src(
        lambda node: isinstance(node, ast.Call) and _named(node.func) == "estimate"
    )
    assert not callers, f"read the runs as a Simulation's blocks, do not store them: {callers}"


def test_only_io_opens_or_decodes_a_file():
    # one decoder, one BOM rule and one line-end rule for every input file: _io.read_text
    readers = _sites_in_src(
        lambda node: isinstance(node, ast.Call) and _named(node.func) in {"open", "decode"}
    )
    outside = {site for site in readers if not site.startswith("_io.")}
    assert not outside, f"read input files with _io.read_text: {sorted(outside)}"


def test_the_tank_step_masks_only_its_level_clamp():
    # a mixed mask mispredicts a branch per value: the controller is a sign times
    # the step and the flow clamp is fmax and fmin; only the level clamp, whose
    # masks are mostly false, writes the level rows ``lv`` through a mask
    tree = ast.parse((SRC / "tanks.py").read_text(encoding="utf-8"))
    advance = dict(_functions(tree, "tanks"))["tanks.TankKernel.advance"]
    calls = [n for n in ast.walk(advance) if isinstance(n, ast.Call)]
    wheres = [c.lineno for c in calls if getattr(c.func, "attr", None) == "where"]
    assert not wheres, f"TankKernel.advance calls np.where on lines {wheres}"
    masked = [
        c.lineno
        for c in calls
        if getattr(c.func, "attr", None) == "copyto"
        and any(k.arg == "where" for k in c.keywords)
        and not (c.args and getattr(c.args[0], "id", None) == "lv")
    ]
    assert not masked, f"TankKernel.advance writes through a mask on lines {masked}"

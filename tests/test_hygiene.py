"""Source hygiene of the package: no module imports a name it never uses,
no function binds a local it never reads,
no private top-level helper, no ``Graph`` method and no dataclass field
is left unread,
``ipfkit.__all__`` lists
exactly what ``__init__`` imports (and its ``__version__``), every
per-graph cache goes through ``graph.per_graph``, the compiled kernel's
section map names exactly the paragraphs of its Python twin's docstring,
every option of a CLI subcommand is read by its handler, and the tools
import nothing but the standard library and ipfkit."""

import argparse
import ast
import json
import re
import sys
from pathlib import Path

import pytest

import ipfkit
from ipfkit import Graph, cli, ipf_cubic, write_graph6
from ipfkit.families import petersen

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "ipfkit"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line it is bound on;
    ``from __future__`` imports bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, and the string entries of its ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", sorted((ROOT / "tools").glob("*.py")),
                         ids=lambda p: p.name)
def test_tools_import_only_the_standard_library_and_ipfkit(path):
    # pyproject.toml declares no dependency, so a tool that imports a
    # third-party module does not run in an installed checkout
    tree = ast.parse(path.read_text(), str(path))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    foreign = {name for name in modules if name.split(".")[0]
               not in sys.stdlib_module_names | {"ipfkit"}}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def target_names(node: ast.expr):
    """The names an assignment target binds, through tuple unpacking."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from target_names(elt)
    elif isinstance(node, ast.Starred):
        yield from target_names(node.value)


def own_nodes(fn: ast.AST):
    """The nodes of fn's body that are not inside a nested function, lambda
    or class, which bind names of their own scope."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def bound_locals(fn: ast.AST):
    """(name, line) for each name an assignment, a loop or comprehension
    target or a ``with`` target binds in fn's own body."""
    for node in own_nodes(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            targets = [node.target] if node.value is not None else []
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            targets = [node.target]
        elif isinstance(node, ast.withitem):
            targets = [node.optional_vars] if node.optional_vars else []
        else:
            continue
        for target in targets:
            for name in target_names(target):
                yield name, getattr(node, "lineno", target.lineno)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tools").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_local_is_read(path):
    # a local counts as read when the function or a function nested in it
    # loads it; _names and names declared global or nonlocal are exempt
    tree = ast.parse(path.read_text(), str(path))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read |= {name for node in own_nodes(fn)
                 if isinstance(node, (ast.Global, ast.Nonlocal))
                 for name in node.names}
        unread += [f"{fn.name}:{name} (line {line})"
                   for name, line in bound_locals(fn)
                   if not name.startswith("_") and name not in read]
    assert not unread, f"{path.name} binds locals it never reads: {unread}"


def test_every_private_helper_is_read():
    # a top-level _name function or class counts as read when some module
    # of the package loads it by name or as an attribute; importing it
    # alone does not count
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= used_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
    orphans = [f"{name}:{node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and node.name not in read]
    assert not orphans, f"private helpers nothing reads: {orphans}"


def test_every_graph_method_is_read():
    # a non-dunder method of Graph counts as read when the package, the
    # tools or the benchmark load it as an attribute; the tests do not
    # count, so a method kept only for them is found
    graph_class = next(
        node for node in ast.parse((SRC / "graph.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "Graph")
    methods = {node.name for node in graph_class.body
               if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))}
    read = {node.attr
            for root in ("src", "tools", "perfbench")
            for path in sorted((ROOT / root).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute)}
    assert methods and not methods - read, \
        f"Graph methods nothing reads: {sorted(methods - read)}"


def dataclass_fields():
    """(class name, field name) for each field of a dataclass in the
    package: an annotated name in the body of a class decorated with
    ``dataclass`` or ``dataclass(...)``."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in cls.decorator_list):
                yield from ((cls.name, node.target.id) for node in cls.body
                            if isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name))


def test_every_dataclass_field_is_read():
    # a field counts as read when the package or the benchmark loads it as
    # an attribute; the tests do not count, so a field that only a test
    # reads is found.  LadderDecomposition goes with the tracer-only code
    # that wraps it
    read = {node.attr
            for root in ("src", "perfbench")
            for path in sorted((ROOT / root).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = list(dataclass_fields())
    unread = [f"{cls}.{name}" for cls, name in fields
              if cls != "LadderDecomposition" and name not in read]
    assert fields and not unread, f"dataclass fields nothing reads: {unread}"


def test_all_lists_what_init_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assigned = {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert set(ipfkit.__all__) == \
        set(imported_names(tree)) | (assigned - {"__all__"})


def test_per_graph_caches_share_one_memo():
    # Graph has no slot for another cache, and no module but graph.py
    # reads or writes the memo, so a new cache has to be a per_graph
    # function
    assert Graph.__slots__ == ("n", "edges", "adj", "adj_mask", "_memo")
    touching = [path.name for path in sorted(SRC.glob("*.py"))
                if path.name != "graph.py" and any(
                    isinstance(node, ast.Attribute) and node.attr == "_memo"
                    for node in ast.walk(ast.parse(path.read_text())))]
    assert not touching, f"modules that touch Graph._memo: {touching}"


def builder_sites(node: ast.AST, scope: str = "<module>"):
    """The scope (a function's qualified name, or "<module>") of each
    place under node that names ``_build``: read as a name or an
    attribute, or imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from builder_sites(child, child.name if scope == "<module>"
                                     else f"{scope}.{child.name}")
            continue
        name = (child.id if isinstance(child, ast.Name)
                else child.attr if isinstance(child, ast.Attribute)
                else child.name if isinstance(child, ast.alias) else None)
        if name == "_build":
            yield scope
        yield from builder_sites(child, scope)


def test_only_derivations_skip_graph_validation():
    # graph._build fills a Graph without Graph.__init__'s checks; only
    # __init__, after its checks, and the three derivations from an
    # already validated graph may call it, so outside input cannot skip them
    sites = {(path.relative_to(ROOT).as_posix(), site)
             for root in ("src", "tools", "perfbench", "tests")
             for path in sorted((ROOT / root).rglob("*.py"))
             for site in builder_sites(ast.parse(path.read_text(), str(path)))}
    assert sites == {("src/ipfkit/graph.py", "Graph.__init__"),
                     ("src/ipfkit/graph.py", "Graph.induced_subgraph"),
                     ("src/ipfkit/graph.py", "parse_graph6"),
                     ("src/ipfkit/surgery.py", "<module>"),  # its import
                     ("src/ipfkit/surgery.py", "suppress_vertex")}


def test_kernel_section_map_matches_the_twin_docstring():
    # each quoted name in the map of _kernel_c.c's header comment heads a
    # paragraph of _kernel_py's docstring, and each such heading but the
    # opening "State:" is in the map, so a deleted rule leaves no stale
    # entry and a new one gets its entry
    header = (SRC / "_kernel_c.c").read_text().split("*/", 1)[0]
    mapped = [name for line in header.splitlines()
              if re.match(r" \*   \S", line)
              for name in re.findall(r'"([^"]+)"', line)]
    doc = ast.get_docstring(ast.parse((SRC / "_kernel_py.py").read_text()))
    headings = [m.group(1) for para in doc.split("\n\n")
                if (m := re.match(r"([A-Z][\w -]*):", para))]
    assert headings[0] == "State" and len(set(mapped)) == len(mapped)
    assert set(mapped) == set(headings[1:]), \
        f"map only: {set(mapped) - set(headings)}; " \
        f"docstring only: {set(headings[1:]) - set(mapped)}"


class RecordingNamespace(argparse.Namespace):
    """A parsed namespace that records the attributes read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# runs of each subcommand on small valid inputs that together pass every
# option it declares; GRAPH, CERT and OUT stand for files made per test
OPTION_RUNS = {
    "solve": [["--input", "GRAPH", "--format", "graph6", "--output", "OUT",
               "--json", "--stable", "--nodes", "0", "--budget", "30"]],
    "construct": [["--input", "GRAPH", "--format", "graph6",
                   "--output", "OUT", "--json", "--stable"]],
    "verify": [["--input", "CERT", "--output", "OUT", "--json",
                "--stable"]],
    "generate": [["--family", "triangle_ring", "--params", "n=9",
                  "--format", "adjlist", "--output", "OUT", "--json",
                  "--stable"]],
    "census": [["--input", "GRAPH", "--mode", "both", "--jobs", "1",
                "--nodes", "0", "--budget", "30", "--output", "OUT",
                "--json", "--stable"]],
    # --ck and --tree exclude each other, so each gets a run
    "bounds": [["--ck", "3", "--output", "OUT", "--json", "--stable"],
               ["--tree", "3", "2", "--output", "OUT", "--json",
                "--stable"]],
}


def subparsers() -> dict:
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_option_runs_name_every_subcommand():
    assert set(OPTION_RUNS) == set(subparsers())


@pytest.mark.parametrize("command", sorted(OPTION_RUNS))
def test_every_option_is_read(tmp_path, command):
    """Each option a subcommand declares is read by its handler when it is
    given: an option nothing reads would be accepted and then ignored."""
    graph = tmp_path / "graph.g6"
    graph.write_text(write_graph6(petersen()) + "\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(ipf_cubic(petersen()).to_json()))
    files = {"GRAPH": str(graph), "CERT": str(cert),
             "OUT": str(tmp_path / "out")}
    sub = subparsers()[command]
    options = {s: a.dest for a in sub._actions if a.dest != "help"
               for s in a.option_strings}
    declared, passed, read = set(options.values()), set(), set()
    for run in OPTION_RUNS[command]:
        argv = [command] + [files.get(word, word) for word in run]
        passed |= {options[word] for word in argv if word in options}
        args = cli.build_parser().parse_args(argv,
                                             namespace=RecordingNamespace())
        args._reads.clear()  # parsing reads the defaults it sets
        assert args.fn(args) == cli.EXIT_OK
        read |= args._reads
    assert passed == declared, f"options no run passes: {declared - passed}"
    assert not declared - read, \
        f"{command} never reads its options {sorted(declared - read)}"

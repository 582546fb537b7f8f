"""Source hygiene of the package: no module imports a name it never uses,
no private top-level helper is left unread, ``ipfkit.__all__`` lists
exactly what ``__init__`` imports (and its ``__version__``), and every
option of a CLI subcommand is read by its handler."""

import argparse
import ast
import json
from pathlib import Path

import pytest

import ipfkit
from ipfkit import cli, ipf_cubic, write_graph6
from ipfkit.families import petersen

SRC = Path(__file__).parents[1] / "src" / "ipfkit"


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


def test_all_lists_what_init_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assigned = {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert set(ipfkit.__all__) == \
        set(imported_names(tree)) | (assigned - {"__all__"})


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
    # --ck and --tree each select the bound, so each gets a run
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

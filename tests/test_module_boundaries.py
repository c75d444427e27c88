"""No spde module reaches into another spde module's private names."""

import ast
import pathlib

import spde

SRC = pathlib.Path(spde.__file__).parent

# benchmark/tracer.py wraps solver._advance_block by name, so diagnostics
# steps through it until a benchmark change renames it
ALLOWED = {("solver", "_advance_block")}


def private_uses(source):
    """(line, module, name) for each `<alias>._name` where <alias> is an
    imported spde module, and each private name imported from one."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "spde"):
            for a in node.names:
                if node.module in (None, "spde"):
                    modules[a.asname or a.name] = a.name
                elif a.name.startswith("_"):
                    found.append((node.lineno, node.module.split(".")[-1], a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("spde.") and a.asname:
                    modules[a.asname] = a.name.split(".")[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return found


def test_no_module_calls_another_modules_private_names():
    bad = [f"{path.name}:{line}: {mod}.{name}"
           for path in sorted(SRC.glob("*.py"))
           for line, mod, name in private_uses(path.read_text())
           if (mod, name) not in ALLOWED]
    assert bad == []


def test_private_use_check_sees_each_import_form():
    source = ("from . import solver as sv\n"
              "from .noise import _private\n"
              "import spde.basis as sb\n"
              "sv._advance_block(); sv.run_blocks(); sb._coeffs_of(0); sv.__name__\n")
    assert private_uses(source) == [(2, "noise", "_private"),
                                    (4, "solver", "_advance_block"),
                                    (4, "basis", "_coeffs_of")]

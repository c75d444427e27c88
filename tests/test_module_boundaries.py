"""No spde module reaches into another spde module's private names, and
every public module-level name has a caller in the package."""

import ast
import pathlib

import spde

SRC = pathlib.Path(spde.__file__).parent

ALLOWED = set()

# public names kept without a caller in src/, each for a reader outside it
UNCALLED = {
    ("noise", "coarsen"): "the path-level reference coarsen_chunk is tested against",
    ("models", "ZOO"): "the well-posed models the tests and benchmark sweep",
    ("models", "FIXTURES"): "the audit fixtures the tests and benchmark sweep",
    ("solver", "solve_ensemble"): "the benchmark tracer wraps it by name, and the "
                                  "tests use it as the reference ensemble",
}


def module_aliases(tree):
    """{local name: spde module} for `from . import m as x` and
    `import spde.m as x`, and (line, module, name, local name) for each
    name imported from a module (`from .m import name as local`)."""
    modules, imports = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "spde"):
            for a in node.names:
                if node.module in (None, "spde"):
                    modules[a.asname or a.name] = a.name
                else:
                    imports.append((node.lineno, node.module.split(".")[-1], a.name,
                                    a.asname or a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("spde.") and a.asname:
                    modules[a.asname] = a.name.split(".")[-1]
    return modules, imports


def private_uses(source):
    """(line, module, name) for each `<alias>._name` where <alias> is an
    imported spde module, and each private name imported from one."""
    tree = ast.parse(source)
    modules, imports = module_aliases(tree)
    found = [(line, mod, name) for line, mod, name, _ in imports if name.startswith("_")]
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


def public_definitions(tree):
    """Public module-level functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def loaded_names(module, tree):
    """(module, name) for each load of a module-level name: a bare name
    of this module or one imported from another, or `<alias>.name`."""
    modules, imports = module_aliases(tree)
    imported = {local: mod for _, mod, _, local in imports}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((imported.get(node.id, module), node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


def uncalled(sources):
    """Public names of `sources` ({module: source}) that no module loads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set().union(*(loaded_names(mod, tree) for mod, tree in trees.items()))
    return sorted((mod, name) for mod, tree in trees.items()
                  for name in public_definitions(tree) if (mod, name) not in used)


def test_every_public_name_has_a_caller():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert uncalled(sources) == sorted(UNCALLED)


def test_caller_check_sees_each_use():
    sources = {
        "a": ("LIMIT = 3\nUNUSED = 4\n"
              "def helper():\n    return LIMIT\n"
              "def orphan():\n    pass\n"
              "class Thing:\n    pass\n"
              "def _private():\n    pass\n"),
        "b": ("from . import a as x\nfrom .a import Thing\n"
              "def run():\n    return x.helper(), Thing\n"),
        "c": "from . import b\nb.run()\n",
    }
    assert uncalled(sources) == [("a", "UNUSED"), ("a", "orphan")]

"""Static checks on the library source: no import or private module-level
name is left behind that nothing uses, every name a module exports is
bound in it, and no module imports a package only the tests need."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "biharm"


def _imports(tree):
    """(module imported from or None, imported name, bound name) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield None, a.name, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield node.module, a.name, a.asname or a.name


def _read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree):
    """Module-level names bound by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _defined_private(tree):
    """Module-level names of the form _name bound by def, class or assignment."""
    return (name for name in _defined(tree)
            if name.startswith("_") and not name.startswith("__"))


def _outside_reads(module, trees):
    """Names of `module` read from the other modules: module.name, or imported."""
    out = set()
    for other, tree in trees.items():
        if other == module:
            continue
        out |= {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == module}
        out |= {name for source, name, _ in _imports(tree)
                if source is not None and source.split(".")[-1] == module}
    return out


def test_no_unused_imports_or_private_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        # every import is read in its module or listed in its __all__
        read = _read_names(tree)
        unused += [f"{module}: import {bound}" for _, _, bound in _imports(tree)
                   if bound not in read | _exported(tree)]
        # every private module-level name is read in its module or from another
        read |= _outside_reads(module, trees)
        unused += [f"{module}: {name}" for name in _defined_private(tree) if name not in read]
    assert not unused


def test_exported_names_are_bound():
    # a name in __all__ that its module no longer binds is skipped without a
    # word by anything that walks __all__, such as the benchmark's tracer
    unbound = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set(_defined(tree)) | {name for _, _, name in _imports(tree)}
        unbound += [f"{path.stem}: {name}" for name in sorted(_exported(tree) - bound)]
    assert not unbound


def test_only_quad_calls_fsum():
    # every exact sum of the library goes through quad, whose certified
    # split gives math.fsum's value and falls back to math.fsum itself; but
    # specfun._exp1 sums its two dozen series terms by math.fsum: specfun
    # sits below quad, and the split took its scalar call from 6 to 14 us
    own_fsum = {("specfun", "_exp1")}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "quad":
            continue
        tree = ast.parse(path.read_text())
        calls += [f"{path.stem}: line {node.lineno}" for top in tree.body
                  if (path.stem, getattr(top, "name", None)) not in own_fsum
                  for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "fsum"]
        calls += [f"{path.stem}: import {name}" for source, name, _ in _imports(tree)
                  if source == "math" and name == "fsum"]
    assert not calls


def test_library_imports_no_test_package():
    # pytest, hypothesis and mpmath are test dependencies only: the library
    # depends on numpy alone
    test_only = {"pytest", "hypothesis", "mpmath"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}: {source or name}" for source, name, _ in _imports(tree)
                  if (source or name).split(".")[0] in test_only]
    assert not found

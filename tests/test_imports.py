"""Every name a module imports is used there, except the ones on ALLOWED, and
only the command line imports argparse or the command line."""
import ast
import pathlib

import egsolve

PACKAGE = pathlib.Path(egsolve.__file__).parent

# (module, name): imported but unused, because perfbench/layers.py patches
# these module attributes by name in its traced mode
ALLOWED = {
    ("cli", "ThreadPoolExecutor"),
    ("cli", "spectral_norm"),
    ("solver", "gamma"),
    ("solver", "omega"),
}


def _unused_imports(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def _imported(path: pathlib.Path) -> set:
    """The first component of every module and name a module imports, the
    package prefix dropped: 'from .cli import main' gives 'cli'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    full = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            full |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            full |= {base} | {f"{base}.{a.name}".lstrip(".") for a in node.names}
    return {n.removeprefix("egsolve.").split(".")[0] for n in full}


def test_only_cli_imports_cli_or_argparse():
    # the library, experiments included, never reaches back into the command line
    importers = {p.stem for p in PACKAGE.glob("*.py") if _imported(p) & {"cli", "argparse"}}
    assert importers == {"cli"}


def test_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert len(modules) >= 6
    unused = {(p.stem, name) for p in modules for name in _unused_imports(p)}
    assert unused - ALLOWED == set(), "imported but never used"
    # an allowed name that is gone or now used leaves the list stale
    assert ALLOWED - unused == set(), "stale ALLOWED entries"

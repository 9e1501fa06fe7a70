"""Every name an import binds in the package and its tests is read there, and
every private module-level name of the package is read in the package."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """``line name`` for each name an import in ``path`` binds and the file
    never reads. ``__future__`` imports and names listed in ``__all__`` are
    exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{line} {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_every_imported_name_is_read():
    files = [*sorted((ROOT / "src" / "sliceseg").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    unused = {str(p.relative_to(ROOT)): names for p in files if (names := _unused_imports(p))}
    assert unused == {}


def _unread_private_names(path: Path, read: set[str]) -> list[str]:
    """``line name`` for each private name a top-level ``def``, ``class`` or
    assignment in ``path`` binds that is not in ``read``; dunder names are
    exempt."""
    bound = {}
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return [f"{line} {name}" for name, line in bound.items() if name not in read]


def _names_read(path: Path) -> set[str]:
    """Names ``path`` reads, bare or as an attribute (``module._name``)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_module_level_private_name_is_read_in_the_package():
    # a helper whose last caller was deleted would otherwise linger unseen
    files = sorted((ROOT / "src" / "sliceseg").glob("*.py"))
    read = set().union(*map(_names_read, files))
    orphans = {str(p.relative_to(ROOT)): names for p in files
               if (names := _unread_private_names(p, read))}
    assert orphans == {}

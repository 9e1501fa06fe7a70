"""Every name an import binds in the package and its tests is read there."""
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

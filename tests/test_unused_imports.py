"""No module or test imports a name it never uses."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(path: str) -> list[str]:
    """Imported names that appear nowhere as an ast.Name or ast.arg."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return sorted(imported - used)


def test_no_unused_imports():
    # the package's __init__.py imports only to re-export
    paths = glob.glob(os.path.join(ROOT, "src", "qaw", "*.py"))
    paths = [p for p in paths if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(ROOT, "tests", "*.py"))
    found = {}
    for path in sorted(paths):
        names = unused_imports(path)
        if names:
            found[os.path.relpath(path, ROOT)] = names
    assert found == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom a import b, c as d\n\ndef f(b):\n    return d\n")
    assert unused_imports(str(src)) == ["os"]

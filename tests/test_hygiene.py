import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpverify"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nprint(sys.argv)\n") == [
        "os",
        "c",
    ]
    assert unused_imports("from . import pure\nf = pure.f\n") == []


def test_no_unused_module_imports():
    unused = {
        str(path.relative_to(PACKAGE)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}

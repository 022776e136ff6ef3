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


# defaulted parameters kept although no call in the package passes them:
# the entry point's argv, and the truncation degree of the reference
# evaluator that the law tests and the benchmark tracer call
UNSET_ALLOWED = {("cli.py", "main", "argv"), ("termops.py", "bivector_eval", "maxdeg")}


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unset_parameters(sources):
    """Defaulted parameters that no call in ``sources`` passes.

    ``sources`` maps a file name to its text.  A call matches every
    definition of the called name, a class-name call reaches
    ``__init__``, and a parameter counts as passed by keyword or by
    position (the first parameter of a method is bound by the instance).
    Returns ``(file, function, parameter)`` triples.
    """
    defaulted = []  # (file, function, called name, parameter, position or None)
    passed = {}  # called name -> (largest positional count, keywords)
    for fname, text in sources.items():
        tree = ast.parse(text)
        methods = {
            item: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                params = node.args.posonlyargs + node.args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                )
                if node in methods and not static:
                    params = params[1:]
                called = methods[node] if node.name == "__init__" else node.name
                first = len(params) - len(node.args.defaults)
                for pos, arg in enumerate(params[first:], first):
                    defaulted.append((fname, node.name, called, arg.arg, pos))
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        defaulted.append((fname, node.name, called, arg.arg, None))
            elif isinstance(node, ast.Call) and (name := _called_name(node.func)):
                npos, keywords = passed.get(name, (0, set()))
                if any(isinstance(a, ast.Starred) for a in node.args):
                    npos = float("inf")
                npos = max(npos, len(node.args))
                for kw in node.keywords:
                    keywords.add(kw.arg)  # None stands for **kwargs
                passed[name] = (npos, keywords)
    unset = set()
    for fname, function, called, param, pos in defaulted:
        npos, keywords = passed.get(called, (0, set()))
        by_position = pos is not None and pos < npos
        if not (by_position or param in keywords or None in keywords):
            unset.add((fname, function, param))
    return unset


def test_scan_flags_an_unset_default():
    source = (
        "def f(a, b=1, c=2):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, z=1, *, w=2):\n        pass\n"
        "f(1, 2)\nK(1, y=3).m(w=0)\n"
    )
    assert unset_parameters({"s.py": source}) == {("s.py", "f", "c"), ("s.py", "m", "z")}


def test_every_defaulted_parameter_is_passed_somewhere():
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert unset_parameters(sources) == UNSET_ALLOWED

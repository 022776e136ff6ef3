import ast
import functools
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpverify"
PERFBENCH = ROOT / "perfbench"


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


def dataclasses_imports(source):
    """Lines of every import of ``dataclasses``, at any depth.

    The package's record types are ``collections.namedtuple`` classes:
    importing ``dataclasses`` costs each process about 10 ms.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(
                node.lineno for alias in node.names if alias.name.split(".")[0] == "dataclasses"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(node.lineno)
    return found


def test_scan_flags_a_dataclasses_import():
    source = (
        "import os, dataclasses\n"
        "from dataclasses import field\n"
        "from collections import namedtuple\n"
        "def f():\n    import dataclasses as dc\n"
    )
    assert dataclasses_imports(source) == [1, 2, 5]


def test_no_dataclasses_import():
    found = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := dataclasses_imports(path.read_text()))
    }
    assert found == {}


def lazy_registrations(source):
    """Names passed to a module-level ``_register_lazily(...)`` call."""
    return [
        arg.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and _called_name(node.value.func) == "_register_lazily"
        for arg in node.value.args
    ]


def unimported_registrations(sources):
    """Modules that ``__init__.py`` registers lazily but no module imports.

    ``sources`` maps a file name to its text.  A registered module that
    no ``from . import`` line binds is read by no code, as an unused
    import is.
    """
    imported = {
        alias.name
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    return [name for name in lazy_registrations(sources["__init__.py"]) if name not in imported]


def test_scan_flags_an_unimported_registration():
    sources = {
        "__init__.py": "_register_lazily('kept', 'dropped')\nprint('x')\n",
        "a.py": "from . import kept\nfrom .dropped import f\n",
    }
    assert unimported_registrations(sources) == ["dropped"]


def test_every_module_but_cli_is_registered_and_imported():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(lazy_registrations(sources["__init__.py"])) == sorted(
        name.removesuffix(".py") for name in sources if name not in ("__init__.py", "cli.py")
    )
    assert unimported_registrations(sources) == []


def function_imports(source):
    """``(line, module)`` of every import made inside a function body.

    ``unused_imports`` reads module-level imports only, so an import in a
    function would escape it.
    """
    tree = ast.parse(source)
    inside = {
        id(n)
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) not in inside:
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


def test_scan_flags_an_import_inside_a_function():
    source = (
        "import os\n"
        "def f():\n    import sys, json\n"
        "    def g():\n        from . import x\n"
        "    return sys\n"
        "class K:\n    import re\n"
        "    def m(self):\n        from a.b import c\n"
    )
    assert function_imports(source) == [(3, "json"), (3, "sys"), (5, "."), (10, "a.b")]


def test_no_imports_inside_functions():
    found = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := function_imports(path.read_text()))
    }
    assert found == {}


# defaulted parameters kept although no call in the package passes them:
# the entry point's argv
UNSET_ALLOWED = {("cli.py", "main", "argv")}


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


def _read_names(tree):
    """Every name that ``tree`` loads, bare or as an attribute, by node."""
    return [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def unread_definitions(sources):
    """Definitions whose name no source reads outside the definition's body.

    ``sources`` maps a file name to its text.  Scanned are module-level
    functions and classes and the non-dunder methods of module-level
    classes; a name is read where it is loaded bare (``f``) or as an
    attribute (``m.f``, ``obj.f``).  A method that shares its name with a
    method of another class, or with any other name read anywhere, is not
    seen by the scan, since it cannot tell whose attribute a read
    reaches: ``MultiTensor.sub`` and ``GroupBivector.is_zero`` once hid
    behind same-named methods of a polyvector field class and were
    found by a line trace of the suites instead.  Returns ``module.name`` and
    ``module.Class.name`` strings.
    """
    trees = {fname: ast.parse(text) for fname, text in sources.items()}
    defs = []  # (qualified name, definition node)
    for fname, tree in trees.items():
        module = fname.removesuffix(".py").replace("/", ".")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (f"{module}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    reads = [read for tree in trees.values() for read in _read_names(tree)]
    unread = []
    for qualname, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(name == node.name and id(n) not in inside for n, name in reads):
            unread.append(qualname)
    return unread


def test_scan_flags_an_unread_definition():
    source = (
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class K:\n"
        "    def __init__(self):\n        self.kept = 1\n"
        "    def kept(self):\n        pass\n"
        "    def dropped(self):\n        return self.dropped\n"
        "used()\nK().kept\n"
    )
    assert unread_definitions({"pkg/s.py": source}) == [
        "pkg.s.recursive",
        "pkg.s.K.dropped",
    ]


# reference evaluators, the truncation reference and the backend listing,
# kept for the benchmark (perfbench/tracer.py and the probe in
# perfbench/run.py read them)
UNREAD_ALLOWED = [
    "termops.backends", "termops.kveval", "termops.bivector_eval", "termops.ptruncate",
]


def test_every_definition_is_read_somewhere():
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert sorted(unread_definitions(sources)) == sorted(UNREAD_ALLOWED)


def test_perfbench_still_reads_every_allowed_name():
    # a name the benchmark no longer reads leaves the allowlist, and then
    # its definition goes
    named = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        named.update(name for _, name in _read_names(tree))
        strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
        named.update(v for v in strings if isinstance(v, str))
    assert [q for q in UNREAD_ALLOWED if q.rsplit(".", 1)[1] not in named] == []


def _namedtuple_fields(node):
    """Field names of a ``namedtuple("Name", "a b")`` call, else None."""
    if isinstance(node, ast.Call) and _called_name(node.func) == "namedtuple":
        return node.args[1].value.replace(",", " ").split()
    return None


def unread_fields(sources):
    """Fields of module-level named tuples that no source reads.

    A named tuple is a module-level ``Name = namedtuple(...)`` or a
    module-level class with a ``namedtuple(...)`` base.

    ``sources`` maps a file name to its text.  A field counts as read
    where any source loads an attribute of its name (``obj.field``);
    passing it to the constructor is not a read.  As in
    ``unread_definitions``, a field that shares its name with any other
    attribute read is not seen by the scan.  Returns
    ``module.Class.field`` strings.
    """
    trees = {fname: ast.parse(text) for fname, text in sources.items()}
    fields = []  # (qualified name, field name)
    for fname, tree in trees.items():
        module = fname.removesuffix(".py").replace("/", ".")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                name, calls = node.name, node.bases
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                name, calls = getattr(node.targets[0], "id", None), [node.value]
            else:
                continue
            for call in calls:
                fields.extend(
                    (f"{module}.{name}.{field}", field) for field in _namedtuple_fields(call) or ()
                )
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [qualname for qualname, name in fields if name not in read]


def test_scan_flags_an_unread_field():
    source = (
        "import collections\n"
        "from collections import namedtuple\n"
        "A = namedtuple('A', 'kept dropped', defaults=(0,))\n"
        "class B(namedtuple('B', 'shown, written')):\n    __slots__ = ()\n"
        "C = collections.namedtuple('C', 'hidden')\n"
        "class Plain:\n    ignored: int\n"
        "def f(a, b):\n    b.written = B(shown=1, written=2)\n    return a.kept + b.shown\n"
    )
    assert unread_fields({"pkg/s.py": source}) == [
        "pkg.s.A.dropped",
        "pkg.s.B.written",
        "pkg.s.C.hidden",
    ]


def test_every_named_tuple_field_is_read_somewhere():
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert unread_fields(sources) == []


def unread_parameters(sources):
    """Parameters that their function's body never reads.

    ``sources`` maps a file name to its text.  Every function and method
    is scanned, nested ones too; the first parameter of a method that is
    not a ``staticmethod`` is bound by the instance and skipped.  A
    parameter counts as read where its body, nested functions included,
    loads the name.  Returns ``(file, function, parameter)`` triples.
    """
    unread = set()
    for fname, text in sources.items():
        tree = ast.parse(text)
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            if id(node) in methods and not static:
                params = params[1:]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread.update(
                (fname, node.name, p.arg) for p in params if p is not None and p.arg not in read
            )
    return unread


def registered_runners(source):
    """Names of the runner functions that a module-level ``SUITES`` dict registers."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SUITES":
            return {
                n.id
                for value in node.value.values
                for n in ast.walk(value)
                if isinstance(n, ast.Name)
            }
    return set()


def test_scan_flags_an_unread_parameter():
    source = (
        "def f(a, b, *args, c, **kw):\n    return a + kw['x']\n"
        "def g(x):\n    def inner(y):\n        return x\n    return inner\n"
        "class K:\n"
        "    def m(self, y):\n        return 1\n"
        "    @staticmethod\n    def s(z):\n        return 0\n"
        "SUITES = {'one': ('first', g), 'two': ('second', f)}\n"
    )
    assert unread_parameters({"s.py": source}) == {
        ("s.py", "f", "b"),
        ("s.py", "f", "args"),
        ("s.py", "f", "c"),
        ("s.py", "inner", "y"),
        ("s.py", "m", "y"),
        ("s.py", "s", "z"),
    }
    assert registered_runners(source) == {"f", "g"}


def test_every_parameter_is_read():
    # run_suite calls every registered suite runner with one signature,
    # so a runner may leave its config unread
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    runners = registered_runners(sources["suites.py"])
    unread = {
        (fname, function, param)
        for fname, function, param in unread_parameters(sources)
        if not (fname == "suites.py" and function in runners)
    }
    assert unread == set()


def packed_slots(source):
    """The ``__slots__`` names of the ``PackedField`` class defined in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "PackedField":
            for item in node.body:
                target = getattr(item, "targets", [None])[0]
                if getattr(target, "id", "") == "__slots__":
                    return {elt.value for elt in item.value.elts}
    return set()


def private_field_reads(sources, slots):
    """``(file, line, attribute)`` of every use of a private packed-field attribute.

    ``sources`` maps a file name to its text; ``termops.py``, which owns
    the packed format, is skipped.  Any attribute access named after a
    slot counts, whatever object it is made on.
    """
    found = []
    for fname, text in sources.items():
        if fname == "termops.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in slots:
                found.append((fname, node.lineno, node.attr))
    return sorted(found)


def test_scan_flags_a_private_field_read():
    source = (
        "class PackedField:\n    __slots__ = ('_nums', '_den')\n"
        "def f(field):\n    return field._nums, field.numerators(), field._other\n"
    )
    slots = packed_slots(source)
    assert slots == {"_nums", "_den"}
    assert private_field_reads({"a.py": source, "termops.py": source}, slots) == [
        ("a.py", 4, "_nums")
    ]


def test_only_termops_reads_the_packed_format():
    # the package modules and the tests reach a packed field through
    # termops and its public methods only
    slots = packed_slots((PACKAGE / "termops.py").read_text())
    assert slots
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    }
    sources["termops.py"] = sources.pop("src/qpverify/termops.py")
    assert private_field_reads(sources, slots) == []


# a backticked ``module.attr`` or ``module.Class.attr``, ended by a
# backtick or by the parenthesis of a call
_DOTTED = re.compile(r"`([a-z_]+)((?:\.[A-Za-z_]\w*){1,2})(?=`|\()")


def dotted_references(text, modules):
    """The backticked dotted references in ``text`` whose head is one of ``modules``.

    Single and double backticks both count, and a file name such as
    ``termops.py`` is not a reference.
    """
    return sorted({h + t for h, t in _DOTTED.findall(text) if h in modules and t != ".py"})


def unresolved_references(references, package):
    """The ``module.attr...`` references that no attribute of ``package.module`` resolves."""
    unresolved = []
    for reference in references:
        module, *attrs = reference.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"{package}.{module}"))
        except AttributeError:
            unresolved.append(reference)
    return unresolved


def test_scan_finds_dotted_references():
    text = (
        "`ast.walk` and ``ast.NodeVisitor.visit`` resolve, `ast.gone` and\n"
        "``ast.AST.gone(x)`` do not; `json.dumps(obj)` is not in the modules, and\n"
        "`ast.py`, ast.parse and `x = ast.parse` are no references.\n"
    )
    found = dotted_references(text, {"ast"})
    assert found == ["ast.AST.gone", "ast.NodeVisitor.visit", "ast.gone", "ast.walk"]
    assert unresolved_references(["dom.Node", "dom.Node.gone", "dom.gone"], "xml") == [
        "dom.Node.gone",
        "dom.gone",
    ]


def test_dotted_references_in_the_docs_resolve():
    # README.md and the package's own docstrings and comments; the
    # benchmark's README, ROADMAP and CHANGES are left out
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    paths = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]
    references = sorted({r for path in paths for r in dotted_references(path.read_text(), modules)})
    assert len(references) > 20
    assert unresolved_references(references, "qpverify") == []

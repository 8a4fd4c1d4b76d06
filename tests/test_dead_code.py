"""No unread imports and no unread functions or classes in src/lielap.

A static check over the syntax trees of the package's modules: every
module-level import is read somewhere in its module, every private
module-level function or class is referenced there, and every public one
is read by some module of the package, exported by `lielap._HOMES` or
looked up by the benchmark's tracer.  The one kind of import allowed to
go unread is a name the tracer (perfbench/tracer.py, `WRAPS`) looks up
in that module, since the tracer wraps it where its callers would look
for it.  Every public method or property of a class in src/lielap, and
every field of a dataclass or NamedTuple there, is read as an attribute
somewhere in the package, the tests or the benchmark.
"""

import ast
import importlib.util
from pathlib import Path

import lielap

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lielap"


def _wrapped() -> set[tuple[str, str]]:
    """(module, name) for every name the tracer looks up."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, attr) for module, attr, *_ in tracer.WRAPS}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _read_attributes(tree: ast.Module) -> set[str]:
    """The attribute names the module reads, as in `polycert.build_DV`."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _imported(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
    return names


def test_every_module_level_import_is_read():
    wrapped = _wrapped()
    unread = [
        f"{module}.{name}"
        for module, tree in _modules().items()
        for name in _imported(tree)
        if name not in _read_names(tree) and (module, name) not in wrapped
    ]
    assert unread == []


def test_every_private_function_and_class_is_referenced():
    unused = [
        f"{module}.{node.name}"
        for module, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in _read_names(tree)
    ]
    assert unused == []


def test_every_public_function_and_class_is_read():
    modules = _modules()
    read = {name for tree in modules.values() for name in _read_names(tree) | _read_attributes(tree)}
    read |= {name for names in lielap._HOMES.values() for name in names}
    read |= {name for _, name in _wrapped()}
    unread = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert unread == []


def _public_methods(modules: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(module, class, name) for every public method or property of a
    top-level class."""
    return [
        (module, cls.name, node.name)
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases
    )


def _fields(modules: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(module, class, name) for every field of a top-level dataclass or
    NamedTuple."""
    return [
        (module, cls.name, node.target.id)
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _read_anywhere() -> set[str]:
    """The attribute names read by the package, the tests or the benchmark."""
    readers = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return set().union(*(_read_attributes(ast.parse(path.read_text(), str(path))) for path in readers))


def test_every_public_method_and_property_is_read():
    read = _read_anywhere()
    unread = [".".join(m) for m in _public_methods(_modules()) if m[2] not in read]
    assert unread == []


def test_every_record_field_is_read():
    read = _read_anywhere()
    unread = [".".join(f) for f in _fields(_modules()) if f[2] not in read]
    assert unread == []


def test_the_check_sees_the_package():
    """The package is found, the one tracer-wrapped import the check
    allows is among the names it collects, and so are the methods and the
    fields of dataclasses and NamedTuples."""
    modules = _modules()
    assert {"spectrum", "poly", "irreps"} <= set(modules)
    assert {("linalg", "IntMatrix", "kron"), ("irreps", "IrrepLabel", "dim")} <= set(_public_methods(modules))
    assert {("irreps", "IrrepLabel", "weight"), ("linalg", "Gaussian", "im")} <= set(_fields(modules))
    assert "divides" in _imported(modules["spectrum"])
    assert ("spectrum", "divides") in _wrapped()

"""Every public name and every knob of the package has a caller besides its tests.

A name listed in a module's ``__all__`` must be read somewhere in ``src/``,
in a ``scripts/*.py`` study or in the acceptance suite.  Its own ``def`` or
``class`` statement, an assignment to it and its ``__all__`` string do not
count, and neither do the unit tests: a witness reached only by its own unit
tests has no path from ``spectra-cert run`` and should be wired in or
deleted.

The name rule also holds for the public methods and properties of exported
classes, and for their annotated fields: a result field that nothing reads
is a value computed for no one.  The same rule holds for defaulted
parameters of exported functions and public methods, and for defaulted
fields of exported dataclasses: some call in those sources must pass each
one, or it is a constant in disguise and belongs in the module as one.

The package's relative imports, lazy ones included, must form no cycle.

Every iterative singular value goes through one ARPACK driver: scipy's
``eigs``, ``eigsh``, ``svds`` and ``lobpcg`` are called from
``numerics.operator_largest_singular_value`` and from no other function.

No package module imports ``scipy.optimize`` or ``scipy.integrate``, at
module top or lazily inside a function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "spectra_cert"
SOURCES = (
    sorted(PACKAGE.glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)

# cli.main(argv) is the seam the exit-code tests drive
KNOB_EXEMPTIONS = {"cli.main(argv)"}


def _trees(paths: list[Path]) -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def used_names(paths: list[Path]) -> set[str]:
    """Names read, attribute names accessed and names imported in the files."""
    names: set[str] = set()
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def exported_names() -> list[tuple[str, str]]:
    """(module, name) for every entry of every package ``__all__``."""
    return [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _all_of(ast.parse(path.read_text()))
    ]


def _exported_classes() -> list[tuple[str, ast.ClassDef]]:
    """(module, class node) for every class in a package ``__all__``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = set(_all_of(tree))
        out += [
            (path.stem, node)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in exported
        ]
    return out


def _fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    return [
        stmt
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def public_members() -> list[tuple[str, str, str]]:
    """(module, class, member) for the public methods and properties of
    every class in a package ``__all__``."""
    return [
        (mod, cls.name, stmt.name)
        for mod, cls in _exported_classes()
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    ]


def exported_fields() -> list[tuple[str, str, str]]:
    """(module, class, field) for the annotated fields of every class in a
    package ``__all__``."""
    return [(mod, cls.name, stmt.target.id) for mod, cls in _exported_classes() for stmt in _fields(cls)]


def relative_imports() -> dict[str, set[str]]:
    """Package module -> the package modules it imports, lazy imports included.

    ``from . import name`` imports the module ``name`` when there is one and
    otherwise reads ``name`` from ``__init__``.
    """
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module:
                deps.add(node.module.split(".")[0])
            else:
                deps.update(
                    alias.name if alias.name in modules else "__init__"
                    for alias in node.names
                )
        graph[path.stem] = deps
    return graph


def _defaulted_params(fn, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None if keyword-only) of defaulted params."""
    positional = fn.args.posonlyargs + fn.args.args
    if is_method:  # self or cls
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def defaulted_knobs() -> list[tuple[str, str, str, int | None]]:
    """(module, callee, parameter, positional index) for every public knob.

    Knobs are the defaulted parameters of ``__all__`` functions and of the
    public methods of ``__all__`` classes, and the defaulted fields of
    ``__all__`` dataclasses (positional index = field order).
    """
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = set(_all_of(tree))
        for node in tree.body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                for param, idx in _defaulted_params(node, is_method=False):
                    out.append((path.stem, node.name, param, idx))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    for idx, stmt in enumerate(_fields(node)):
                        if stmt.value is not None:
                            out.append((path.stem, node.name, stmt.target.id, idx))
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                        for param, idx in _defaulted_params(stmt, is_method=True):
                            out.append((path.stem, stmt.name, param, idx))
    return out


def passed_arguments(paths: list[Path]) -> tuple[dict[str, set[str]], dict[str, int], set[str]]:
    """What the calls in the files pass, keyed by callee name.

    Returns the keyword names passed to each callee, the largest number of
    positional arguments any call passes it, and the keyword names passed
    to ``dataclasses.replace``.
    """
    keywords: dict[str, set[str]] = {}
    positional: dict[str, int] = {}
    replaced: set[str] = set()
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name is None:
                continue
            kws = {kw.arg for kw in node.keywords if kw.arg is not None}
            if name == "replace":
                replaced |= kws
            keywords.setdefault(name, set()).update(kws)
            positional[name] = max(positional.get(name, 0), len(node.args))
    return keywords, positional, replaced


def test_every_export_is_used_outside_the_unit_tests():
    used = used_names(SOURCES)
    exports = exported_names()
    assert len(exports) > 50
    unused = [f"{mod}.{name}" for mod, name in exports if name not in used]
    assert unused == []


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    keywords, positional, replaced = passed_arguments(SOURCES)
    knobs = defaulted_knobs()
    assert len(knobs) > 20
    unpassed = [
        f"{mod}.{callee}({param})"
        for mod, callee, param, idx in knobs
        if param not in keywords.get(callee, set())
        and param not in replaced
        and (idx is None or positional.get(callee, 0) <= idx)
    ]
    assert sorted(set(unpassed) - KNOB_EXEMPTIONS) == []
    # an exemption that a caller now passes, or whose knob is gone, is stale
    assert KNOB_EXEMPTIONS <= set(unpassed)


def test_every_public_method_is_used_outside_the_unit_tests():
    used = used_names(SOURCES)
    members = public_members()
    assert len(members) > 10
    unused = [f"{mod}.{cls}.{name}" for mod, cls, name in members if name not in used]
    assert unused == []


def test_every_exported_field_is_read_outside_the_unit_tests():
    used = used_names(SOURCES)
    fields = exported_fields()
    assert len(fields) > 50
    unread = [f"{mod}.{cls}.{name}" for mod, cls, name in fields if name not in used]
    assert unread == []


def test_package_imports_form_no_cycle():
    graph = relative_imports()
    # the lazy probe-quadrature import inside spectral is part of the graph
    assert "multipliers" in graph["spectral"]
    cycles: list[list[str]] = []
    state: dict[str, str] = {}

    def visit(module: str, path: list[str]) -> None:
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                cycles.append(path[path.index(dep):] + [dep])
            elif dep not in state:
                visit(dep, path + [dep])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])
    assert cycles == []


ITERATIVE_SOLVERS = {"eigs", "eigsh", "svds", "lobpcg"}


def iterative_solver_callers() -> dict[str, set[str]]:
    """Solver name -> the package scopes that call it: ``module.function``
    or ``module.Class.method`` with their nested functions, and
    ``module.<module>`` for statements outside every def."""
    callers: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            in_class = isinstance(stmt, ast.ClassDef)
            for scope in stmt.body if in_class else [stmt]:
                prefix = f"{path.stem}.{stmt.name}" if in_class else path.stem
                owner = f"{prefix}.{getattr(scope, 'name', '<module>')}"
                for node in ast.walk(scope):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if called in ITERATIVE_SOLVERS:
                        callers.setdefault(called, set()).add(owner)
    return callers


def test_one_arpack_driver():
    callers = iterative_solver_callers()
    assert callers == {"eigs": {"numerics.operator_largest_singular_value"}}


HEAVY_SCIPY = ("scipy.optimize", "scipy.integrate")


def heavy_scipy_imports() -> list[str]:
    """``module: imported name`` for every import of a HEAVY_SCIPY package
    or of a submodule of one, at any depth of the package's sources."""

    def heavy(name: str) -> bool:
        return any(name == pkg or name.startswith(pkg + ".") for pkg in HEAVY_SCIPY)

    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            out += [f"{path.stem}: {name}" for name in names if heavy(name)]
    return out


def test_no_scipy_optimize_or_integrate():
    """On a 2-vCPU Xeon with one BLAS thread, in a process that had already
    run ``build_report`` and ``hs_norm`` and loaded ``scipy.linalg``,
    importing ``scipy.optimize`` took 0.18-0.24 s and raised the peak RSS
    from 58.6 to 79.5 MB, and ``scipy.integrate`` 0.19-0.26 s and 58.6 to
    82.2 MB: both load ``scipy.sparse``.  Scripts and tests may pay that.
    """
    assert heavy_scipy_imports() == []

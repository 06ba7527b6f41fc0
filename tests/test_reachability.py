"""Every public name and every knob of the package has a caller besides its tests.

A name listed in a module's ``__all__`` must be read somewhere in ``src/``,
in a ``scripts/*.py`` study or in the acceptance suite.  Its own ``def`` or
``class`` statement, an assignment to it and its ``__all__`` string do not
count, and neither do the unit tests: a witness reached only by its own unit
tests has no path from ``spectra-cert run`` and should be wired in or
deleted.

The same rule holds for defaulted parameters of exported functions and
public methods, and for defaulted fields of exported dataclasses: some call
in those sources must pass each one, or it is a constant in disguise and
belongs in the module as one.
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

# cli.main(argv) is the seam the exit-code tests drive; build_report(a_method)
# keeps the variational subordination route callable until it is wired in
KNOB_EXEMPTIONS = {"cli.main(argv)", "conditions.build_report(a_method)"}


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
                fields = [
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
                if _is_dataclass(node):
                    for idx, stmt in enumerate(fields):
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

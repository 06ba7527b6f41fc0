"""Every public name of the package is used by code other than its tests.

A name listed in a module's ``__all__`` must be read somewhere in ``src/``,
in a ``scripts/*.py`` study or in the acceptance suite.  Its own ``def`` or
``class`` statement, an assignment to it and its ``__all__`` string do not
count, and neither do the unit tests: a witness reached only by its own unit
tests has no path from ``spectra-cert run`` and should be wired in or
deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "spectra_cert"


def used_names(paths: list[Path]) -> set[str]:
    """Names read, attribute names accessed and names imported in the files."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def exported_names() -> list[tuple[str, str]]:
    """(module, name) for every entry of every package ``__all__``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out += [(path.stem, name) for name in ast.literal_eval(node.value)]
    return out


def test_every_export_is_used_outside_the_unit_tests():
    sources = (
        sorted(PACKAGE.glob("*.py"))
        + sorted((ROOT / "scripts").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )
    used = used_names(sources)
    exports = exported_names()
    assert len(exports) > 50
    unused = [f"{mod}.{name}" for mod, name in exports if name not in used]
    assert unused == []

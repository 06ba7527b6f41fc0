"""Every public name and every knob of the package has a caller besides its tests.

A name listed in a module's ``__all__`` must be read somewhere in ``src/``,
in a ``scripts/*.py`` study or in the acceptance suite.  Its own ``def`` or
``class`` statement, an assignment to it and its ``__all__`` string do not
count, and neither do the unit tests: a witness reached only by its own unit
tests has no path from ``spectra-cert run`` and should be wired in or
deleted.

Every defaulted parameter of an exported function or public method, and
every defaulted field of an exported dataclass, is a knob: some call in
those sources must pass it, or it is a constant in disguise and belongs in
the module as one, and some call must omit it, or its default is a value
that no caller reads.  A dataclass ``field(...)`` without a default or a
default factory is no knob.

Every public method and property and every annotated field of an exported
class has a reader in those sources: a result field that nothing reads is
a value computed for no one.  Only an attribute load ``.name`` reads one; a
local or an import of the same name, ``getattr``,
``dataclasses.asdict`` and the class's own ``__post_init__`` do not.  Where another package class, private ones
included, also defines the name, a load of ``.name`` may be that class's,
so the member needs an entry in ``MEMBER_READERS`` or the field one in
``FIELD_READERS`` naming the scope that reads it for its own class, and
that scope must load ``.name``.

Every config key that an experiment reads is read by string constant,
``config["key"]`` or ``config.get("key")``, in that experiment's runner or
in ``cli.run``: a key that validates but that nothing reads is a knob that
does nothing.

The package's relative imports, lazy ones included, must form no cycle.

Every iterative singular value goes through one ARPACK driver: scipy's
``eigs``, ``eigsh``, ``svds`` and ``lobpcg`` are read in
``numerics.operator_largest_singular_value`` and in no other function.

Every probe quadrature settles through one guard: only
``multipliers._settle`` reads ``_SETTLE_TOL``.

Both dimension rules, d >= 3 and d = 3, raise in
``potentials._check_dimension`` only: no other scope holds an ``if`` on a
dimension that raises.

One Gauss-Legendre rule, one rescaled catalog row and one ball
quadrature: only ``numerics`` names numpy's ``leggauss``, only
``potentials`` names ``_scaled_row`` and only ``conditions`` names
``_ball_panels``.  Every constant of a catalog row that reads the row
rescaled reads it from ``potentials._unit_row``, in the scopes that
``test_one_row_scaling_rule`` lists.

One owner of the report format: only ``cli`` names ``json_float`` or holds a
string equal to a CSV column of its experiments; the library's result
classes are plain data.

No package module imports ``scipy.optimize`` or ``scipy.integrate``, at
module top or lazily inside a function.

One dense cross-check, one scaled square root and one magnetic identity: the
rule 1e-10 sigma_dense + n eps |M|_F is written only in
``numerics._check_against_svd``, ``divmod`` splits a scale exponent only in
``numerics._scaled_sqrt`` and in the 3/2 power of
``conditions._l32_and_chain``, and ``multipliers._magnetic_sides`` takes
its sides from ``_id1_sides`` without forming a term of its own.
"""

import ast
from pathlib import Path
from typing import NamedTuple

from spectra_cert.cli import _COMMON_KEYS, _EXPERIMENTS

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


def _has_default(stmt: ast.AnnAssign) -> bool:
    """Does a dataclass field have a default?  ``field(...)`` has one only
    when it passes ``default`` or ``default_factory``."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


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
                        if _has_default(stmt):
                            out.append((path.stem, node.name, stmt.target.id, idx))
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                        for param, idx in _defaulted_params(stmt, is_method=True):
                            out.append((path.stem, stmt.name, param, idx))
    return out


class _Call(NamedTuple):
    positional: int  # the number of positional arguments
    keywords: set[str]
    splat: bool  # a *args or **kwargs argument, which may pass anything


def call_arguments(paths: list[Path]) -> dict[str, list[_Call]]:
    """Callee name -> what each call of that name in the files passes."""
    calls: dict[str, list[_Call]] = {}
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name is None:
                continue
            splat = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            kws = {kw.arg for kw in node.keywords if kw.arg is not None}
            calls.setdefault(name, []).append(_Call(len(node.args), kws, splat))
    return calls


def _passes(call: _Call, param: str, idx: int | None) -> bool:
    return param in call.keywords or (idx is not None and call.positional > idx)


def knob_uses() -> tuple[list[str], list[str]]:
    """(unpassed, unomitted): the knobs that no call of the sources passes,
    ``dataclasses.replace`` included, and those that no call omits, a call
    with a splat excluded."""
    calls = call_arguments(SOURCES)
    replaced = set().union(*(call.keywords for call in calls.get("replace", [])))
    unpassed, unomitted = [], []
    for mod, callee, param, idx in defaulted_knobs():
        knob = f"{mod}.{callee}({param})"
        mine = calls.get(callee, [])
        if param not in replaced and not any(_passes(call, param, idx) for call in mine):
            unpassed.append(knob)
        if not any(not call.splat and not _passes(call, param, idx) for call in mine):
            unomitted.append(knob)
    return unpassed, unomitted


def test_every_export_is_used_outside_the_unit_tests():
    used = used_names(SOURCES)
    exports = exported_names()
    assert len(exports) > 50
    unused = [f"{mod}.{name}" for mod, name in exports if name not in used]
    assert unused == []


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    assert len(defaulted_knobs()) >= 12
    unpassed = knob_uses()[0]
    assert sorted(set(unpassed) - KNOB_EXEMPTIONS) == []
    # an exemption that a caller now passes, or whose knob is gone, is stale
    assert KNOB_EXEMPTIONS <= set(unpassed)


def test_every_default_is_used_outside_the_unit_tests():
    # a default that every caller passes is a value no caller reads
    assert knob_uses()[1] == []


def test_every_public_method_is_used_outside_the_unit_tests():
    assert len(public_members()) > 10
    assert unread(public_members(), MEMBER_READERS) == []


# module.Class.member -> the scope that reads the member for its own class.
# Every public method or property whose name another package class also
# defines needs an entry, and every entry's scope must load .member.
MEMBER_READERS = {
    "multipliers.NearExtremalHardyProfile.profile": "multipliers.hardy_check",
    "multipliers.TestFunction.ell": "multipliers.TestFunction.angular_weight",
    "multipliers.TestFunction.profile": "multipliers.TestFunction.radial_terms",
}

# the same for the annotated fields of exported classes
FIELD_READERS = {
    "birman_schwinger.BSMatrix.z": "cli._run_bs_norm",
    "birman_schwinger.HSNormResult.rel_gap": "cli._run_hs_identity",
    "birman_schwinger.MepsRecord.eps": "birman_schwinger.m_eps_hs_check",
    "conditions.ConditionReport.a": "cli._run_check_conditions",
    "multipliers.NearExtremalHardyProfile.eps": "multipliers.NearExtremalHardyProfile.profile",
    "multipliers.TestFunction.family": "multipliers.TestFunction.ell",
    "potentials.MagneticPotential.name": "potentials.MagneticPotential._rotated",
    "potentials.Potential.dimension": "conditions.rollnik_norm",
    "spectral.DiscretizedOperator.ell": "spectral.free_floor",
    "spectral.SpectrumReport.outlier_tol": "cli._run_spectrum",
}


def attribute_loads(paths: list[Path]) -> dict[str, set[str]]:
    """Attribute name -> the scopes of the files that load it as ``.name``."""
    loads: dict[str, set[str]] = {}
    for owner, scope in scopes(paths):
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, set()).add(owner)
    return loads


def class_definers() -> dict[str, set[str]]:
    """Name -> the package classes (``module.Class``), nested and private ones
    included, whose body defines it as a field, a method or an attribute."""
    definers: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                targets = [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                names = [t.id for t in getattr(stmt, "targets", targets) if isinstance(t, ast.Name)]
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.append(stmt.name)
                for name in names:
                    definers.setdefault(name, set()).add(f"{path.stem}.{cls.name}")
    return definers


def unread(entries: list[tuple[str, str, str]], readers: dict[str, str]) -> list[str]:
    """The (module, class, name) entries with no reader: a unique name that
    no source loads, or a shared one whose ``readers`` scope is missing or
    does not load it.  The class's own ``__post_init__``, which only checks
    what it is given, reads nothing for anyone."""
    loads, definers = attribute_loads(SOURCES), class_definers()
    out = []
    for mod, cls, name in entries:
        key = f"{mod}.{cls}.{name}"
        shared = definers[name] - {f"{mod}.{cls}"}
        scopes_reading = loads.get(name, set()) - {f"{mod}.{cls}.__post_init__"}
        if key in readers or shared:
            if readers.get(key) not in scopes_reading:
                out.append(key)
        elif not scopes_reading:
            out.append(key)
    return out


def test_every_exported_field_is_read_outside_the_unit_tests():
    assert len(exported_fields()) > 50
    assert unread(exported_fields(), FIELD_READERS) == []


def test_field_readers_name_exported_fields():
    # an entry whose field is gone is stale
    fields = {f"{mod}.{cls}.{name}" for mod, cls, name in exported_fields()}
    assert set(FIELD_READERS) <= fields


def test_member_readers_name_public_members():
    # an entry whose member is gone is stale
    members = {f"{mod}.{cls}.{name}" for mod, cls, name in public_members()}
    assert set(MEMBER_READERS) <= members


def config_key_reads() -> dict[str, set[str]]:
    """cli scope -> the keys it reads as ``config["key"]`` or
    ``config.get("key")``."""
    reads: dict[str, set[str]] = {}
    for owner, scope in scopes([PACKAGE / "cli.py"]):
        for node in ast.walk(scope):
            if isinstance(node, ast.Subscript):
                target, key = node.value, node.slice
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
                target, key = node.func.value, node.args[0] if node.args else None
            else:
                continue
            if getattr(target, "id", None) == "config" and isinstance(key, ast.Constant):
                reads.setdefault(owner, set()).add(key.value)
    return reads


def test_every_config_key_has_a_reader():
    reads = config_key_reads()
    unread = {
        name: (_COMMON_KEYS | set(exp.reads))
        - reads.get(f"cli.{exp.runner.__name__}", set())
        - reads.get("cli.run", set())
        for name, exp in _EXPERIMENTS.items()
    }
    assert {name: sorted(keys) for name, keys in unread.items() if keys} == {}


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


def scopes(paths: list[Path]):
    """(owner, node) for every scope of the files: ``module.function`` or
    ``module.Class.method`` with their nested functions, and
    ``module.<module>`` for statements outside every def."""
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            in_class = isinstance(stmt, ast.ClassDef)
            for scope in stmt.body if in_class else [stmt]:
                prefix = f"{path.stem}.{stmt.name}" if in_class else path.stem
                yield f"{prefix}.{getattr(scope, 'name', '<module>')}", scope


def package_scopes():
    return scopes(sorted(PACKAGE.glob("*.py")))


def scope_readers(names: set[str]) -> dict[str, set[str]]:
    """Name -> the package scopes that read it, as a name or an attribute."""
    readers: dict[str, set[str]] = {}
    for owner, scope in package_scopes():
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = node.id
            elif isinstance(node, ast.Attribute):
                read = node.attr
            else:
                continue
            if read in names:
                readers.setdefault(read, set()).add(owner)
    return readers


def test_one_arpack_driver():
    readers = scope_readers(ITERATIVE_SOLVERS)
    assert readers == {"eigs": {"numerics.operator_largest_singular_value"}}


def test_one_settle_guard():
    # the identities, the radial key, the Hardy quotients and the
    # Weyl-sequence norms all settle through multipliers._settle
    assert scope_readers({"_SETTLE_TOL"}) == {"_SETTLE_TOL": {"multipliers._settle"}}


def test_one_bessel_cap():
    # the sector entries and the CLI's validation all refuse l past the cap
    # through birman_schwinger._check_sector_args
    readers = scope_readers({"_BESSEL_ELL_MAX"})
    assert readers == {"_BESSEL_ELL_MAX": {"birman_schwinger._check_sector_args"}}


def test_one_row_scaling_rule():
    # each constant of a catalog row is read on its unit row and scaled back
    # by a power of two: the pointwise sups, the Rollnik norm, int |V|^(3/2)
    # and its chain, the sector norms, the HS norm and int_Omega |V|
    assert scope_readers({"_unit_row"}) == {
        "_unit_row": {
            "conditions.subordination_a_pointwise",
            "conditions.lambda_constant",
            "conditions.b_constants",
            "conditions.rollnik_norm",
            "conditions._l32_and_chain",
            "birman_schwinger.assemble_bs",
            "birman_schwinger.hs_norm",
            "birman_schwinger.m_eps_hs_check",
        }
    }


def dimension_raisers() -> set[str]:
    """The package scopes holding an ``if`` whose test reads a ``dimension``
    attribute or a ``d`` or ``dimension`` name and whose body raises."""

    def reads_dimension(test: ast.expr) -> bool:
        return any(
            isinstance(node, ast.Attribute) and node.attr == "dimension"
            or isinstance(node, ast.Name) and node.id in ("d", "dimension")
            for node in ast.walk(test)
        )

    return {
        owner
        for owner, scope in package_scopes()
        for node in ast.walk(scope)
        if isinstance(node, ast.If)
        and reads_dimension(node.test)
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    }


def test_one_dimension_rule():
    # d >= 3 and d = 3 are refused in one place; the catalog, the condition
    # constants, the sector builders, the radial key and the CLI call it with
    # their own error classes
    assert dimension_raisers() == {"potentials._check_dimension"}


# name -> the one package module that may name it: numpy's Gauss-Legendre
# nodes behind numerics.panel_gauss, the rescaled catalog row behind
# potentials._unit_row, the JSON spelling of inf and nan, and the ball
# panels behind conditions._ball_integral
SINGLE_SOURCES = {
    "leggauss": "numerics",
    "_scaled_row": "potentials",
    "json_float": "cli",
    "_ball_panels": "conditions",
}


def test_one_gauss_rule_and_one_row_scaling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {
        name: {p.stem for p in modules if name in used_names([p])} for name in SINGLE_SOURCES
    } == {name: {home} for name, home in SINGLE_SOURCES.items()}


def report_spellers() -> dict[str, set[str]]:
    """Package module -> the CSV columns of ``cli._EXPERIMENTS`` it holds as
    string constants."""
    columns = {name for exp in _EXPERIMENTS.values() for name in exp.csv_columns or ()}
    out: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        held = {
            node.value
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in columns
        }
        if held:
            out[path.stem] = held
    return out


def test_only_the_cli_spells_a_report():
    # the runners read the result fields by name into payloads and rows
    assert set(report_spellers()) == {"cli"}


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


def dense_check_rules() -> set[str]:
    """The package scopes holding a sum of a 1e-10 product and a product that
    reads an ``eps``: the tolerance of a dense SVD cross-check."""

    def products(node: ast.expr) -> list[ast.expr]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return products(node.left) + products(node.right)
        return [node]

    def relative(term: ast.expr) -> bool:
        return any(isinstance(n, ast.Constant) and n.value == 1e-10 for n in ast.walk(term))

    def absolute(term: ast.expr) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "eps" for n in ast.walk(term))

    return {
        owner
        for owner, scope in package_scopes()
        for node in ast.walk(scope)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and any(map(relative, products(node))) and any(map(absolute, products(node)))
    }


def test_one_dense_cross_check():
    # the sector norms at complex z and the banded pseudospectrum each pass
    # their own dense SVD value to the one rule
    assert dense_check_rules() == {"numerics._check_against_svd"}
    assert scope_readers({"_check_against_svd"}) == {
        "_check_against_svd": {"birman_schwinger._check_against_dense", "spectral.pseudospectrum"}
    }


def test_one_scaled_square_root():
    # b1, b2, the Rollnik norm and the M_eps closed form take
    # sqrt(x 2^e) from numerics._scaled_sqrt; int |V|^(3/2) splits its own
    assert scope_readers({"divmod"}) == {
        "divmod": {"numerics._scaled_sqrt", "conditions._l32_and_chain"}
    }


def test_magnetic_identity_reads_id1():
    # the magnetic row is id1 at G = 1 less the field's mass: it forms no
    # side term of its own
    readers = scope_readers({"_id1_sides", "grad_density", "norm_sq"})
    assert "multipliers._magnetic_sides" in readers["_id1_sides"]
    assert "multipliers._magnetic_sides" not in readers["grad_density"] | readers["norm_sq"]

"""Batch experiment runner: declarative JSON config in, report files out.

One process runs one experiment.  A config names the experiment, the
potential (by catalog name plus parameter map), the dimension and the
numeric knobs.  ``parse_config`` validates it and returns its canonical
form, a JSON-ready dict: the experiment, dimension and output, the keys
the experiment reads with the grid defaults of ``_DEFAULTS`` filled in,
numbers as ints or floats, complex numbers as ``[re, im]`` and potential
params sorted by name.  ``serialize_config`` and ``spectra-cert validate``
print that dict, and the runners read it by key.  ``run`` dispatches to the
library, writes every requested format atomically (temp file + rename) and
returns the manifest it writes: the config, the toolkit version, the
thread cap, per-stage wall times and content hashes of every written file.
Neither function mutates the config it is given.  Reports themselves
contain no wall-clock data, so identical configs produce byte-identical
JSON and CSV outputs; timing lives only in the manifest.

Exit codes: 0 success, 1 a numerical check failed while running (an
invariant raised in a library module), 2 the config did not validate.

``SPECTRA_CERT_THREADS`` caps BLAS/OpenMP parallelism.  It must be applied
before numpy first loads, which is why the block below runs ahead of every
library import; in an interpreter that already imported numpy the cap has
no effect.

Experiment notes:
  * ``_EXPERIMENTS`` is the whole config schema: per experiment, the keys
    it reads besides ``experiment``, ``dimension`` and ``output``, the keys
    among those it needs, and its CSV columns.  Any other key is a config
    error, and only the keys an experiment reads are echoed.
  * the report format lives here alone: each runner reads the fields of
    its library result by name into the JSON payload and, through
    ``_rows``, into CSV rows under its ``csv_columns``.
  * a rule that a library entry enforces is refused by that entry's own
    argument check, which ``parse_config`` runs through ``_library_check``.
  * ``spectrum`` scans the radial sectors ell = 0 .. ell_max on one grid
    and concatenates their rows in the CSV output.
  * ``pseudospectrum`` resolves the ell = 0 sector operator.
  * ``identity-check`` runs the pairing identities on a fixed chirped bump
    probe with the canonical multiplier triple; the key identity joins
    only when Re lambda > 0 (elsewhere it is not defined), and a potential
    block adds the four radial-key rows from their own settled probe,
    which needs Re lambda > 0 as well.
  * only ``check-conditions`` runs at a dimension other than 3
    (``potentials._check_dimension`` holds both dimension rules).
  * ``singular-sequence`` reads ``lambda`` as the real spectral point
    |k|^2 >= 0 being witnessed, and no potential: its form term is the
    subordination bound itself.
  * ``magnetic-smoke`` reads the potential block as a *magnetic* catalog
    name (the vector potential under study).
"""

from __future__ import annotations

import os
import sys


def _apply_thread_cap(environ) -> int | None:
    """Propagate SPECTRA_CERT_THREADS to the BLAS/OpenMP pool variables.

    Returns the cap it applied, a positive integer in ASCII digits, or None.
    Runs at import time so the console script constrains numpy's thread
    pools.
    """
    raw = environ.get("SPECTRA_CERT_THREADS", "")
    cap = int(raw) if raw.isascii() and raw.isdigit() else 0
    if cap < 1:
        return None
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        environ[var] = str(cap)
    return cap


# the cap that reached the BLAS pool, echoed in every manifest: None when
# SPECTRA_CERT_THREADS is unset or invalid, or numpy was loaded first
_THREAD_CAP = _apply_thread_cap(os.environ)
if "numpy" in sys.modules:
    _THREAD_CAP = None

import argparse
import csv
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from .birman_schwinger import (
    _BS_NORM_SLACK,
    _HS_GRID_R_MIN,
    BSError,
    _check_sector_args,
    assemble_bs,
    default_bs_grid,
    hs_norm,
    log_uniform_grid,
)
from .conditions import ConditionError, build_report, thresholds
from .multipliers import (
    MultiplierError,
    TestFunction,
    _check_re_lambda,
    identity_term_rows,
    magnetic_identity_smoke,
    radi_identity_terms,
)
from .potentials import (
    _ELECTRIC,
    _MAGNETIC,
    PotentialError,
    _check_dimension,
    catalog,
    magnetic_catalog,
)
from .spectral import (
    SpectralError,
    _check_outlier_tol,
    _check_scales,
    _check_window,
    discretize_radial,
    pseudospectrum,
    singular_sequence_decay,
    spectrum,
)

__all__ = [
    "ConfigError",
    "RunFailure",
    "parse_config",
    "serialize_config",
    "run",
    "main",
]

# the keys every experiment reads; _EXPERIMENTS lists the rest per experiment
_COMMON_KEYS = frozenset({"experiment", "dimension", "output"})
# the value a config that omits one of these keys reads
_DEFAULTS = {"dimension": 3, "grid_n": 256, "r_max": 40.0, "ell_max": 32}

# probes used by the probe-based experiments; fixed so runs are reproducible
_PROBE_SUPPORT = 2.5
_PROBE_CHIRP = 0.4
_SEQUENCE_SUPPORT = 1.0
# numpy refuses arrays past sys.maxsize bytes: grid_n complex nodes must fit
_MAX_GRID_N = sys.maxsize // 16
# the radial grid of each Birman-Schwinger experiment, from (grid_n, r_max)
_BS_GRIDS = {
    "bs-norm": default_bs_grid,
    "hs-identity": lambda n, r_max: log_uniform_grid(_HS_GRID_R_MIN, r_max, n),
}


class ConfigError(ValueError):
    """The config document failed validation; message names the field."""


class RunFailure(Exception):
    """A library invariant failed while running a valid config."""


def _want_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number")
    # json reads NaN and Infinity, and integers past the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{field} must be finite")
    return float(value)


def _want_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer")
    return value


def _library_check(key: str, check: Callable, *args):
    """check(*args), a library argument check or dry run, with its refusal as a
    ConfigError on ``key``; the same error classes report numerical failures."""
    try:
        return check(*args)
    except (BSError, ConditionError, MultiplierError, PotentialError, SpectralError) as exc:
        raise ConfigError(f"{key} is invalid: {exc}") from exc
    except MemoryError as exc:  # only the dry runs' grids of grid_n nodes allocate
        raise ConfigError(f"grid_n does not fit in memory: {exc}") from exc


def _parse_complex(value, field: str) -> list[float]:
    """A number or an [re, im] pair, as the [re, im] pair of floats."""
    pair = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
        raise ConfigError(f"{field} entries must be numbers or [re, im] pairs")
    return [_want_number(v, field) for v in pair]


def _parse_potential(raw, dimension: int, experiment: str):
    """The canonical potential block of a config and the catalog entry it builds."""
    if not isinstance(raw, dict):
        raise ConfigError("potential must be an object with name and params")
    unknown = set(raw) - {"name", "params"}
    if unknown:
        raise ConfigError(f"unknown potential field {sorted(unknown)[0]!r}")
    if "name" not in raw:
        raise ConfigError("potential needs a name")
    name = str(raw["name"])
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential params must be an object")
    # construct once now so bad names/params fail validation, not the run;
    # the catalog rows check every parameter, and a TypeError is a param
    # named like a keyword of the catalog call (dimension)
    try:
        pot = _build_potential({"name": name, "params": params}, dimension, experiment)
    except (PotentialError, TypeError) as exc:
        raise ConfigError(f"potential {name!r}: {exc}") from exc
    return {"name": name, "params": {k: params[k] for k in sorted(params)}}, pot


def _build_potential(potential: Optional[dict], dimension: int, experiment: str):
    """The catalog entry a potential block names; None when there is none."""
    if potential is None:
        return None
    if experiment == "magnetic-smoke":
        return magnetic_catalog(potential["name"], **potential["params"])
    return catalog(potential["name"], dimension=dimension, **potential["params"])


def _decode(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(doc: str | dict) -> dict:
    """Validate a config document and return its canonical dict.

    ``doc`` is the JSON text or the object it decodes to, which is left
    unchanged.  Every error message names the offending field.  The result
    holds only JSON types, ``serialize_config`` prints it, and
    ``parse_config`` returns it as it is.
    """
    raw = _decode(doc) if isinstance(doc, str) else doc
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )
    schema = _EXPERIMENTS[experiment]
    unread = set(raw) - _COMMON_KEYS - set(schema.reads)
    if unread:
        raise ConfigError(f"{experiment} does not read {sorted(unread)[0]!r}")
    for key in schema.needs:
        if key not in raw:
            raise ConfigError(f"{experiment} needs {key}")

    dimension = _want_int(raw.get("dimension", _DEFAULTS["dimension"]), "dimension")
    _library_check("dimension", _check_dimension, dimension)
    if experiment != "check-conditions":
        _library_check("dimension", _check_dimension, dimension, PotentialError, 3)

    grid_n = _want_int(raw.get("grid_n", _DEFAULTS["grid_n"]), "grid_n")
    if not 8 <= grid_n <= _MAX_GRID_N:
        raise ConfigError(f"grid_n must be an integer in [8, {_MAX_GRID_N}]")
    r_max = _want_number(raw.get("r_max", _DEFAULTS["r_max"]), "r_max")
    if not r_max > 0:
        raise ConfigError("r_max must be positive")
    ell_max = _want_int(raw.get("ell_max", _DEFAULTS["ell_max"]), "ell_max")
    config = {"experiment": experiment, "dimension": dimension}
    grid = {"grid_n": grid_n, "r_max": r_max, "ell_max": ell_max}
    config.update((key, value) for key, value in grid.items() if key in schema.reads)
    if experiment in _BS_GRIDS:
        # build the grid once now so its bounds fail validation, not the run
        key = "r_max" if experiment == "hs-identity" and not r_max > _HS_GRID_R_MIN else "grid_n"
        bs_grid = _library_check(key, _BS_GRIDS[experiment], grid_n, r_max)

    if "outlier_tol" in raw:
        config["outlier_tol"] = _want_number(raw["outlier_tol"], "outlier_tol")
        _library_check("outlier_tol", _check_outlier_tol, config["outlier_tol"])

    pot = None
    if "potential" in raw:
        config["potential"], pot = _parse_potential(raw["potential"], dimension, experiment)
    if "z_list" in raw:
        entries = raw["z_list"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("z_list must be a nonempty list")
        config["z_list"] = [_parse_complex(v, "z_list") for v in entries]
    if experiment in _BS_GRIDS:
        # deep geometric panels reach r where |V| ~ r^-s leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            abs_v = pot.abs_radial(bs_grid.nodes)
        if not abs_v.max() < math.inf:  # also catches NaN
            raise ConfigError(
                f"grid_n {grid_n} puts nodes down to r = {bs_grid.nodes[0]:.3g},"
                " where |V| is not finite"
            )
        # assemble_bs's sector check at each z (hs_norm's at z = 0), once per key
        for z in config.get("z_list", [[0.0, 0.0]]):
            _library_check("z_list", _check_sector_args, pot, complex(*z), 0)
            _library_check("ell_max", _check_sector_args, pot, complex(*z), ell_max)
    if experiment in ("spectrum", "pseudospectrum"):
        # build the sectors with the smallest and the largest diagonal now,
        # so a grid too fine for double precision fails validation, not the
        # run; the free sector first, so an overflowing V is blamed on itself
        _library_check("r_max", discretize_radial, None, 0, r_max, grid_n)
        if pot is not None:
            _library_check("potential", discretize_radial, pot, 0, r_max, grid_n)
        if experiment == "spectrum":
            _library_check("ell_max", discretize_radial, pot, ell_max, r_max, grid_n)

    if "z_window" in raw:
        win = raw["z_window"]
        if not isinstance(win, list) or len(win) != 4:
            raise ConfigError("z_window must be [re_min, re_max, im_min, im_max]")
        win = config["z_window"] = [_want_number(v, "z_window") for v in win]
        _library_check("z_window", _check_window, win[:2], win[2:])

    # every experiment that reads lambda needs it
    if "lambda" in raw:
        lam = config["lambda"] = _parse_complex(raw["lambda"], "lambda")
        if experiment == "singular-sequence" and (lam[1] != 0.0 or lam[0] < 0.0):
            raise ConfigError(
                "singular-sequence needs a real lambda >= 0 (the witnessed"
                " spectral point |k|^2)"
            )
        # magnetic-smoke and the radial-key rows of a potential need Re lambda > 0
        if experiment == "magnetic-smoke" or experiment == "identity-check" and pot is not None:
            _library_check("lambda", _check_re_lambda, complex(*lam))

    if "n_list" in raw:
        entries = raw["n_list"]
        if not isinstance(entries, list):
            raise ConfigError("n_list must be a list of scales")
        config["n_list"] = [_want_int(v, "n_list") for v in entries]
        _library_check("n_list", _check_scales, config["n_list"])

    out_raw = raw.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("output must be an object with path and formats")
    unknown_out = set(out_raw) - {"path", "formats"}
    if unknown_out:
        raise ConfigError(f"unknown output field {sorted(unknown_out)[0]!r}")
    path = out_raw.get("path", experiment)
    if not isinstance(path, str) or not path:
        raise ConfigError("output path must be a nonempty string")
    formats_raw = out_raw.get("formats", ["json"])
    if not isinstance(formats_raw, list) or not formats_raw:
        raise ConfigError("output formats must be a nonempty list")
    formats = []
    for fmt in formats_raw:
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown output format {fmt!r}")
        if fmt not in formats:
            formats.append(fmt)
    if "csv" in formats and schema.csv_columns is None:
        raise ConfigError(f"{experiment} writes json only (csv requested)")

    config["output"] = {"path": path, "formats": formats}
    return config


def serialize_config(config: dict) -> str:
    """Canonical JSON form; parse_config inverts it exactly."""
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


def _stage(stages: list, name: str, fn: Callable):
    start = time.perf_counter()
    try:
        result = fn()
    except (ValueError, MemoryError) as exc:
        raise RunFailure(f"{name}: {exc}") from exc
    stages.append({"name": name, "seconds": time.perf_counter() - start})
    return result


def json_float(value):
    """inf and nan are not JSON numbers; write them as "inf" and "nan"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _rows(columns: Sequence[str], *values) -> list[dict]:
    """The CSV rows of a table: one value column per name in ``columns``."""
    return [dict(zip(columns, row)) for row in zip(*values)]


def _run_check_conditions(config, pot, stages):
    report = _stage(stages, "conditions.build_report", lambda: build_report(pot))
    payload = {
        "a": json_float(report.a),
        "a_method": "pointwise-hardy",
        "rollnik": json_float(report.rollnik),
        "frank_l32": json_float(report.frank_l32),
        "sobolev_chain_a": json_float(report.sobolev_chain_a),
        "Λ": json_float(report.lambda_),
        "b1": json_float(report.b1),
        "b2": json_float(report.b2),
        "b3": json_float(report.b3),
        "verdicts": dict(report.verdicts),
    }
    return payload, None


def _run_bs_norm(config, pot, stages):
    grid = _BS_GRIDS[config["experiment"]](config["grid_n"], config["r_max"])
    ell_max = config["ell_max"]
    base = _stage(
        stages,
        "birman_schwinger.assemble_bs z=0",
        lambda: assemble_bs(pot, 0.0, grid, ell_max=ell_max),
    )
    points = []
    for z in (complex(*pair) for pair in config["z_list"]):

        def assemble(z=z):
            bs = assemble_bs(pot, z, grid, ell_max=ell_max)
            return bs, {
                "z_re": float(bs.z.real),
                "z_im": float(bs.z.imag),
                "norm": bs.norm,
                "hs_norm": bs.hs_estimate(),
                "per_ell_norms": list(bs.per_ell_norms),
                "tail_warning": bs.tail_warning,
            }

        bs, point = _stage(
            stages, f"birman_schwinger.assemble_bs z={z.real:g}{z.imag:+g}j", assemble
        )
        if not bs.dominated_by(base):
            raise RunFailure(
                f"birman_schwinger.assemble_bs z={z}: norm {bs.norm:.6g} exceeds"
                f" the z=0 norm {base.norm:.6g} beyond the"
                f" {_BS_NORM_SLACK:.0%} discretization slack"
            )
        points.append(point)
    return {"base_norm": base.norm, "points": points}, None


def _run_hs_identity(config, pot, stages):
    grid = _BS_GRIDS[config["experiment"]](config["grid_n"], config["r_max"])
    result = _stage(
        stages,
        "birman_schwinger.hs_norm",
        lambda: hs_norm(pot, grid, ell_max=config["ell_max"]),
    )
    payload = {
        "matrix_route": json_float(result.matrix_route),
        "rollnik_route": json_float(result.rollnik_route),
        "rel_gap": json_float(result.rel_gap),
        "diverged": result.diverged,
    }
    return payload, None


def _run_spectrum(config, pot, stages):
    columns = _EXPERIMENTS[config["experiment"]].csv_columns
    outlier_tol = config.get("outlier_tol")
    sectors = []
    all_rows = []
    for ell in range(config["ell_max"] + 1):
        op = discretize_radial(pot, ell, config["r_max"], config["grid_n"])
        report = _stage(
            stages,
            f"spectral.spectrum ell={ell}",
            lambda op=op: spectrum(op, outlier_tol=outlier_tol),
        )
        flagged = set(report.outlier_indices)
        rows = _rows(
            columns,
            report.eigenvalues.real.tolist(),
            report.eigenvalues.imag.tolist(),
            report.residuals.tolist(),
            [i in flagged for i in range(len(report.residuals))],
        )
        sectors.append(
            {
                "ell": ell,
                "continuum_floor": report.continuum_floor,
                "outlier_tol": report.outlier_tol,
                "outlier_count": len(report.outlier_indices),
                "rows": rows,
            }
        )
        all_rows.extend(rows)
    return {"sectors": sectors}, all_rows


def _run_pseudospectrum(config, pot, stages):
    op = discretize_radial(pot, 0, config["r_max"], config["grid_n"])
    win = config["z_window"]
    field = _stage(
        stages,
        "spectral.pseudospectrum",
        lambda: pseudospectrum(op, (win[0], win[1]), (win[2], win[3])),
    )
    re_values, im_values = field.re_values.tolist(), field.im_values.tolist()
    sigma_min = field.sigma_min.tolist()  # one list per im value
    payload = {"re_values": re_values, "im_values": im_values, "sigma_min": sigma_min}
    return payload, _rows(
        _EXPERIMENTS[config["experiment"]].csv_columns,
        re_values * len(im_values),
        [zi for zi in im_values for _ in re_values],
        [s for row in sigma_min for s in row],
    )


def _run_identity_check(config, pot, stages):
    probe = TestFunction("radial-gaussian-bump", _PROBE_SUPPORT, chirp=_PROBE_CHIRP)
    lam = complex(*config["lambda"])
    rows = _stage(
        stages,
        "multipliers.identity_term_rows",
        lambda: identity_term_rows(probe, lam),
    )
    if pot is not None:
        rows = rows + _stage(
            stages,
            "multipliers.radi_identity_terms",
            lambda: radi_identity_terms(probe, lam, pot),
        )
    # every term is real: value_im is the constant 0.0 column
    ids, names, values, residuals = zip(*rows)
    columns = _EXPERIMENTS[config["experiment"]].csv_columns
    rows = _rows(columns, ids, names, values, [0.0] * len(values), residuals)
    return {"lambda": [lam.real, lam.imag], "rows": rows}, rows


def _run_singular_sequence(config, pot, stages):
    probe = TestFunction("radial-gaussian-bump", _SEQUENCE_SUPPORT)
    lam = config["lambda"][0]
    report = _stage(
        stages,
        "spectral.singular_sequence_decay",
        lambda: singular_sequence_decay(probe, (math.sqrt(lam), 0.0, 0.0), config["n_list"]),
    )
    payload = {
        "lambda": lam,
        "n_values": list(report.n_values),
        "equation_residuals": list(report.equation_residuals),
        "form_terms": list(report.form_terms),
        "residual_slope": report.residual_slope,
        "form_slope": report.form_slope,
    }
    columns = _EXPERIMENTS[config["experiment"]].csv_columns
    return payload, _rows(columns, report.n_values, report.equation_residuals, report.form_terms)


def _run_magnetic_smoke(config, pot, stages):
    probe = TestFunction("radial-gaussian-bump", _PROBE_SUPPORT, chirp=_PROBE_CHIRP)
    lam = complex(*config["lambda"])
    report = _stage(
        stages,
        "multipliers.magnetic_identity_smoke",
        lambda: magnetic_identity_smoke(probe, lam, pot),
    )
    payload = {
        "field": config["potential"]["name"],
        "lambda": [lam.real, lam.imag],
        "b_tau_sup": report.b_tau_sup,
        "b_tau_dot_x_sup": report.b_tau_dot_x_sup,
        "tangential_residual": report.tangential_residual,
        "identity_residual": report.identity_residual,
    }
    return payload, None


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its runner and its whole config schema."""

    # (config, its catalog entry or None, stages) -> (payload, CSV rows or None)
    runner: Callable
    # config keys read besides _COMMON_KEYS, and those among them it needs
    reads: tuple[str, ...]
    needs: tuple[str, ...] = ()
    csv_columns: Optional[tuple[str, ...]] = None


_GRID = ("grid_n", "r_max", "ell_max")
_EXPERIMENTS = {
    "check-conditions": _Experiment(
        _run_check_conditions, ("potential",), ("potential",)
    ),
    "bs-norm": _Experiment(
        _run_bs_norm, ("potential", *_GRID, "z_list"), ("potential", "z_list")
    ),
    "hs-identity": _Experiment(
        _run_hs_identity, ("potential", *_GRID), ("potential",)
    ),
    "spectrum": _Experiment(
        _run_spectrum,
        ("potential", *_GRID, "outlier_tol"),
        csv_columns=("re", "im", "residual", "is_outlier"),
    ),
    "pseudospectrum": _Experiment(
        _run_pseudospectrum,
        ("potential", "grid_n", "r_max", "z_window"),
        ("z_window",),
        ("z_re", "z_im", "sigma_min"),
    ),
    "identity-check": _Experiment(
        _run_identity_check,
        ("potential", "lambda"),
        ("lambda",),
        ("identity_id", "term_name", "value_re", "value_im", "residual"),
    ),
    "singular-sequence": _Experiment(
        _run_singular_sequence,
        ("lambda", "n_list"),
        ("lambda", "n_list"),
        ("n", "equation_residual", "form_term"),
    ),
    "magnetic-smoke": _Experiment(
        _run_magnetic_smoke, ("potential", "lambda"), ("potential", "lambda")
    ),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _json_bytes(payload: dict) -> bytes:
    # allow_nan=False: a stray inf/nan means a report skipped json_float; better
    # a loud failure than a file strict parsers reject
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _csv_bytes(fieldnames: Sequence[str], rows: Sequence[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def _atomic_write(path: Path, data: bytes) -> str:
    """Write via temp file + rename; returns the content sha256.  The file
    gets mode 0o666 less the umask, as a plain open would give it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a 64-bit random name, and O_EXCL refuses any file already there
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return hashlib.sha256(data).hexdigest()


def run(config: dict) -> dict:
    """Dispatch one canonical config, write its outputs and return the manifest
    it writes."""
    experiment = config["experiment"]
    schema = _EXPERIMENTS[experiment]
    formats = config["output"]["formats"]
    if "csv" in formats and schema.csv_columns is None:
        raise RunFailure(f"{experiment} has no csv table")
    stages: list[dict] = []
    pot = _build_potential(config.get("potential"), config["dimension"], experiment)
    payload, rows = schema.runner(config, pot, stages)

    outputs: list[dict] = []
    base = config["output"]["path"]
    try:
        for fmt in formats:
            target = Path(f"{base}.{fmt}")
            if fmt == "json":
                data = _json_bytes(payload)
            else:
                data = _csv_bytes(schema.csv_columns, rows)
            outputs.append({"path": str(target), "sha256": _atomic_write(target, data)})
    except (ValueError, OSError) as exc:
        raise RunFailure(f"writing outputs: {exc}") from exc

    # manifest invariant: every listed file exists and hash-matches
    for out in outputs:
        if hashlib.sha256(Path(out["path"]).read_bytes()).hexdigest() != out["sha256"]:
            raise RunFailure(f"output {out['path']} hash mismatch after write")

    manifest = {
        "config": config,
        "version": __version__,
        "thread_cap": _THREAD_CAP,
        "stages": stages,
        "outputs": outputs,
    }
    _atomic_write(Path(f"{base}.manifest.json"), _json_bytes(manifest))
    return manifest


def _apply_override(raw: dict, item: str) -> None:
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = parsed


def _read_config(path: str, overrides: Sequence[str]) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    raw = _decode(text)
    for item in overrides:
        _apply_override(raw, item)
    return parse_config(raw)


def _cmd_run(args) -> int:
    manifest = run(_read_config(args.config, args.set or []))
    print(json.dumps(manifest, sort_keys=True, indent=2))
    return 0


def _cmd_validate(args) -> int:
    sys.stdout.write(serialize_config(_read_config(args.config, args.set or [])))
    return 0


def _cmd_catalog(args) -> int:
    table = _library_check("dimension", thresholds, args.dim)
    lines = []
    for title, rows in (
        (f"potential catalog (dimension {table.d})", _ELECTRIC),
        ("magnetic catalog (magnetic-smoke)", _MAGNETIC),
    ):
        lines += [title] + [f"  {row.usage:<26}{row.summary}" for row in rows.values()] + [""]
    lines += [
        f"thresholds (dimension {table.d})",
        f"  subordination b max   {table.thm12_b_max:.12g}",
        f"  lambda star           {table.lambda_star:.12g}",
        f"  sqrt(b3) max          {table.sqrt_b3_max:.12g}",
    ]
    if table.d != 3:
        lines.append("  (integral norms: Rollnik and L^(3/2) checks run at dimension 3 only)")
    print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-cert",
        description="certification experiments for -Delta + V with complex V",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help in (
        ("run", "run one experiment from a JSON config"),
        ("validate", "validate a config and print its canonical form"),
    ):
        p_cfg = sub.add_parser(name, help=help)
        p_cfg.add_argument("config", help="path to the config document")
        # no default=[]: append would grow that one list across main calls
        p_cfg.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config field (dotted paths, JSON values)",
        )

    p_cat = sub.add_parser("catalog", help="list potentials and thresholds")
    p_cat.add_argument("--dim", type=int, default=3, help="dimension (default 3)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "catalog": _cmd_catalog}
    try:
        code = handlers[args.command](args)
        # a reader that closed the pipe surfaces here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nobody reads the rest; keep the exit flush from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

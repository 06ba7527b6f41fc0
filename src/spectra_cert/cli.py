"""Batch experiment runner: declarative JSON config in, report files out.

One process runs one experiment.  A config names the experiment, the
potential (by catalog name plus parameter map), the dimension and the
numeric knobs; ``run`` dispatches to the library, writes every requested
format atomically (temp file + rename) and finishes with a manifest that
echoes the config, the toolkit version, per-stage wall times and content
hashes of every written file.  Reports themselves contain no
wall-clock data, so identical configs produce byte-identical JSON and CSV
outputs; timing lives only in the manifest.

Exit codes: 0 success, 1 a numerical check failed while running (an
invariant raised in a library module), 2 the config did not validate.

``SPECTRA_CERT_THREADS`` caps BLAS/OpenMP parallelism.  It must be applied
before numpy first loads, which is why the block below runs ahead of every
library import; in an interpreter that already imported numpy the cap has
no effect.

Experiment notes:
  * ``spectrum`` scans the radial sectors ell = 0 .. ell_max on one grid
    and concatenates their rows in the CSV output.
  * ``pseudospectrum`` resolves the ell = 0 sector operator.
  * ``identity-check`` runs the pairing identities on a fixed chirped bump
    probe with the canonical multiplier triple; the key identity joins
    only when Re lambda > 0 (elsewhere it is not defined), and a potential
    block additionally requests the radial-key term table, which needs
    Re lambda > 0 as well.
  * only ``check-conditions`` runs at a dimension other than 3.
  * ``singular-sequence`` reads ``lambda`` as the real spectral point
    |k|^2 >= 0 being witnessed.
  * ``magnetic-smoke`` reads the potential block as a *magnetic* catalog
    name (the vector potential under study); the box resolution is fixed.
"""

from __future__ import annotations

import os
import sys


def _apply_thread_cap(environ) -> bool:
    """Propagate SPECTRA_CERT_THREADS to the BLAS/OpenMP pool variables.

    Returns True when a positive integer cap was applied.  Runs at import
    time so the console script constrains numpy's thread pools.
    """
    raw = environ.get("SPECTRA_CERT_THREADS", "")
    if not raw.isdigit() or int(raw) < 1:
        return False
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        environ[var] = raw
    return True


# the cap that reached the BLAS pool, echoed in every manifest: None when
# SPECTRA_CERT_THREADS is unset or invalid, or numpy was loaded first
_THREAD_CAP = (
    int(os.environ["SPECTRA_CERT_THREADS"])
    if _apply_thread_cap(os.environ) and "numpy" not in sys.modules
    else None
)

import argparse
import csv
import hashlib
import io
import json
import math
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from .birman_schwinger import assemble_bs, default_bs_grid, hs_norm, log_uniform_grid
from .conditions import build_report, json_float, thresholds
from .multipliers import (
    TestFunction,
    identity_term_rows,
    magnetic_identity_smoke,
    radi_identity_terms,
)
from .potentials import (
    PotentialError,
    catalog,
    catalog_names,
    magnetic_catalog,
    magnetic_catalog_names,
)
from .spectral import (
    discretize_radial,
    pseudospectrum,
    singular_sequence_decay,
    spectrum,
)

__all__ = [
    "ConfigError",
    "RunFailure",
    "PotentialSpec",
    "OutputSpec",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "serialize_config",
    "run",
    "main",
]

EXPERIMENTS = (
    "check-conditions",
    "bs-norm",
    "hs-identity",
    "spectrum",
    "pseudospectrum",
    "identity-check",
    "singular-sequence",
    "magnetic-smoke",
)

_CSV_CAPABLE = frozenset(
    {"spectrum", "pseudospectrum", "identity-check", "singular-sequence"}
)
_NEEDS_POTENTIAL = frozenset(
    {"check-conditions", "bs-norm", "hs-identity", "magnetic-smoke"}
)

# probes used by the probe-based experiments; fixed so runs are reproducible
_PROBE_SUPPORT = 2.5
_PROBE_CHIRP = 0.4
_SEQUENCE_SUPPORT = 1.0
_BS_NORM_SLACK = 0.02


class ConfigError(ValueError):
    """The config document failed validation; message names the field."""


class RunFailure(Exception):
    """A library invariant failed while running a valid config."""


@dataclass(frozen=True)
class PotentialSpec:
    """Catalog name plus parameter map, as written in the config."""

    name: str
    params: dict


@dataclass(frozen=True)
class OutputSpec:
    """Output base path (format extensions are appended) and format list."""

    path: str
    formats: tuple[str, ...] = ("json",)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    output: OutputSpec
    potential: Optional[PotentialSpec] = None
    dimension: int = 3
    grid_n: int = 256
    r_max: float = 40.0
    ell_max: int = 32
    outlier_tol: Optional[float] = None
    z_list: Optional[tuple[complex, ...]] = None
    z_window: Optional[tuple[float, float, float, float]] = None
    lam: Optional[complex] = None
    n_list: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class RunManifest:
    """What a run produced: config echo, version, timings, file hashes.

    The JSON form also records the SPECTRA_CERT_THREADS cap this process
    applied at import (``thread_cap``, null when none did).
    """

    config: ExperimentConfig
    version: str
    stages: tuple[tuple[str, float], ...]
    outputs: tuple[tuple[str, str], ...]  # (path, sha256)

    def to_json_dict(self) -> dict:
        return {
            "config": _config_to_dict(self.config),
            "version": self.version,
            "thread_cap": _THREAD_CAP,
            "stages": [{"name": n, "seconds": s} for n, s in self.stages],
            "outputs": [{"path": p, "sha256": h} for p, h in self.outputs],
        }


def _want_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number")
    return float(value)


def _want_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer")
    return value


def _parse_complex(value, field: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{field} entries must be numbers or [re, im] pairs")


def _parse_potential(raw, dimension: int, experiment: str) -> PotentialSpec:
    if not isinstance(raw, dict):
        raise ConfigError("potential must be an object with name and params")
    unknown = set(raw) - {"name", "params"}
    if unknown:
        raise ConfigError(f"unknown potential field {sorted(unknown)[0]!r}")
    if "name" not in raw:
        raise ConfigError("potential needs a name")
    name = raw["name"]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential params must be an object")
    for key, val in params.items():
        _want_number(val, f"potential param {key!r}")
    spec = PotentialSpec(name=str(name), params=dict(params))
    # construct once now so bad names/params fail validation, not the run
    try:
        _build_potential(spec, dimension, experiment)
    except (PotentialError, KeyError, TypeError) as exc:
        detail = exc.args[0] if exc.args else exc
        if isinstance(exc, KeyError):
            detail = f"missing required parameter {detail!r}"
        raise ConfigError(f"potential {spec.name!r}: {detail}") from exc
    return spec


def _build_potential(spec: PotentialSpec, dimension: int, experiment: str):
    if experiment == "magnetic-smoke":
        return magnetic_catalog(spec.name, dimension=dimension, **spec.params)
    return catalog(spec.name, dimension=dimension, **spec.params)


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config document and fill defaults.

    Every error message names the offending field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    known = {
        "experiment",
        "potential",
        "dimension",
        "grid_n",
        "r_max",
        "ell_max",
        "outlier_tol",
        "z_list",
        "z_window",
        "lambda",
        "n_list",
        "output",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )

    dimension = _want_int(raw.get("dimension", 3), "dimension")
    if dimension < 3:
        raise ConfigError("dimension must be an integer >= 3")
    if dimension != 3 and experiment != "check-conditions":
        raise ConfigError(f"{experiment} requires dimension 3")

    grid_n = _want_int(raw.get("grid_n", 256), "grid_n")
    if grid_n < 8:
        raise ConfigError("grid_n must be an integer >= 8")
    r_max = _want_number(raw.get("r_max", 40.0), "r_max")
    if not r_max > 0:
        raise ConfigError("r_max must be positive")
    ell_max = _want_int(raw.get("ell_max", 32), "ell_max")
    if ell_max < 0:
        raise ConfigError("ell_max must be a nonnegative integer")

    outlier_tol = None
    if "outlier_tol" in raw:
        outlier_tol = _want_number(raw["outlier_tol"], "outlier_tol")
        if not outlier_tol > 0:
            raise ConfigError("outlier_tol must be positive")

    potential = None
    if "potential" in raw:
        if experiment == "singular-sequence":
            raise ConfigError(
                "singular-sequence does not take a potential; its form term"
                " is the subordination bound itself"
            )
        potential = _parse_potential(raw["potential"], dimension, experiment)
    elif experiment in _NEEDS_POTENTIAL:
        raise ConfigError(f"{experiment} needs a potential")

    z_list = None
    if "z_list" in raw:
        entries = raw["z_list"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("z_list must be a nonempty list")
        z_list = tuple(_parse_complex(v, "z_list") for v in entries)
        for z in z_list:
            if z.imag == 0.0 and z.real > 0.0:
                raise ConfigError(
                    "z_list contains a point on the open positive real axis"
                )
    elif experiment == "bs-norm":
        raise ConfigError("bs-norm needs z_list")

    z_window = None
    if "z_window" in raw:
        win = raw["z_window"]
        if not isinstance(win, list) or len(win) != 4:
            raise ConfigError("z_window must be [re_min, re_max, im_min, im_max]")
        vals = tuple(_want_number(v, "z_window") for v in win)
        if vals[0] >= vals[1] or vals[2] >= vals[3]:
            raise ConfigError("z_window intervals must be increasing")
        z_window = vals
    elif experiment == "pseudospectrum":
        raise ConfigError("pseudospectrum needs z_window")

    lam = None
    if "lambda" in raw:
        lam = _parse_complex(raw["lambda"], "lambda")
    elif experiment in ("identity-check", "singular-sequence", "magnetic-smoke"):
        raise ConfigError(f"{experiment} needs lambda")
    if experiment == "singular-sequence" and lam is not None:
        if lam.imag != 0.0 or lam.real < 0.0:
            raise ConfigError(
                "singular-sequence needs a real lambda >= 0 (the witnessed"
                " spectral point |k|^2)"
            )
    if experiment == "magnetic-smoke" and lam is not None and not lam.real > 0:
        raise ConfigError("magnetic-smoke needs Re lambda > 0")
    if experiment == "identity-check" and potential is not None and not lam.real > 0:
        raise ConfigError(
            "identity-check with a potential needs Re lambda > 0 (the radial-key"
            " table is not defined elsewhere)"
        )

    n_list = None
    if "n_list" in raw:
        entries = raw["n_list"]
        if not isinstance(entries, list) or len(entries) < 2:
            raise ConfigError("n_list must be a list of at least two scales")
        n_list = tuple(_want_int(v, "n_list") for v in entries)
        if any(n < 1 for n in n_list):
            raise ConfigError("n_list scales must be positive integers")
        if any(a >= b for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("n_list scales must be strictly increasing")
    elif experiment == "singular-sequence":
        raise ConfigError("singular-sequence needs n_list")

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
    if "csv" in formats and experiment not in _CSV_CAPABLE:
        raise ConfigError(f"{experiment} writes json only (csv requested)")

    return ExperimentConfig(
        experiment=experiment,
        output=OutputSpec(path=path, formats=tuple(formats)),
        potential=potential,
        dimension=dimension,
        grid_n=grid_n,
        r_max=r_max,
        ell_max=ell_max,
        outlier_tol=outlier_tol,
        z_list=z_list,
        z_window=z_window,
        lam=lam,
        n_list=n_list,
    )


def _config_to_dict(config: ExperimentConfig) -> dict:
    doc: dict = {
        "experiment": config.experiment,
        "dimension": config.dimension,
        "grid_n": config.grid_n,
        "r_max": config.r_max,
        "ell_max": config.ell_max,
        "output": {
            "path": config.output.path,
            "formats": list(config.output.formats),
        },
    }
    if config.potential is not None:
        doc["potential"] = {
            "name": config.potential.name,
            "params": {k: config.potential.params[k] for k in sorted(config.potential.params)},
        }
    if config.outlier_tol is not None:
        doc["outlier_tol"] = config.outlier_tol
    if config.z_list is not None:
        doc["z_list"] = [[z.real, z.imag] for z in config.z_list]
    if config.z_window is not None:
        doc["z_window"] = list(config.z_window)
    if config.lam is not None:
        doc["lambda"] = [config.lam.real, config.lam.imag]
    if config.n_list is not None:
        doc["n_list"] = list(config.n_list)
    return doc


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON form; parse_config inverts it exactly."""
    return json.dumps(_config_to_dict(config), sort_keys=True, indent=2) + "\n"


def _stage(stages: list, name: str, fn: Callable):
    start = time.perf_counter()
    try:
        result = fn()
    except ValueError as exc:
        raise RunFailure(f"{name}: {exc}") from exc
    stages.append((name, time.perf_counter() - start))
    return result


def _run_check_conditions(config, stages):
    pot = _build_potential(config.potential, config.dimension, config.experiment)
    report = _stage(stages, "conditions.build_report", lambda: build_report(pot))
    return report.to_json_dict(), None


def _run_bs_norm(config, stages):
    pot = _build_potential(config.potential, config.dimension, config.experiment)
    grid = default_bs_grid(config.grid_n, config.r_max)
    ell_max = config.ell_max
    base = _stage(
        stages,
        "birman_schwinger.assemble_bs z=0",
        lambda: assemble_bs(pot, 0.0, grid, ell_max=ell_max),
    )
    points = []
    for z in config.z_list:
        bs = _stage(
            stages,
            f"birman_schwinger.assemble_bs z={z.real:g}{z.imag:+g}j",
            lambda z=z: assemble_bs(pot, z, grid, ell_max=ell_max),
        )
        if bs.norm > base.norm * (1.0 + _BS_NORM_SLACK) + 1e-15:
            raise RunFailure(
                f"birman_schwinger.assemble_bs z={z}: norm {bs.norm:.6g} exceeds"
                f" the z=0 norm {base.norm:.6g} beyond the"
                f" {_BS_NORM_SLACK:.0%} discretization slack"
            )
        points.append(bs.summary())
    return {"base_norm": base.norm, "points": points}, None


def _run_hs_identity(config, stages):
    pot = _build_potential(config.potential, config.dimension, config.experiment)
    grid = log_uniform_grid(0.02, config.r_max, config.grid_n)
    result = _stage(
        stages,
        "birman_schwinger.hs_norm",
        lambda: hs_norm(pot, grid, ell_max=config.ell_max),
    )
    payload = {
        "matrix_route": json_float(result.matrix_route),
        "rollnik_route": json_float(result.rollnik_route),
        "rel_gap": json_float(result.rel_gap),
        "diverged": result.diverged,
    }
    return payload, None


def _run_spectrum(config, stages):
    pot = (
        _build_potential(config.potential, config.dimension, config.experiment)
        if config.potential is not None
        else None
    )
    sectors = []
    all_rows = []
    for ell in range(config.ell_max + 1):
        op = discretize_radial(pot, ell, config.r_max, config.grid_n)
        report = _stage(
            stages,
            f"spectral.spectrum ell={ell}",
            lambda op=op: spectrum(op, outlier_tol=config.outlier_tol),
        )
        rows = report.to_rows()
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
    payload = {"sectors": sectors}
    return payload, (("re", "im", "residual", "is_outlier"), all_rows)


def _run_pseudospectrum(config, stages):
    pot = (
        _build_potential(config.potential, config.dimension, config.experiment)
        if config.potential is not None
        else None
    )
    op = discretize_radial(pot, 0, config.r_max, config.grid_n)
    win = config.z_window
    field = _stage(
        stages,
        "spectral.pseudospectrum",
        lambda: pseudospectrum(op, (win[0], win[1]), (win[2], win[3])),
    )
    payload = {
        "re_values": [float(v) for v in field.re_values],
        "im_values": [float(v) for v in field.im_values],
        "sigma_min": [[float(v) for v in row] for row in field.sigma_min],
    }
    return payload, (("z_re", "z_im", "sigma_min"), field.to_rows())


def _run_identity_check(config, stages):
    probe = TestFunction("radial-gaussian-bump", _PROBE_SUPPORT, chirp=_PROBE_CHIRP)
    rows = _stage(
        stages,
        "multipliers.identity_term_rows",
        lambda: identity_term_rows(probe, config.lam),
    )
    if config.potential is not None:
        pot = _build_potential(config.potential, config.dimension, config.experiment)
        terms = _stage(
            stages,
            "multipliers.radi_identity_terms",
            lambda: radi_identity_terms(probe, config.lam, pot),
        )
        rows = rows + terms.rows()
    payload = {
        "lambda": [config.lam.real, config.lam.imag],
        "rows": rows,
    }
    fieldnames = ("identity_id", "term_name", "value_re", "value_im", "residual")
    return payload, (fieldnames, rows)


def _run_singular_sequence(config, stages):
    probe = TestFunction("radial-gaussian-bump", _SEQUENCE_SUPPORT)
    k = (math.sqrt(config.lam.real), 0.0, 0.0)
    with warnings.catch_warnings():
        # the fixed probe is deliberately unnormalized; the report rescales
        warnings.filterwarnings("ignore", message="probe is not L")
        report = _stage(
            stages,
            "spectral.singular_sequence_decay",
            lambda: singular_sequence_decay(probe, k, config.n_list),
        )
    payload = {
        "lambda": config.lam.real,
        "n_values": list(report.n_values),
        "equation_residuals": list(report.equation_residuals),
        "form_terms": list(report.form_terms),
        "residual_slope": report.residual_slope,
        "form_slope": report.form_slope,
    }
    fieldnames = ("n", "equation_residual", "form_term")
    return payload, (fieldnames, report.to_rows())


def _run_magnetic_smoke(config, stages):
    a_field = _build_potential(config.potential, config.dimension, config.experiment)
    probe = TestFunction("radial-gaussian-bump", _PROBE_SUPPORT, chirp=_PROBE_CHIRP)
    report = _stage(
        stages,
        "multipliers.magnetic_identity_smoke",
        lambda: magnetic_identity_smoke(probe, config.lam, None, a_field),
    )
    payload = {
        "field": config.potential.name,
        "lambda": [config.lam.real, config.lam.imag],
        "b_tau_sup": report.b_tau_sup,
        "b_tau_dot_x_sup": report.b_tau_dot_x_sup,
        "tangential_residual": report.tangential_residual,
        "identity_residual": report.identity_residual,
    }
    return payload, None


_RUNNERS = {
    "check-conditions": _run_check_conditions,
    "bs-norm": _run_bs_norm,
    "hs-identity": _run_hs_identity,
    "spectrum": _run_spectrum,
    "pseudospectrum": _run_pseudospectrum,
    "identity-check": _run_identity_check,
    "singular-sequence": _run_singular_sequence,
    "magnetic-smoke": _run_magnetic_smoke,
}


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
    """Write via temp file + rename; returns the content sha256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
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


def run(config: ExperimentConfig) -> RunManifest:
    """Dispatch one experiment, write its outputs and the manifest."""
    stages: list[tuple[str, float]] = []
    payload, csv_spec = _RUNNERS[config.experiment](config, stages)

    outputs: list[tuple[str, str]] = []
    base = config.output.path
    try:
        for fmt in config.output.formats:
            target = Path(f"{base}.{fmt}")
            if fmt == "json":
                data = _json_bytes(payload)
            else:
                if csv_spec is None:
                    raise RunFailure(f"{config.experiment} produced no csv table")
                fieldnames, rows = csv_spec
                data = _csv_bytes(fieldnames, rows)
            digest = _atomic_write(target, data)
            outputs.append((str(target), digest))
    except (ValueError, OSError) as exc:
        raise RunFailure(f"writing outputs: {exc}") from exc

    # manifest invariant: every listed file exists and hash-matches
    for path_str, digest in outputs:
        on_disk = hashlib.sha256(Path(path_str).read_bytes()).hexdigest()
        if on_disk != digest:
            raise RunFailure(f"output {path_str} hash mismatch after write")

    manifest = RunManifest(
        config=config,
        version=__version__,
        stages=tuple(stages),
        outputs=tuple(outputs),
    )
    _atomic_write(
        Path(f"{base}.manifest.json"),
        _json_bytes(manifest.to_json_dict()),
    )
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


def _read_config(path: str, overrides: Sequence[str]) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if overrides:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for item in overrides:
            _apply_override(raw, item)
        text = json.dumps(raw)
    return parse_config(text)


def _cmd_run(args) -> int:
    config = _read_config(args.config, args.set or [])
    manifest = run(config)
    print(json.dumps(manifest.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_validate(args) -> int:
    config = _read_config(args.config, args.set or [])
    sys.stdout.write(serialize_config(config))
    return 0


def _cmd_catalog(args) -> int:
    d = args.dim
    if d < 3:
        raise ConfigError("dimension must be an integer >= 3")
    table = thresholds(d)
    lines = [
        f"potential catalog (dimension {d})",
        "  hardy(a)                  attractive inverse-square, strength a relative to the sharp constant",
        "  coulomb_repulsive(c)      repulsive real tail +c/|x|",
        "  imaginary_hardy(beta)     purely imaginary inverse-square i*beta/|x|^2",
        "  gaussian(v0[, c_im])      (-v0 + i*c_im) exp(-|x|^2)",
        "  yukawa(g, mu)             -g exp(-mu|x|)/|x|",
        "  square_well(v0, r0)       -v0 on |x| < r0, zero outside",
        "",
        "magnetic catalog (magnetic-smoke)",
        "  azimuthal_inverse_square  A = (-x2, x1, 0)/|x|^2, tangential trace B_tau identically zero",
        "  uniform_z(b)              uniform field of strength b along the third axis",
        "  zero                      A = 0",
        "",
        f"thresholds (dimension {d})",
        f"  subordination b max   {table.thm12_b_max:.12g}",
        f"  lambda star           {table.lambda_star:.12g}",
        f"  sqrt(b3) max          {table.sqrt_b3_max:.12g}",
    ]
    if d != 3:
        lines.append("  (integral norms: Rollnik and L^(3/2) checks run at dimension 3 only)")
    print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-cert",
        description="certification experiments for -Delta + V with complex V",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the config document")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (dotted paths, JSON values)",
    )

    p_val = sub.add_parser("validate", help="validate a config and print its canonical form")
    p_val.add_argument("config", help="path to the config document")
    p_val.add_argument("--set", action="append", metavar="KEY=VALUE")

    p_cat = sub.add_parser("catalog", help="list potentials and thresholds")
    p_cat.add_argument("--dim", type=int, default=3, help="dimension (default 3)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "catalog": _cmd_catalog}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Config parsing, dispatch, output files, and the exit-code contract.

Heavy numerics are exercised through deliberately small grids; the point
here is the plumbing: every error message names its field, serialization
round-trips, outputs are deterministic and atomically written, and the
three exit classes (0 ok, 1 numerical failure, 2 config error) fire on
one instance each.
"""

import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_cert import spectral
from spectra_cert.birman_schwinger import (
    BSError,
    assemble_bs,
    default_bs_grid,
    hs_norm,
    log_uniform_grid,
)
from spectra_cert.cli import (
    EXPERIMENTS,
    ConfigError,
    RunFailure,
    _apply_thread_cap,
    _atomic_write,
    _run_bs_norm,
    main,
    parse_config,
    run,
    serialize_config,
)
from spectra_cert.multipliers import TestFunction as Probe
from spectra_cert.multipliers import (
    MultiplierError,
    identity_term_rows,
    magnetic_identity_smoke,
    radi_identity_terms,
)
from spectra_cert.conditions import ConditionError, build_report
from spectra_cert.numerics import EigenvalueError
from spectra_cert.potentials import (
    _ELECTRIC,
    _MAGNETIC,
    PotentialError,
    catalog,
    magnetic_catalog,
)
from spectra_cert.spectral import (
    SpectralError,
    discretize_radial,
    pseudospectrum,
    singular_sequence_decay,
    spectrum,
)

SAMPLE_CONFIGS = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.json"))

# the keys each experiment reads besides experiment, dimension and output
GRID = {"grid_n", "r_max", "ell_max"}
KEYS_READ = {
    "check-conditions": {"potential"},
    "bs-norm": {"potential", "z_list"} | GRID,
    "hs-identity": {"potential"} | GRID,
    "spectrum": {"potential", "outlier_tol"} | GRID,
    "pseudospectrum": {"potential", "grid_n", "r_max", "z_window"},
    "identity-check": {"potential", "lambda"},
    "singular-sequence": {"lambda", "n_list"},
    "magnetic-smoke": {"potential", "lambda"},
}
# a valid value for every key, given where an experiment does not read it
GRID_KEY_VALUES = {"grid_n": 9999, "r_max": 10.0, "ell_max": 2, "outlier_tol": 0.5}
INPUT_KEY_VALUES = {
    "potential": {"name": "gaussian", "params": {"v0": 1.0}},
    "z_list": [[-1.0, 0.0]],
    "z_window": [-1.0, 1.0, -0.5, 0.5],
    "lambda": [1.0, 0.5],
    "n_list": [2, 4],
}


# sample configs with overrides, for cases that no sample config covers as is
SAMPLE_VARIANTS = {
    "check_conditions_gaussian": (
        "check_conditions_hardy",
        'potential={"name": "gaussian", "params": {"v0": 1.0}}',
    ),
}


def sample_args(stem: str) -> list[str]:
    """The CLI arguments naming a sample config or one of its variants."""
    base, *overrides = SAMPLE_VARIANTS.get(stem, (stem,))
    path = next(p for p in SAMPLE_CONFIGS if p.stem == base)
    return [str(path)] + [arg for item in overrides for arg in ("--set", item)]


def make(experiment: str, **extra) -> str:
    """A minimal valid raw config for the experiment, as JSON text."""
    doc: dict = {"experiment": experiment}
    if experiment in ("check-conditions", "bs-norm", "hs-identity"):
        doc["potential"] = {"name": "gaussian", "params": {"v0": 1.0}}
    if experiment == "magnetic-smoke":
        doc["potential"] = {"name": "zero"}
        doc["lambda"] = [1.0, 0.0]
    if experiment == "bs-norm":
        doc["z_list"] = [[-1.0, 0.0]]
    if experiment == "pseudospectrum":
        doc["z_window"] = [-1.0, 1.0, -0.5, 0.5]
    if experiment == "identity-check":
        doc["lambda"] = [1.0, 0.5]
    if experiment == "singular-sequence":
        doc["lambda"] = 1.0
        doc["n_list"] = [2, 4, 8]
    doc.update(extra)
    return json.dumps(doc)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(make("spectrum"))
        assert cfg["dimension"] == 3
        assert cfg["grid_n"] == 256
        assert cfg["r_max"] == 40.0
        assert cfg["ell_max"] == 32
        assert cfg["output"] == {"path": "spectrum", "formats": ["json"]}

    def test_every_experiment_has_a_minimal_config(self):
        for exp in EXPERIMENTS:
            assert parse_config(make(exp))["experiment"] == exp

    def test_round_trip_through_serialization(self):
        texts = [
            make("bs-norm", z_list=[[-10.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            make("pseudospectrum", grid_n=64),
            make("identity-check", output={"path": "x/y", "formats": ["csv", "json"]}),
            make("singular-sequence", n_list=[2, 4, 8, 16]),
            make("spectrum", potential={"name": "hardy", "params": {"a": 0.5}}),
        ]
        for text in texts:
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg

    def test_config_is_its_canonical_json(self, tmp_path):
        docs = {p.stem: json.loads(p.read_text()) for p in SAMPLE_CONFIGS}
        docs.update({exp: json.loads(make(exp)) for exp in EXPERIMENTS})
        # the default 256-node pseudospectrum map takes seconds; 32 nodes do here
        docs["pseudospectrum"]["grid_n"] = 32
        for name, doc in docs.items():
            doc["output"] = {**doc.get("output", {}), "path": str(tmp_path / name)}
            before = copy.deepcopy(doc)
            cfg = parse_config(doc)
            assert doc == before, name
            assert json.loads(serialize_config(cfg)) == cfg, name
            assert parse_config(cfg) == cfg, name
            # perfbench reruns one parsed config on every pass
            before = copy.deepcopy(cfg)
            assert run(cfg)["config"] == before
            assert cfg == before, name

    def test_decoded_document_validates_the_same(self):
        text = make("bs-norm", grid_n=64)
        assert parse_config(json.loads(text)) == parse_config(text)

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_unknown_fields_named(self):
        with pytest.raises(ConfigError, match="grids_n"):
            parse_config(make("check-conditions", grids_n=3))
        with pytest.raises(ConfigError, match="pat"):
            parse_config(make("check-conditions", output={"pat": "x"}))

    def test_experiment_validated(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(json.dumps({"potential": {"name": "yukawa"}}))
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(json.dumps({"experiment": "eigensolve"}))
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(json.dumps({"experiment": ["spectrum"]}))

    def test_missing_potential_named(self):
        with pytest.raises(ConfigError, match="potential"):
            parse_config(json.dumps({"experiment": "check-conditions"}))

    def test_bs_norm_dimension_pinned(self, tmp_path, capsys):
        # only check-conditions runs at d != 3; every other experiment is a
        # config error, also where a potential would otherwise be built at d = 4
        gaussian = {"name": "gaussian", "params": {"v0": 1.0}}
        for exp in EXPERIMENTS:
            extra = {}
            if exp in ("spectrum", "pseudospectrum", "identity-check"):
                extra["potential"] = gaussian
            path = tmp_path / f"{exp}.json"
            path.write_text(
                make(exp, dimension=4, output={"path": str(tmp_path / exp)}, **extra)
            )
            if exp == "check-conditions":
                assert main(["validate", str(path)]) == 0
                capsys.readouterr()
                continue
            assert main(["run", str(path)]) == 2, exp
            assert "dimension is invalid: dimension must be 3" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.manifest.json"))

    def test_low_dimension_rejected(self):
        with pytest.raises(ConfigError, match=">= 3"):
            parse_config(make("check-conditions", dimension=2))

    def test_potential_errors_carry_context(self):
        with pytest.raises(ConfigError, match="no-such"):
            parse_config(make("check-conditions", potential={"name": "no-such"}))
        with pytest.raises(ConfigError, match="missing required parameter"):
            parse_config(make("check-conditions", potential={"name": "hardy"}))
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(
                make(
                    "check-conditions",
                    potential={"name": "hardy", "params": {"a": "big"}},
                )
            )

    def test_z_list_rules(self):
        with pytest.raises(ConfigError, match="z_list"):
            parse_config(json.dumps({
                "experiment": "bs-norm",
                "potential": {"name": "gaussian", "params": {"v0": 1.0}},
            }))
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config(make("bs-norm", z_list=[]))
        with pytest.raises(ConfigError, match="^z_list .*positive axis"):
            parse_config(make("bs-norm", z_list=[[1.0, 0.0]]))
        cfg = parse_config(make("bs-norm", z_list=[-2.0, [0.0, 1.0]]))
        assert cfg["z_list"] == [[-2.0, 0.0], [0.0, 1.0]]

    def test_z_window_rules(self):
        with pytest.raises(ConfigError, match="z_window"):
            parse_config(json.dumps({"experiment": "pseudospectrum"}))
        with pytest.raises(ConfigError, match="re_min"):
            parse_config(make("pseudospectrum", z_window=[0, 1, 0]))
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(make("pseudospectrum", z_window=[1, 0, 0, 1]))

    def test_lambda_rules(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(json.dumps({"experiment": "identity-check"}))
        with pytest.raises(ConfigError, match="real lambda"):
            parse_config(make("singular-sequence", **{"lambda": [1.0, 0.5]}))
        with pytest.raises(ConfigError, match="real lambda"):
            parse_config(make("singular-sequence", **{"lambda": -1.0}))
        with pytest.raises(ConfigError, match="Re lambda > 0"):
            parse_config(make("magnetic-smoke", **{"lambda": [-1.0, 2.0]}))
        # the radial-key table of a potential needs Re lambda > 0 too
        with pytest.raises(ConfigError, match="Re lambda > 0"):
            parse_config(
                make(
                    "identity-check",
                    potential={"name": "gaussian", "params": {"v0": 1.0}},
                    **{"lambda": [-1.0, 0.5]},
                )
            )

    def test_n_list_rules(self):
        with pytest.raises(ConfigError, match="two scales"):
            parse_config(make("singular-sequence", n_list=[4]))
        with pytest.raises(ConfigError, match="positive"):
            parse_config(make("singular-sequence", n_list=[0, 4]))
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(make("singular-sequence", n_list=[4, 4]))

    def test_knob_bounds(self):
        with pytest.raises(ConfigError, match="grid_n"):
            parse_config(make("spectrum", grid_n=4))
        with pytest.raises(ConfigError, match="r_max"):
            parse_config(make("spectrum", r_max=-1.0))
        with pytest.raises(ConfigError, match="ell_max"):
            parse_config(make("spectrum", ell_max=-1))
        with pytest.raises(ConfigError, match="outlier_tol"):
            parse_config(make("spectrum", outlier_tol=0.0))
        with pytest.raises(ConfigError, match="integer"):
            parse_config(make("spectrum", grid_n=12.5))

    def test_output_rules(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(make("spectrum", output={"path": "x", "formats": ["yaml"]}))
        with pytest.raises(ConfigError, match="json only"):
            parse_config(
                make("check-conditions", output={"path": "x", "formats": ["csv"]})
            )
        with pytest.raises(ConfigError, match="path"):
            parse_config(make("spectrum", output={"path": ""}))

    def test_sequence_rejects_potential(self):
        with pytest.raises(ConfigError, match="does not read 'potential'"):
            parse_config(
                make("singular-sequence", potential={"name": "yukawa"})
            )

    @settings(max_examples=40, deadline=None)
    @given(
        exp=st.sampled_from(sorted(EXPERIMENTS)),
        grid_n=st.integers(8, 4096),
        r_max=st.floats(0.5, 200.0, allow_nan=False),
        ell_max=st.integers(0, 64),
        fmt_csv=st.booleans(),
    )
    def test_parse_serialize_fixed_point(self, exp, grid_n, r_max, ell_max, fmt_csv):
        formats = ["json", "csv"] if fmt_csv else ["json"]
        if exp not in ("spectrum", "pseudospectrum", "identity-check", "singular-sequence"):
            formats = ["json"]
        if exp == "hs-identity":
            # its log-uniform grid needs 20 nodes; fewer is a config error
            grid_n = max(grid_n, 20)
        grid = {"grid_n": grid_n, "r_max": r_max, "ell_max": ell_max}
        read = KEYS_READ[exp]
        text = make(
            exp,
            output={"path": "p", "formats": formats},
            **{k: v for k, v in grid.items() if k in read},
        )
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


GAUSSIAN = catalog("gaussian", v0=1.0)
# the probes of the CLI runners
BUMP = Probe("radial-gaussian-bump", 2.5, chirp=0.4)
SEQUENCE_BUMP = Probe("radial-gaussian-bump", 1.0)


def _complex(v) -> complex:
    return complex(*v) if isinstance(v, list) else complex(v)


_BS_GRID = default_bs_grid(64, 40.0)


def _bs_norm(z_list: list, ell_max: int) -> None:
    for z in (0.0, *map(_complex, z_list)):
        assemble_bs(GAUSSIAN, z, _BS_GRID, ell_max=ell_max)


# (experiment, config besides the key, key, the library entry that reads the
# key, run on its value, and values on both sides of the entry's rules); the
# values are finite, since parse_config refuses any other number first
AGREEMENT = [
    (
        "check-conditions",
        {},
        "dimension",
        lambda v: build_report(catalog("gaussian", dimension=v, v0=1.0)),
        [2, 0, 3, 4, 5, 10**200],
    ),
    # every other experiment needs d = 3 on top of d >= 3
    (
        "bs-norm",
        {"grid_n": 64, "ell_max": 2},
        "dimension",
        lambda v: assemble_bs(catalog("gaussian", dimension=v, v0=1.0), -1, _BS_GRID, ell_max=2),
        [2, 3, 4, 10**200],
    ),
    (
        "bs-norm",
        {"grid_n": 64, "ell_max": 2},
        "z_list",
        lambda v: _bs_norm(v, 2),
        [[[-1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [0], [[-1.0, 0.0], [2.5, -0.0]]],
    ),
    (
        "bs-norm",
        {"grid_n": 64, "z_list": [[-1.0, 0.0]]},
        "ell_max",
        lambda v: _bs_norm([-1.0], v),
        [-1, 0, 128, 129],
    ),
    # at z = 0 no Bessel factor is formed, so the cap does not apply
    ("bs-norm", {"grid_n": 64, "z_list": [0]}, "ell_max", lambda v: _bs_norm([0], v), [-1, 129]),
    (
        "hs-identity",
        {"grid_n": 64},
        "ell_max",
        lambda v: hs_norm(GAUSSIAN, log_uniform_grid(0.02, 40.0, 64), ell_max=v),
        [-1, 0, 129],
    ),
    # the run builds sectors 0..ell_max; validation builds the largest one
    (
        "spectrum",
        {"grid_n": 64},
        "ell_max",
        lambda v: discretize_radial(GAUSSIAN, v, 40.0, 64),
        [-1, 0, 2, spectral._ELL_MAX + 1, 10**15],
    ),
    # h^2 past the float range
    (
        "spectrum",
        {"grid_n": 64},
        "r_max",
        lambda v: discretize_radial(None, 0, v, 64),
        [40.0, 1e300],
    ),
    (
        "pseudospectrum",
        {"grid_n": 16},
        "r_max",
        lambda v: discretize_radial(None, 0, v, 16),
        [40.0, 1e300],
    ),
    # a potential that overflows the sector is refused on its own key, not on r_max
    (
        "spectrum",
        {"grid_n": 64},
        "potential",
        lambda v: discretize_radial(catalog(v["name"], **v["params"]), 0, 40.0, 64),
        [
            {"name": "gaussian", "params": {"v0": 1.0}},
            {"name": "square_well", "params": {"v0": 1e300, "r0": 1.0}},
            {"name": "imaginary_hardy", "params": {"beta": 1e300}},
        ],
    ),
    (
        "spectrum",
        {"grid_n": 64},
        "outlier_tol",
        lambda v: spectrum(discretize_radial(GAUSSIAN, 0, 40.0, 64), outlier_tol=v),
        [0.5, 1e-12, 0.0, -1.0],
    ),
    (
        "pseudospectrum",
        {"grid_n": 16},
        "z_window",
        lambda v: pseudospectrum(discretize_radial(None, 0, 40.0, 16), v[:2], v[2:]),
        [
            [-1.0, 1.0, -0.5, 0.5],
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 1.0],
            [0, 1, 0, -1],
            [-1.0, 1.0, -1e308, 1e308],
        ],
    ),
    (
        "singular-sequence",
        {},
        "n_list",
        lambda v: singular_sequence_decay(SEQUENCE_BUMP, (1.0, 0.0, 0.0), v),
        [[2, 4], [], [4], [4, 4], [8, 4], [0, 4], [-2, 4], [1, 2**511], [1, 2**512], [2, 10**200]],
    ),
    (
        "magnetic-smoke",
        {},
        "lambda",
        lambda v: magnetic_identity_smoke(BUMP, _complex(v), magnetic_catalog("zero")),
        [[1.0, 0.0], [0.5, -2.0], [0.0, 1.0], [-1.0, 2.0]],
    ),
    (
        "identity-check",
        {"potential": {"name": "gaussian", "params": {"v0": 1.0}}},
        "lambda",
        lambda v: radi_identity_terms(BUMP, _complex(v), GAUSSIAN),
        [[1.0, 0.5], [0.0, 1.0], [-1.0, 0.5]],
    ),
    # without a potential every lambda has its rows (the key identity drops out)
    (
        "identity-check",
        {},
        "lambda",
        lambda v: identity_term_rows(BUMP, _complex(v)),
        [[-1.0, 0.5], [0.0, 0.0]],
    ),
]


class TestValidateAgreesWithTheLibrary:
    """parse_config refuses a value exactly when the library entry that reads
    it, run on the same value, raises its argument check's error, and names
    the key first and the library's reason after it."""

    @pytest.mark.parametrize(
        "experiment, extra, key, entry, value",
        [
            pytest.param(exp, extra, key, entry, value, id=f"{exp}-{key}={value}"[:48])
            for exp, extra, key, entry, values in AGREEMENT
            for value in values
        ],
    )
    def test_refusals_agree(self, monkeypatch, experiment, extra, key, entry, value):
        monkeypatch.setattr(spectral, "_PSEUDO_GRID_N", 4)
        try:
            entry(value)
            refusal = None
        except (BSError, ConditionError, MultiplierError, PotentialError, SpectralError) as exc:
            refusal = str(exc)
        if refusal is None:
            parse_config(make(experiment, **extra, **{key: value}))
        else:
            with pytest.raises(ConfigError) as info:
                parse_config(make(experiment, **extra, **{key: value}))
            assert str(info.value).startswith(f"{key} ")
            assert str(info.value).endswith(refusal)


class TestRunExperiments:
    def out(self, tmp_path, name, formats=("json",)):
        return {"path": str(tmp_path / name), "formats": list(formats)}

    def test_check_conditions_writes_report(self, tmp_path):
        cfg = parse_config(
            make(
                "check-conditions",
                potential={"name": "hardy", "params": {"a": 0.5}},
                output=self.out(tmp_path, "cc"),
            )
        )
        manifest = run(cfg)
        assert manifest["version"]
        [output] = manifest["outputs"]
        data = (tmp_path / "cc.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == output["sha256"]
        doc = json.loads(data)
        assert doc["a"] == 0.5
        assert doc["verdicts"]["thm11"] == "pass"
        assert doc["rollnik"] == "inf"
        assert doc["Λ"] == 0.25
        assert (tmp_path / "cc.manifest.json").exists()

    def test_check_conditions_tiny_deep_square_well_passes_nothing(self, tmp_path):
        # all of V sits below r = 1e-7; its exact a = 4 v0 r0^2 = 400
        cfg = parse_config(
            make(
                "check-conditions",
                potential={"name": "square_well", "params": {"v0": 1e16, "r0": 1e-7}},
                output=self.out(tmp_path, "cc"),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "cc.json").read_bytes())
        assert doc["a"] == pytest.approx(400.0, rel=1e-14)
        assert doc["Λ"] == pytest.approx(200.0, rel=1e-14)
        assert "pass" not in doc["verdicts"].values()

    def test_identity_check_csv_schema_and_residuals(self, tmp_path):
        cfg = parse_config(
            make(
                "identity-check",
                potential={"name": "gaussian", "params": {"v0": 1.0}},
                output=self.out(tmp_path, "idc", ("json", "csv")),
            )
        )
        run(cfg)
        with open(tmp_path / "idc.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {
            "identity_id",
            "term_name",
            "value_re",
            "value_im",
            "residual",
        }
        assert all(float(r["residual"]) <= 1e-6 for r in rows)
        ids = {r["identity_id"] for r in rows}
        assert {"real-part", "imag-part", "hessian", "key-gauge", "radial-key"} == ids

    def test_identity_check_negative_real_part_drops_key(self, tmp_path):
        cfg = parse_config(
            make(
                "identity-check",
                **{"lambda": [-1.0, 0.0]},
                output=self.out(tmp_path, "idneg"),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "idneg.json").read_text())
        ids = {r["identity_id"] for r in doc["rows"]}
        assert "key-gauge" not in ids and "hessian" in ids

    def test_spectrum_square_well_has_one_outlier_row(self, tmp_path):
        cfg = parse_config(
            make(
                "spectrum",
                potential={"name": "square_well", "params": {"v0": math.pi**2, "r0": 1.0}},
                grid_n=96,
                r_max=12.0,
                ell_max=2,
                output=self.out(tmp_path, "sw", ("json", "csv")),
            )
        )
        run(cfg)
        with open(tmp_path / "sw.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["re", "im", "residual", "is_outlier"]
            flags = [r["is_outlier"] for r in reader]
        assert flags.count("True") == 1
        assert len(flags) == 3 * 96
        doc = json.loads((tmp_path / "sw.json").read_text())
        assert [s["outlier_count"] for s in doc["sectors"]] == [1, 0, 0]

    def test_identical_configs_are_byte_identical(self, tmp_path):
        text = make(
            "spectrum",
            potential={"name": "imaginary_hardy", "params": {"beta": 0.2}},
            grid_n=48,
            r_max=10.0,
            ell_max=1,
            output=self.out(tmp_path, "det", ("json", "csv")),
        )
        run(parse_config(text))
        first = {
            "json": (tmp_path / "det.json").read_bytes(),
            "csv": (tmp_path / "det.csv").read_bytes(),
        }
        run(parse_config(text))
        assert (tmp_path / "det.json").read_bytes() == first["json"]
        assert (tmp_path / "det.csv").read_bytes() == first["csv"]

    def test_pseudospectrum_grid(self, tmp_path):
        cfg = parse_config(
            make(
                "pseudospectrum",
                grid_n=32,
                r_max=8.0,
                output=self.out(tmp_path, "ps", ("json", "csv")),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "ps.json").read_text())
        assert len(doc["re_values"]) == 40
        assert len(doc["sigma_min"]) == 40
        with open(tmp_path / "ps.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["z_re", "z_im", "sigma_min"]
            assert len(list(reader)) == 1600

    def test_singular_sequence_outputs(self, tmp_path):
        cfg = parse_config(
            make(
                "singular-sequence",
                **{"lambda": 0.0, "n_list": [2, 4, 8, 16]},
                output=self.out(tmp_path, "seq", ("json", "csv")),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "seq.json").read_text())
        assert doc["residual_slope"] == pytest.approx(-2.0, abs=1e-6)
        with open(tmp_path / "seq.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["n", "equation_residual", "form_term"]
            assert len(list(reader)) == 4

    def test_bs_norm_summaries(self, tmp_path):
        cfg = parse_config(
            make(
                "bs-norm",
                potential={"name": "hardy", "params": {"a": 0.5}},
                grid_n=64,
                ell_max=2,
                z_list=[[-1.0, 0.0], [0.0, 1.0]],
                output=self.out(tmp_path, "bs"),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "bs.json").read_text())
        assert set(doc["points"][0]) == {
            "z_re",
            "z_im",
            "norm",
            "hs_norm",
            "per_ell_norms",
            "tail_warning",
        }
        for point in doc["points"]:
            assert point["norm"] <= doc["base_norm"] * 1.02 + 1e-15

    def test_bs_norm_point_is_json_ready(self):
        # the point of one z as the runner builds it, keys in writing order
        cfg = parse_config(make("bs-norm", grid_n=80, ell_max=2, z_list=[[0.0, 1.0]]))
        payload, _ = _run_bs_norm(cfg, GAUSSIAN, [])
        (s,) = payload["points"]
        assert list(s) == [
            "z_re",
            "z_im",
            "norm",
            "hs_norm",
            "per_ell_norms",
            "tail_warning",
        ]
        json.dumps(s)
        assert s["z_im"] == 1.0
        assert s["hs_norm"] >= s["norm"]

    def test_hs_identity_routes_agree(self, tmp_path):
        cfg = parse_config(
            make(
                "hs-identity",
                grid_n=200,
                ell_max=16,
                output=self.out(tmp_path, "hs"),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "hs.json").read_text())
        assert doc["diverged"] is False
        assert doc["rel_gap"] < 0.02

    def test_hs_identity_divergent_flagged(self, tmp_path):
        cfg = parse_config(
            make(
                "hs-identity",
                potential={"name": "hardy", "params": {"a": 0.5}},
                output=self.out(tmp_path, "hsdiv"),
            )
        )
        run(cfg)
        doc = json.loads((tmp_path / "hsdiv.json").read_text())
        assert doc["diverged"] is True
        assert doc["matrix_route"] == "inf"

    def test_magnetic_smoke_zero_field(self, tmp_path):
        cfg = parse_config(make("magnetic-smoke", output=self.out(tmp_path, "mg")))
        run(cfg)
        doc = json.loads((tmp_path / "mg.json").read_text())
        assert doc["b_tau_sup"] == 0.0
        assert doc["identity_residual"] < 1e-5

    @pytest.mark.parametrize("config_path", SAMPLE_CONFIGS, ids=lambda p: p.stem)
    def test_sample_config_runs(self, tmp_path, config_path):
        raw = json.loads(config_path.read_text())
        raw["output"]["path"] = str(tmp_path / config_path.stem)
        manifest = run(parse_config(json.dumps(raw)))
        assert [Path(out["path"]).suffix for out in manifest["outputs"]] == [
            "." + fmt for fmt in raw["output"]["formats"]
        ]
        for out in manifest["outputs"]:
            assert hashlib.sha256(Path(out["path"]).read_bytes()).hexdigest() == out["sha256"]
        assert (tmp_path / f"{config_path.stem}.manifest.json").exists()


CATALOG_DIM3 = """\
potential catalog (dimension 3)
  hardy(a)                  attractive inverse-square, strength a relative to the sharp constant
  coulomb_repulsive(c)      repulsive real tail +c/|x|
  imaginary_hardy(beta)     purely imaginary inverse-square i*beta/|x|^2
  gaussian(v0[, c_im])      (-v0 + i*c_im) exp(-|x|^2)
  yukawa(g, mu)             -g exp(-mu|x|)/|x|
  square_well(v0, r0)       -v0 on |x| < r0, zero outside

magnetic catalog (magnetic-smoke)
  azimuthal_inverse_square  A = (-x2, x1, 0)/|x|^2, tangential trace B_tau identically zero
  uniform_z(b)              uniform field of strength b along the third axis
  zero                      A = 0

thresholds (dimension 3)
  subordination b max   0.142857142857
  lambda star           0.152614097641
  sqrt(b3) max          0.552092291559
"""


class TestMainExitCodes:
    def write(self, tmp_path, text):
        p = tmp_path / "config.json"
        p.write_text(text)
        return str(p)

    def test_run_ok(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            make("identity-check", output={"path": str(tmp_path / "r")}),
        )
        assert main(["run", path]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["outputs"][0]["path"].endswith("r.json")

    @pytest.mark.parametrize(
        "name, params",
        [
            ("square_well", {"v0": 1.0, "r0": 1e200}),
            ("yukawa", {"g": 1.0, "mu": 1e-300}),
            ("yukawa", {"g": 1.0, "mu": 1e300}),
        ],
    )
    def test_check_conditions_at_the_float_range_ends_is_0(self, tmp_path, name, params):
        # f(r0) = v0 r0^2 overflowed to an OverflowError traceback, and
        # int |V|^(3/2) to "nan" as 0 * inf
        potential = {"name": name, "params": params}
        path = self.write(
            tmp_path,
            make("check-conditions", potential=potential, output={"path": str(tmp_path / "cc")}),
        )
        assert main(["run", path]) == 0
        text = (tmp_path / "cc.json").read_text()
        assert "nan" not in text
        if name == "square_well":
            doc = json.loads(text)
            assert doc["a"] == doc["Λ"] == "inf"

    def test_validate_prints_canonical_form(self, tmp_path, capsys):
        path = self.write(tmp_path, make("spectrum"))
        assert main(["validate", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid_n"] == 256
        # only the keys the experiment reads are echoed
        path = self.write(tmp_path, make("check-conditions"))
        assert main(["validate", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"experiment", "dimension", "output", "potential"}

    def test_set_is_described_for_run_and_validate(self, capsys):
        for command in ("run", "validate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "override a config field" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [["catalog"], ["validate", "scripts/configs/spectrum_square_well.json"]],
        ids=["catalog", "validate"],
    )
    def test_closed_stdout_ends_quietly(self, args):
        # the reader is gone before the first write: no traceback, exit 0
        root = Path(__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        ))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spectra_cert.cli", *args],
                cwd=root, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_config_error_is_2(self, tmp_path, capsys):
        path = self.write(tmp_path, make("bs-norm", dimension=4))
        assert main(["run", path]) == 2
        assert "config error: dimension is invalid: dimension must be 3" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_is_1(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise MultiplierError("quadrature did not settle")

        monkeypatch.setattr("spectra_cert.cli.identity_term_rows", boom)
        path = self.write(
            tmp_path,
            make("identity-check", output={"path": str(tmp_path / "x")}),
        )
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "multipliers.identity_term_rows" in err
        assert "did not settle" in err

    def test_solver_failure_is_1(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise EigenvalueError("QR iteration failed to converge")

        monkeypatch.setattr("spectra_cert.cli.spectrum", boom)
        path = self.write(
            tmp_path,
            make("spectrum", grid_n=8, ell_max=0, output={"path": str(tmp_path / "x")}),
        )
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "numerical check failed" in err
        assert "failed to converge" in err

    def test_bs_norm_exceeding_base_is_1(self, tmp_path, capsys, monkeypatch):
        # a negative slack makes any nonzero norm exceed the z = 0 norm
        monkeypatch.setattr("spectra_cert.birman_schwinger._BS_NORM_SLACK", -0.9)
        path = self.write(
            tmp_path,
            make("bs-norm", grid_n=120, ell_max=1, output={"path": str(tmp_path / "x")}),
        )
        assert main(["run", path]) == 1
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, extra, message",
        [
            ("check-conditions", {"potential": [1]}, "potential must be an object with name and params"),
            (
                "check-conditions",
                {"potential": {"name": "gaussian", "params": {"v0": 1.0}, "kind": "x"}},
                "unknown potential field 'kind'",
            ),
            ("check-conditions", {"potential": {"params": {"v0": 1.0}}}, "potential needs a name"),
            (
                "check-conditions",
                {"potential": {"name": "gaussian", "params": [1.0]}},
                "potential params must be an object",
            ),
            ("spectrum", {"r_max": "40"}, "r_max must be a number"),
            ("bs-norm", {"z_list": [[-1.0, 0.0], "i"]}, "z_list entries must be numbers or [re, im] pairs"),
            ("singular-sequence", {"n_list": 4}, "n_list must be a list of scales"),
            ("spectrum", {"output": "out"}, "output must be an object with path and formats"),
            ("spectrum", {"output": {"formats": []}}, "output formats must be a nonempty list"),
        ],
        ids=[
            "potential-list", "potential-field", "potential-name", "params-list", "r_max-string",
            "z_list-string", "n_list-int", "output-string", "formats-empty",
        ],
    )
    def test_malformed_block_is_2_and_named(self, tmp_path, capsys, experiment, extra, message):
        path = self.write(tmp_path, make(experiment, **extra))
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_set_creates_a_missing_params_block(self, tmp_path, capsys):
        path = self.write(tmp_path, make("check-conditions", potential={"name": "gaussian"}))
        assert main(["validate", path]) == 2
        assert "missing required parameter 'v0'" in capsys.readouterr().err
        assert main(["validate", path, "--set", "potential.params.v0=2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["potential"] == {"name": "gaussian", "params": {"v0": 2}}

    def test_set_overrides(self, tmp_path, capsys):
        path = self.write(tmp_path, make("bs-norm"))
        assert (
            main(["validate", path, "--set", "potential.params.v0=2.5", "--set", "grid_n=512"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["potential"]["params"]["v0"] == 2.5
        assert doc["grid_n"] == 512

    def assert_unread_keys_are_2(self, tmp_path, capsys, config_path, values):
        experiment = json.loads(config_path.read_text())["experiment"]
        for key in sorted(set(values) - KEYS_READ[experiment]):
            code = main(
                [
                    "run",
                    str(config_path),
                    "--set",
                    f"output.path={tmp_path / config_path.stem}",
                    "--set",
                    f"{key}={json.dumps(values[key])}",
                ]
            )
            assert code == 2, key
            assert f"{experiment} does not read {key!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("config_path", SAMPLE_CONFIGS, ids=lambda p: p.stem)
    def test_unread_grid_key_is_2(self, tmp_path, capsys, config_path):
        # e.g. --set grid_n=9999 on check-conditions, which reads no grid
        self.assert_unread_keys_are_2(tmp_path, capsys, config_path, GRID_KEY_VALUES)

    @pytest.mark.parametrize("config_path", SAMPLE_CONFIGS, ids=lambda p: p.stem)
    def test_unread_key_is_2(self, tmp_path, capsys, config_path):
        # e.g. --set z_list=[[-1.0, 0.0]] on check-conditions
        self.assert_unread_keys_are_2(tmp_path, capsys, config_path, INPUT_KEY_VALUES)

    def test_sample_configs_cover_every_experiment(self):
        used = {json.loads(p.read_text())["experiment"] for p in SAMPLE_CONFIGS}
        assert used == set(EXPERIMENTS) == set(KEYS_READ)

    @pytest.mark.parametrize(
        "stem, key, value",
        [
            ("spectrum_square_well", "r_max", "Infinity"),
            ("bs_norm_hardy", "z_list", "[NaN]"),
            ("pseudospectrum_imaginary_hardy", "z_window", "[-Infinity, 6.0, -2.0, 2.0]"),
            ("hs_identity_gaussian", "potential.params.v0", "NaN"),
            ("singular_sequence", "lambda", "Infinity"),
        ],
    )
    def test_non_finite_number_is_2(self, tmp_path, capsys, stem, key, value):
        config_path = next(p for p in SAMPLE_CONFIGS if p.stem == stem)
        code = main(
            [
                "run",
                str(config_path),
                "--set",
                f"output.path={tmp_path / stem}",
                "--set",
                f"{key}={value}",
            ]
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("key, value", [("grid_n", "12"), ("r_max", "0.01")])
    def test_hs_identity_grid_bounds_are_2(self, tmp_path, capsys, command, key, value):
        # the hs-identity grid runs from r = 0.02 with at least 20 nodes
        config_path = next(p for p in SAMPLE_CONFIGS if p.stem == "hs_identity_gaussian")
        code = main(
            [
                command,
                str(config_path),
                "--set",
                f"output.path={tmp_path / config_path.stem}",
                "--set",
                f"{key}={value}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"config error: {key} is invalid: need ")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "stem, key, value",
        [
            ("spectrum_square_well", "r_max", "1e-300"),
            ("spectrum_square_well", "r_max", "1e-80"),
            ("pseudospectrum_imaginary_hardy", "r_max", "1e-300"),
            ("spectrum_square_well", "r_max", "1e300"),
            ("pseudospectrum_imaginary_hardy", "r_max", "1e300"),
            pytest.param(
                "spectrum_square_well",
                "ell_max",
                str(10**200),
                id="spectrum_square_well-ell_max-1e200",
            ),
            ("bs_norm_hardy", "ell_max", "200"),
            *(
                pytest.param(stem, "grid_n", str(10**30), id=f"{stem}-grid_n-1e30")
                for stem in (
                    "spectrum_square_well",
                    "pseudospectrum_imaginary_hardy",
                    "hs_identity_gaussian",
                    "bs_norm_hardy",
                )
            ),
            ("bs_norm_hardy", "grid_n", "7000"),
            *(
                pytest.param(stem, "grid_n", str(10**15), id=f"{stem}-grid_n-1e15")
                for stem in (
                    "spectrum_square_well",
                    "pseudospectrum_imaginary_hardy",
                    "hs_identity_gaussian",
                )
            ),
            *(
                pytest.param(stem, "dimension", str(10**200), id=f"{stem}-dimension-1e200")
                for stem in ("check_conditions_hardy", "check_conditions_gaussian")
            ),
            pytest.param(
                "singular_sequence", "n_list", f"[2, {10**200}]", id="singular_sequence-n_list-1e200"
            ),
        ],
    )
    def test_grid_that_cannot_be_built_is_2(
        self, tmp_path, capsys, command, stem, key, value
    ):
        # a sector operator past double range, Bessel factors past the
        # l <= 128 cap at z != 0, a grid numpy cannot allocate or no address
        # space can hold (10^15 nodes: 7 PiB per int64 array), geometric
        # panels that underflow to r = 0, a Hardy constant ((d-2)/2)^2 or
        # an n^2 past the float range: refused before anything is computed
        code = main(
            [
                command,
                *sample_args(stem),
                "--set",
                f"output.path={tmp_path / stem}",
                "--set",
                f"{key}={value}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: {key} " in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "stem, param", [("spectrum_square_well", "v0"), ("pseudospectrum_imaginary_hardy", "beta")]
    )
    def test_potential_that_overflows_the_sector_is_2(
        self, tmp_path, capsys, command, stem, param
    ):
        # the free sector builds at this r_max, so the refusal names the potential
        args = [f"output.path={tmp_path / stem}", f"potential.params.{param}=1e300"]
        code = main([command, *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "config error: potential is invalid: the sector operator overflows"
        )
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "stem, stage, overrides",
        [
            ("bs_norm_hardy", "birman_schwinger.assemble_bs z=0", ["z_list=[0]"]),
            ("hs_identity_gaussian", "birman_schwinger.hs_norm", []),
        ],
    )
    def test_sectors_that_no_memory_holds_are_1(self, tmp_path, capsys, stem, stage, overrides):
        # ell_max = 10^15 validates, then the sector arrays (7 PiB or more)
        # fail to allocate at once: one stderr line naming the stage
        args = [f"output.path={tmp_path / stem}", f"ell_max={10**15}", *overrides]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"numerical check failed: {stage}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("b", ["1e155", "1e300"])
    def test_uniform_field_whose_square_overflows_is_2(self, tmp_path, capsys, command, b):
        # the identity takes (b/2)^2 off both sides; b^2 must be a float
        stem = "magnetic_smoke_uniform"
        args = [f"output.path={tmp_path / stem}", f"potential.params.b={b}"]
        code = main([command, *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 2
        assert "parameter b must be finite when squared" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("mu", ["1e5", "1e7"])
    def test_small_bs_norms_run_as_they_validate(self, tmp_path, capsys, command, mu):
        # sector norms near 1e-7 put theta = sigma^2 below ARPACK's floor
        # eps^(2/3): the run exited 1 on its Ritz residual check
        stem = "bs_norm_hardy"
        args = [
            f"output.path={tmp_path / stem}",
            f'potential={{"name": "yukawa", "params": {{"g": 1.0, "mu": {mu}}}}}',
            "grid_n=256",
            "ell_max=8",
        ]
        code = main([command, *sample_args(stem), *(a for item in args for a in ("--set", item))])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_strongest_uniform_field_runs_clean(self, tmp_path, capsys):
        stem = "magnetic_smoke_uniform"
        args = [f"output.path={tmp_path / stem}", "potential.params.b=1e154"]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / f"{stem}.json").read_text()) == {
            "b_tau_dot_x_sup": 1.4425865552057938e138,
            "b_tau_sup": 9.999499987499377e153,
            "field": "uniform_z",
            "identity_residual": 0.0,
            "lambda": [1.0, 0.5],
            "tangential_residual": 1.7457838052471984e-16,
        }

    def test_strongest_gaussian_gets_its_constants(self, tmp_path, capsys):
        # the sups are read on the unit row: a = 4 v0 / e, b1 = 2 sqrt(v0 / e)
        stem = "check_conditions_hardy"
        args = [
            f"output.path={tmp_path / stem}",
            'potential={"name": "gaussian", "params": {"v0": 1e308}}',
        ]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / f"{stem}.json").read_text())
        assert doc["a"] == pytest.approx(4.0 / math.e * 1e308, rel=1e-15)
        assert doc["b1"] == pytest.approx(2e154 / math.sqrt(math.e), rel=1e-15)

    def test_key_identity_that_leaves_the_float_range_is_1(self, tmp_path, capsys):
        # at lambda = 1e300 (1 + i) the key-gauge lhs is infinite on both
        # rules and their difference NaN; the settle guard must refuse it
        # before the JSON writer meets it, and no numpy warning reaches stderr
        stem = "identity_check_gaussian"
        args = [f"output.path={tmp_path / stem}", "lambda=[1e300,1e300]"]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "numerical check failed: multipliers.identity_term_rows: "
            "id4 quadrature did not settle between n=320 and n=640\n"
        )
        assert not list(tmp_path.iterdir())

    def test_amplitude_past_the_float_range_is_2(self, tmp_path, capsys):
        # hardy(a = 1e308) at d = 7 has amp = -a (5/2)^2 = -6.25e308: a
        # config error before any constant is read off the row
        stem = "check_conditions_hardy"
        args = [
            f"output.path={tmp_path / stem}",
            'potential={"name": "hardy", "params": {"a": 1e308}}',
            "dimension=7",
        ]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "config error: potential 'hardy': hardy: amplitude -inf leaves the float range\n"
        )
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "g, overrides, stage",
        [
            # sigma_max of sector 0 at z = 0 is near 6e310
            ("1e308", [], "birman_schwinger.assemble_bs z=0: sector norm"),
            # at z = -1e-20 every |M_l|_F fits (|M_0|_F = 1.7e308), the HS
            # estimate 1.9e308 does not
            ("2.5e304", ["z_list=[[-1e-20, 0]]"], "birman_schwinger.assemble_bs z=-1e-20+0j: HS"),
        ],
        ids=["assemble_bs", "hs_estimate"],
    )
    def test_bs_norms_past_the_float_range_are_1(self, tmp_path, capsys, g, overrides, stage):
        stem = "bs_norm_hardy"
        args = [
            f"output.path={tmp_path / stem}",
            f'potential={{"name": "yukawa", "params": {{"g": {g}, "mu": 1e-6}}}}',
            "grid_n=20",
            "r_max=1e4",
            *overrides,
        ]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"numerical check failed: {stage}")
        assert captured.err.endswith("leaves the float range\n")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_hs_norm_past_the_float_range_is_1(self, tmp_path, capsys):
        # the Rollnik norm of this yukawa row reads +inf; the report said
        # "diverged": true and exited 0
        stem = "hs_identity_gaussian"
        args = [
            f"output.path={tmp_path / stem}",
            'potential={"name": "yukawa", "params": {"g": 1e305, "mu": 1e-6}}',
            "grid_n=200",
            "ell_max=4",
        ]
        code = main(["run", *sample_args(stem), *(a for item in args for a in ("--set", item))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "numerical check failed: birman_schwinger.hs_norm: Rollnik norm leaves the float range\n"
        )
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("overrides", [["grid_n=3130"], ["grid_n=6000", "ell_max=1"]])
    def test_grid_where_v_leaves_the_float_range_is_2(
        self, tmp_path, capsys, command, overrides
    ):
        # 0.5 r^-2 overflows below r ~ 4e-155, which grid_n = 3130 reaches
        config_path = next(p for p in SAMPLE_CONFIGS if p.stem == "bs_norm_hardy")
        args = [command, str(config_path), "--set", f"output.path={tmp_path / 'bs'}"]
        code = main(args + [arg for item in overrides for arg in ("--set", item)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: grid_n " in captured.err
        assert "|V| is not finite" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())
        assert main(["validate", str(config_path), "--set", "grid_n=3120"]) == 0
        assert main(["validate", str(config_path)]) == 0

    def test_ell_max_past_the_bessel_cap_is_valid_at_z_zero(self, tmp_path, capsys):
        config_path = next(p for p in SAMPLE_CONFIGS if p.stem == "bs_norm_hardy")
        args = ["validate", str(config_path), "--set", "ell_max=200"]
        assert main(args + ["--set", "z_list=[0]"]) == 0
        assert main(args + ["--set", "z_list=[[0.0, 0.0], [-1.0, 0.0]]"]) == 2

    def test_dimension_as_potential_param_is_2(self, tmp_path, capsys):
        config_path = next(p for p in SAMPLE_CONFIGS if p.stem == "check_conditions_hardy")
        code = main(["validate", str(config_path), "--set", "potential.params.dimension=4"])
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    def test_bad_set_is_2(self, tmp_path, capsys):
        path = self.write(tmp_path, make("check-conditions"))
        assert main(["validate", path, "--set", "grid_n"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_catalog_lists_names_and_thresholds(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        # every row, in row order, electric before magnetic
        names = tuple(_ELECTRIC) + tuple(_MAGNETIC)
        at = [out.find(f"\n  {name}") for name in names]
        assert min(at) > 0 and at == sorted(at), dict(zip(names, at))
        assert "hardy(a)" in out
        assert "(-v0 + i*c_im) exp(-|x|^2)" in out
        assert "yukawa(g, mu)             -g exp(-mu|x|)/|x|" in out
        assert "tangential trace B_tau identically zero" in out
        assert "uniform_z" in out
        assert "lambda star" in out

    def test_catalog_dim3_output_is_pinned(self, capsys):
        # byte for byte: the rows, their order and every printed threshold digit
        assert main(["catalog", "--dim", "3"]) == 0
        assert capsys.readouterr().out == CATALOG_DIM3

    def test_catalog_off_dimension_3_notes_the_integral_norms(self, capsys):
        assert main(["catalog", "--dim", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("potential catalog (dimension 5)\n")
        assert out.endswith(
            "  (integral norms: Rollnik and L^(3/2) checks run at dimension 3 only)\n"
        )

    def test_catalog_rejects_low_dimension(self, capsys):
        assert main(["catalog", "--dim", "2"]) == 2

    def test_catalog_rejects_dimension_past_float_range(self, capsys):
        assert main(["catalog", "--dim", str(10**400)]) == 2
        captured = capsys.readouterr()
        assert "config error: dimension " in captured.err
        assert captured.out == ""


class TestPlumbing:
    def test_thread_cap_applied(self):
        env = {"SPECTRA_CERT_THREADS": "4"}
        assert _apply_thread_cap(env) == 4
        assert env["OMP_NUM_THREADS"] == "4"
        assert env["OPENBLAS_NUM_THREADS"] == "4"

    def test_thread_cap_ignores_garbage(self):
        # "²" and "١" pass str.isdigit; int refuses the first and reads 1 for the second
        for bad in ("", "0", "-2", "many", "²", "١", "1١"):
            env = {"SPECTRA_CERT_THREADS": bad}
            assert _apply_thread_cap(env) is None
            assert "OMP_NUM_THREADS" not in env

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "file.json"
        digest = _atomic_write(target, b"{}\n")
        assert target.read_bytes() == b"{}\n"
        assert digest == hashlib.sha256(b"{}\n").hexdigest()
        assert [p.name for p in target.parent.iterdir()] == ["file.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_reports_and_manifest_follow_the_umask(self, tmp_path, capsys, umask, mode):
        stem = "singular_sequence"
        old = os.umask(umask)
        try:
            code = main(["run", *sample_args(stem), "--set", f"output.path={tmp_path / stem}"])
        finally:
            os.umask(old)
        assert code == 0
        written = sorted(tmp_path.iterdir())
        assert [p.name for p in written] == [f"{stem}.{ext}" for ext in ("csv", "json", "manifest.json")]
        assert [p.stat().st_mode & 0o777 for p in written] == [mode] * 3

    def test_failed_atomic_write_leaves_no_temp_files(self, tmp_path):
        # the rename onto a non-empty directory fails once the temp file is written
        target = tmp_path / "taken"
        (target / "inside").mkdir(parents=True)
        with pytest.raises(OSError):
            _atomic_write(target, b"{}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_csv_from_an_experiment_without_columns_fails(self, tmp_path):
        # parse_config refuses this; a hand-built config reaches run
        cfg = {
            "experiment": "check-conditions",
            "dimension": 3,
            "output": {"path": str(tmp_path / "cc"), "formats": ["json", "csv"]},
            "potential": {"name": "hardy", "params": {"a": 0.5}},
        }
        with pytest.raises(RunFailure, match="no csv table"):
            run(cfg)
        assert not list(tmp_path.iterdir())

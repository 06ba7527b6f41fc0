"""The runnable studies under ``scripts/`` and the package import, each run
in a fresh interpreter.

The scripts call the public API the way a user would, so a renamed field or
function breaks them without breaking any unit test.  Each study runs on a
small grid and must exit 0.  The setup check pins that importing the CLI
and validating the shipped configs load no scipy module, nor numpy.random
or numpy.ma: every run pays for its setup, experiments that never call
LAPACK (identity-check, magnetic-smoke, singular-sequence) should not pay
for it, and only pseudospectra from n = 240 up call ARPACK.
The experiments that need no scipy at all run the shipped configs and must
leave every scipy module unloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    # a stray RuntimeWarning fails the run, as it does in-process
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("bound_state_emergence.py", ["--grid-n", "64", "--steps", "2"]),
        ("norm_refinement_study.py", ["--grids", "40", "80", "160", "--ell-max", "1"]),
        ("identity_refinement_orders.py", []),
    ],
)
def test_script_exits_zero(script, args):
    proc = run_python([str(ROOT / "scripts" / script), *args])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the setup of every run: import the CLI and validate the shipped configs,
    # dry runs included.  On a 2-vCPU Xeon the import took 0.11-0.26 s, and
    # loading scipy.linalg or scipy.special after it took 0.17-0.22 s more
    configs = sorted(str(path) for path in (ROOT / "scripts" / "configs").glob("*.json"))
    assert len(configs) == 9
    code = "\n".join(
        [
            "import sys",
            "from pathlib import Path",
            "from spectra_cert.cli import parse_config",
            f"for path in {configs!r}:",
            "    parse_config(Path(path).read_text())",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))",
        ]
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines() == ["[]", "[]"]


def test_scipy_free_runs_load_no_scipy(tmp_path):
    # closed-form sums, quadratures and probe tables only: a stray scipy
    # import would cost each of these runs tens of MB of peak RSS, and
    # numpy.random or numpy.ma 2.2 MB or 0.6 MB
    names = (
        "hs_identity_gaussian",
        "check_conditions_hardy",
        "identity_check_gaussian",
        "magnetic_smoke_uniform",
        "singular_sequence",
    )
    runs = [
        f"assert main(['run', {str(ROOT / 'scripts' / 'configs' / f'{name}.json')!r},"
        f" '--set', {f'output.path={tmp_path / name}'!r}]) == 0"
        for name in names
    ]
    # from n = 240 up a pseudospectrum map has no dense SVD check, and the
    # Sturm bisection is numpy alone
    pseudo = ROOT / "scripts" / "configs" / "pseudospectrum_imaginary_hardy.json"
    out = f"output.path={tmp_path / 'pseudospectrum'}"
    runs.append(f"assert main(['run', {str(pseudo)!r}, '--set', 'grid_n=240', '--set', {out!r}]) == 0")
    code = "\n".join(
        [
            "import sys",
            "from spectra_cert.cli import main",
            *runs,
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))",
        ]
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]

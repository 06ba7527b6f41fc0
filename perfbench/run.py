"""Witness benchmark for spectra-cert: seeded job mixes through the CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bs-norm-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fd-spectra --seed 1 --audit

Each run starts fresh worker processes (``worker.py``) that import the package
from ``src/``, generate the workload's ``spectra-cert run`` configs from the
seed, validate them with ``cli.parse_config`` and run them through
``cli.run`` into a throw-away directory.  Every written report is then checked
against ``oracles.py``; reports must also be byte-identical across all passes
of the run (untraced and traced alike).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass timed against an untraced one.  ``--audit`` is an
untimed mode that compares every sigma_max / sigma_min solver call with a
dense SVD and prints the misses against each solver's documented rtol.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the run record (machine, versions, seed, per-job problem sizes) and a
metric table.  A job fails when it raises, when its reports differ between
passes, or when a witness misses its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402

# fresh interpreters timed per run for setup_s, besides the measuring worker
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170.0


def thread_cap() -> int:
    """BLAS threads for the worker: one.

    Two OpenBLAS threads on a two-CPU machine made a pass 10x slower whenever
    another process ran, and were slower than one thread on the bs-norm-scan
    matrix sizes even on an idle machine, so one thread is both steadier and
    faster here.  The value is recorded in the run record.
    """
    return 1


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SPECTRA_CERT_THREADS"] = str(thread_cap())
    return env


def _start_worker(workload: str, seed: int, mode: str, seconds: float, tiny: bool):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(WORK),
        "--mode", mode, "--seconds", str(seconds),
    ]
    if tiny:
        cmd.append("--tiny")
    return subprocess.Popen(
        cmd, cwd=str(ROOT), env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0, tiny: bool = False):
    """Start a worker; returns (seconds until it printed ``ready``, its report)."""
    start = time.perf_counter()
    proc = _start_worker(workload, seed, mode, seconds, tiny)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed (exit {proc.returncode}):\n{err[-4000:]}")
    lines = out.strip().splitlines()
    report = json.loads(lines[-1]) if lines else None
    return setup_s, report


def run_record(workload: str, seed: int, jobs) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": thread_cap(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": [job.record for job in jobs],
    }


def _judge(jobs, passes: list[dict], seed: int) -> dict[str, list[str]]:
    """Per job: why it failed (empty list when it passed)."""
    import oracles

    verdict: dict[str, list[str]] = {}
    for job in jobs:
        why = [f"raised {p['errors'][job.job_id]}" for p in passes if job.job_id in p["errors"]][:1]
        digests = {json.dumps(p["hashes"][job.job_id], sort_keys=True) for p in passes}
        if len(digests) > 1:
            why.append("reports differ between passes")
        if not why:
            why = oracles.check_job(job.config, seed)
        verdict[job.job_id] = why
    return verdict


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# per-layer metrics read from the span totals: "<span>.<s|calls|self_s>"
SPAN_METRICS = (
    "birman_schwinger.sector_matrices.s",
    "birman_schwinger.assemble_bs.s",
    "birman_schwinger.assemble_bs.calls",
    "birman_schwinger.assemble_bs.self_s",
    "birman_schwinger.hs_norm.s",
    "birman_schwinger.hs_norm.self_s",
    "numerics.largest_singular_value.s",
    "numerics.largest_singular_value.calls",
    "numerics.smallest_singular_value.s",
    "numerics.smallest_singular_value.calls",
    "numerics.eig_complex.s",
    "numerics.eig_complex.calls",
    "spectral.pseudospectrum.s",
    "spectral.pseudospectrum.self_s",
    "spectral.spectrum.s",
    "spectral.spectrum.self_s",
    "spectral.discretize_radial.s",
    "spectral.singular_sequence_decay.s",
    "conditions.build_report.s",
    "conditions.rollnik_norm.s",
    "conditions.rollnik_norm.calls",
    "conditions.frank_l32.s",
    "conditions.sup_scans.s",
    "multipliers.s",
    "cli.run.calls",
    "cli.run.self_s",
    "cli.parse_config.s",
)
# metric layers that sum several spans
SPAN_GROUPS = {
    "conditions.sup_scans": (
        "conditions.subordination_a_pointwise",
        "conditions.lambda_constant",
        "conditions.b_constants",
    ),
    "multipliers": (
        "multipliers.identity_term_rows",
        "multipliers.radi_identity_terms",
        "multipliers.magnetic_identity_smoke",
    ),
}


def _span_metric(traced_pass: dict, metric: str) -> float:
    layer, key = metric.rsplit(".", 1)
    totals = traced_pass["totals"]
    return float(sum(totals.get(name, {}).get(key, 0) for name in SPAN_GROUPS.get(layer, (layer,))))


def _layer_metrics(report: dict) -> dict:
    """Per-layer numbers: the median over traced passes of each pass sum."""
    traced, passes = report["traced"], report["passes"]

    def med(values) -> float:
        return float(statistics.median(values))

    metrics = {
        name: _metric(med(_span_metric(t, name) for t in traced), "count" if name.endswith(".calls") else "s")
        for name in SPAN_METRICS
    }
    sectors = med(t["items"].get("birman_schwinger.sector_matrices", 0) for t in traced)
    metrics["birman_schwinger.sectors"] = _metric(sectors, "count")
    metrics["cli.output_bytes"] = _metric(med(t["output_bytes"] for t in traced), "bytes")
    metrics["cli.import_s"] = _metric(report["import_s"], "s")
    metrics["worker.cpu_s"] = _metric(med(p["cpu_s"] for p in passes), "s")
    metrics["worker.cpu_util"] = _metric(med(p["cpu_s"] / p["wall_s"] for p in passes), "ratio")
    overhead = med(t["wall_s"] for t in traced) / med(p["wall_s"] for p in passes) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object (plus the run record)."""
    if not (SRC / "spectra_cert" / "cli.py").is_file():
        raise WorkerError(f"no spectra_cert package under {SRC}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    setups = [run_worker(workload, seed, "setup", tiny=tiny)[0] for _ in range(SETUP_PROBES)]
    setup_s, report = run_worker(workload, seed, "traced" if trace else "untraced", seconds, tiny)
    setups.append(setup_s)

    jobs = workloads.generate(workload, seed, str(WORK), tiny=tiny)
    passes = report["passes"] + report.get("traced", [])
    verdict = _judge(jobs, passes, seed)
    failed = sum(1 for why in verdict.values() if why)
    attempted = len(jobs)
    walls = [p["wall_s"] for p in report["passes"]]
    if trace:
        metrics = _layer_metrics(report)
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
            "pass_frac": _metric(1.0 - failed / attempted, "ratio"),
        }
    record = run_record(workload, seed, jobs)
    record.update(
        pass_walls=walls,
        traced_walls=[t["wall_s"] for t in report.get("traced", [])],
        fail_frac=failed / attempted,
        failures={job: why for job, why in verdict.items() if why},
        absent_layers=sorted({n for t in report.get("traced", []) for n in t["absent"]}),
    )
    return {
        "record": record,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def audit(workload: str, seed: int, tiny: bool = False) -> dict:
    """Solver accuracy audit: counts, not failures."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    _, report = run_worker(workload, seed, "audit", tiny=tiny)
    out = {}
    for name, stats in report["audit"].items():
        out[f"numerics.{name}.calls"] = stats["calls"]
        out[f"numerics.{name}.max_rel_err"] = stats["max_rel_err"]
        out[f"numerics.{name}.rtol_misses"] = stats["rtol_misses"]
    return {"workload": workload, "seed": seed, "audit": out, "absent": report["absent"], "errors": report["errors"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--audit", action="store_true", help="untimed solver accuracy audit")
    args = parser.parse_args(argv)

    try:
        if args.audit:
            print(json.dumps(audit(args.workload, args.seed)))
            return 0
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record, result = out["record"], out["result"]
    print(json.dumps({"run_record": record}))
    print(f"fail_frac {record['fail_frac']:.6g} ratio")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

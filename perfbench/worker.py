"""One benchmark worker process: set up, run passes over a job mix, report.

Usage (started by ``run.py``, one process per measured run)::

    python3 perfbench/worker.py --workload W --seed S --out DIR \\
        --mode {setup,untraced,traced,audit} --seconds T [--tiny]

The worker imports ``spectra_cert.cli`` before anything loads numpy, so the
``SPECTRA_CERT_THREADS`` cap in its environment reaches the BLAS pool.  It
prints ``ready`` once the jobs are generated and validated (the parent times
set-up up to that line); mode ``setup`` stops there.  The other modes print
one JSON line with their results last.

* ``untraced`` -- passes until ``--seconds`` have elapsed (at least two).
* ``traced`` -- alternating untraced and traced passes (at least one pair);
  the traced ones run with spans around every module's public functions.
* ``audit`` -- one untimed pass that checks every extremal singular value
  against ``scipy.linalg.svdvals``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
from spectra_cert import cli  # noqa: E402  (must load before numpy)

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _outputs(job: workloads.Job) -> list[Path]:
    out = job.config["output"]
    files = [Path(f"{out['path']}.{fmt}") for fmt in out["formats"]]
    return files + [Path(f"{out['path']}.manifest.json")]


def run_pass(jobs, configs, recorder=None) -> dict:
    """Run every job once; time the pass; hash what each job wrote."""
    for job in jobs:
        for path in _outputs(job):
            path.unlink(missing_ok=True)
    errors: dict[str, str] = {}
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for job, config in zip(jobs, configs):
        if recorder is not None:
            recorder.job = job.job_id
        try:
            cli.run(config)
        except Exception as exc:  # every failure is counted, none stops the pass
            errors[job.job_id] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    hashes: dict[str, dict[str, str]] = {}
    output_bytes = 0
    for job in jobs:
        files = _outputs(job)
        reports = files[:-1]
        hashes[job.job_id] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in reports if p.exists()
        }
        output_bytes += sum(p.stat().st_size for p in files if p.exists())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "errors": errors,
        "hashes": hashes,
        "output_bytes": output_bytes,
    }


def _modules() -> dict:
    return {name: importlib.import_module(f"spectra_cert.{name}") for name in tracing.PACKAGE_MODULES}


def traced_pass(jobs) -> dict:
    """Parse and run every job with spans on; returns the pass plus its spans."""
    recorder = tracing.Recorder()
    absent, patched = tracing.install(recorder, _modules())
    try:
        texts = [json.dumps(job.config) for job in jobs]
        configs = [cli.parse_config(text) for text in texts]
        result = run_pass(jobs, configs, recorder)
    finally:
        tracing.restore(patched)
    result["absent"] = absent
    result["totals"] = recorder.totals()
    result["items"] = dict(recorder.items)
    result["spans"] = [dataclasses.asdict(span) for span in recorder.spans]
    return result


def audit_pass(jobs, configs) -> dict:
    """Compare every sigma_max / sigma_min call with a dense SVD."""
    import numpy as np
    from scipy.linalg import svdvals

    from spectra_cert import numerics

    # the documented default rtol of each solver
    rtols = {"largest_singular_value": 1e-8, "smallest_singular_value": 1e-6}
    stats = {name: {"calls": 0, "max_rel_err": 0.0, "rtol_misses": 0} for name in rtols}

    def make(name, pick):
        def wrap(fn):
            def audited(m, *args, **kwargs):
                out = fn(m, *args, **kwargs)
                value = out[0] if isinstance(out, tuple) else out
                exact = pick(svdvals(np.asarray(m, dtype=np.complex128)))
                err = abs(value - exact) / exact if exact > 0 else abs(value)
                entry = stats[name]
                entry["calls"] += 1
                entry["max_rel_err"] = max(entry["max_rel_err"], float(err))
                entry["rtol_misses"] += int(err > rtols[name])
                return out

            return audited

        return wrap

    patched = []
    modules = _modules()
    try:
        patched += tracing.patch_everywhere(
            modules, "numerics", "largest_singular_value", make("largest_singular_value", np.max)
        )
        patched += tracing.patch_everywhere(
            modules, "numerics", "smallest_singular_value", make("smallest_singular_value", np.min)
        )
        result = run_pass(jobs, configs)
    finally:
        tracing.restore(patched)
    absent = [name for name in rtols if not hasattr(numerics, name)]
    return {"errors": result["errors"], "audit": stats, "absent": absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "untraced", "traced", "audit"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.generate(args.workload, args.seed, args.out, tiny=args.tiny)
    parse_start = time.perf_counter()
    configs = [cli.parse_config(json.dumps(job.config)) for job in jobs]
    parse_s = time.perf_counter() - parse_start
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    report: dict = {"import_s": _IMPORT_S, "parse_s": parse_s}
    if args.mode == "audit":
        report.update(audit_pass(jobs, configs))
    else:
        passes, traced = [], []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, configs))
            if args.mode == "traced":
                traced.append(traced_pass(jobs))
            min_passes = 1 if args.mode == "traced" else 2
            if len(passes) >= min_passes and time.perf_counter() - start >= args.seconds:
                break
        report["passes"] = passes
        if traced:
            spans = [t.pop("spans") for t in traced]
            Path(args.out, "spans.json").write_text(json.dumps(spans))
            report["traced"] = traced
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

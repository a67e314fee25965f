"""One fresh benchmark process: set up, run one workload once, report.

    python3 perfbench/worker.py --workload <name> --seed <n> --out <dir>
        [--trace] [--setup-only]

Set-up is the interpreter start, `import thermolim` from src/ of the
checkout that holds this file, and
a tiny LAPACK/FFT warm-up; the worker prints `ready` when it is done, so the
parent can time it.  It then runs the workload's experiments in order,
timing each `lab.run` call with wall and CPU clocks, and prints one JSON
line: the times, the peak RSS of this process, and per experiment whether
its report matched the stored reference and the SHA-256 of the report
files it wrote under --out.  Reference comparison and report writing happen
outside the timed intervals.  The parent sets the BLAS thread cap in the
environment before this process imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from reference import capture, compare, load
from tracer import Tracer
from workloads import entries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_library():
    """Import thermolim from the checkout's own source tree, never elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import thermolim
        from thermolim import lab
    except ImportError as exc:
        raise SystemExit(f"worker: cannot import thermolim from {src}: {exc}")
    if not os.path.abspath(thermolim.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"worker: thermolim was imported from {thermolim.__file__}, not {src}")
    return lab


def _warm_up() -> None:
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    eigh_tridiagonal(np.full(64, 2.0), np.full(63, -1.0))
    np.fft.ifft(np.fft.fft(np.ones(64)))
    a = np.ones((64, 64))
    a @ a


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _report_hash(report, out_dir: str) -> str:
    report.write(out_dir)
    digest = hashlib.sha256()
    for ext in (".csv", ".json"):
        with open(os.path.join(out_dir, report.experiment + ext), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_experiments(lab, jobs, out_dir: str, tracer=None) -> dict:
    """Run (label, experiment, config) jobs; time them and check each report.

    A job fails when lab.run raises or its report does not match the
    stored reference.  Only the lab.run calls are timed.
    """
    wall = cpu = 0.0
    results = []
    for label, experiment, config in jobs:
        t0, c0 = time.perf_counter(), _cpu_s()
        try:
            if tracer is None:
                report = lab.run(experiment, config)
            else:
                report = tracer.call(f"lab.{label}", lab.run, (experiment, config), root=True)
        except Exception as exc:  # a raising experiment is a failed one, not a crash
            report, problems = None, [f"{type(exc).__name__}: {exc}"]
        exp_wall, exp_cpu = time.perf_counter() - t0, _cpu_s() - c0
        wall += exp_wall
        cpu += exp_cpu
        digest = None
        if report is not None:
            problems = compare(load(label), capture(report))
            digest = _report_hash(report, os.path.join(out_dir, label))
        results.append({"label": label, "wall_s": exp_wall, "cpu_s": exp_cpu, "failed": bool(problems),
                        "problems": problems[:5], "sha256": digest})
    return {"wall_s": wall, "cpu_s": cpu, "experiments": results}


def _versions() -> dict:
    import numpy as np
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lab = import_library()
    _warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_experiments(lab, entries(args.workload, args.seed), args.out, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

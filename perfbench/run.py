"""thermolim benchmark: closed-loop batch runs of `lab` experiments.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

One client runs a workload's experiments in order through
`thermolim.lab.run` at their acceptance defaults (see workloads.py), in a
fresh process per pass, and checks every report against the stored
reference (see reference.py).  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 runs passes until their summed wall time reaches --seconds (at
least one) and reports medians over passes:
  wall_s       wall time of the lab.run calls of one pass
  cpu_s        user + system CPU time of the pass process over the same calls
  peak_rss_mb  peak resident memory of the pass process
  setup_s      median over every process started: interpreter start,
               `import thermolim` and a tiny LAPACK/FFT warm-up
--trace 1 runs one traced pass and reports the per-layer metrics of
tracer.py; trace.overhead_s is the tracer's measured cost per span times
the spans recorded.

The share of experiments that failed is `failed / attempted`.  A report
whose bytes differ from an earlier pass of the same code (see
code_identity) with the same seed in the same checkout also counts as
failed.  Outputs go to .bench_out/ in the checkout;
BLAS threads are capped at the number of usable CPUs.  Results from
different machines must not be compared: the environment is printed with
every result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

SETUP_ONLY_RUNS = 2  # besides the set-up of every pass process
WORKER_TIMEOUT_S = 170

from workloads import DEFAULT_SEED, LABELS, WORKLOADS, cap_blas_threads

BLAS_THREADS = cap_blas_threads()

from tracer import layer_metric_names, layer_self_total  # noqa: E402  (imports numpy)


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, out_dir: str, trace=False, setup_only=False):
    """Start one worker; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def code_identity(versions: dict) -> str:
    """SHA-256 of the code that makes the reports: library and benchmark
    sources plus the Python, numpy and scipy versions."""
    digest = hashlib.sha256(json.dumps(versions, sort_keys=True).encode())
    files = glob.glob(os.path.join(ROOT, "src", "thermolim", "**", "*.py"), recursive=True)
    files += glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(os.path.relpath(f, ROOT) for f in files):
        digest.update(path.encode() + b"\0")
        with open(os.path.join(ROOT, path), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def check_hashes(passes: list[dict], seed: int, ledger_path: str) -> None:
    """Fail every report whose bytes differ from an earlier one made by the
    same code with the same seed.  Runs of other code are never compared:
    across commits, reference.py's tolerances decide."""
    ledger = {}
    if os.path.exists(ledger_path):
        with open(ledger_path) as fh:
            ledger = json.load(fh)
    code = code_identity(passes[0]["versions"])[:16]
    for p in passes:
        for exp in p["experiments"]:
            if exp["sha256"] is None:
                continue
            key = f"code={code} {exp['label']} seed={seed}"
            if ledger.setdefault(key, exp["sha256"]) != exp["sha256"]:
                exp["failed"] = True
                exp["problems"].append("report bytes differ from an earlier run of the same code")
    with open(ledger_path, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def environment(versions: dict) -> dict:
    env = {"nproc": BLAS_THREADS, "cpu_count": os.cpu_count(), "blas_threads": BLAS_THREADS}
    try:
        models = [l for l in _read("/proc/cpuinfo").splitlines() if l.startswith("model name")]
        env["cpu_model"] = models[0].split(":", 1)[1].strip() if models else None
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(index, f)).strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    env["caches"] = caches
    env.update(versions)
    return env


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn's finally so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    out_dir = os.path.join(OUT, args.workload, f"seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    run = lambda **kw: spawn(args.workload, args.seed, out_dir, **kw)
    setups, passes = [], []
    try:
        if args.trace:
            passes = [run(trace=True)[1]]
        else:
            # set-up samples before and after the passes, so their median
            # spans the run rather than one moment of a noisy host
            setups = [run(setup_only=True)[0] for _ in range(SETUP_ONLY_RUNS // 2)]
            while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
                setup_s, result = run()
                setups.append(setup_s)
                passes.append(result)
            setups += [run(setup_only=True)[0] for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    check_hashes(passes, args.seed, os.path.join(OUT, "report_hashes.json"))
    experiments = [e for p in passes for e in p["experiments"]]
    failed = sum(e["failed"] for e in experiments)

    if args.trace:
        (traced,) = passes
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = wall = traced["wall_s"]
        values = {name: layers.get(name, 0.0) for name in layer_metric_names(LABELS)}
        covered = layer_self_total(layers)
        print(f"trace: layer self times sum to {covered:.4f} s of {wall:.4f} s traced wall "
              f"({covered / wall:.2%}); lab's own code between them {layers['lab.self_s']:.4f} s; "
              f"tracer overhead {layers['trace.overhead_s']:.4f} s over {layers['trace.spans']:.0f} spans")
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups),
        }

    env = environment(passes[0]["versions"])
    print("env: " + json.dumps(env, sort_keys=True))
    for e in experiments:
        print(f"{e['label']}: {'FAILED ' + '; '.join(e['problems']) if e['failed'] else 'matches reference'}")
    print(f"failed_frac: {failed}/{len(experiments)}")
    print(f"passes: {len(passes)}, wall_s per pass: {[round(p['wall_s'], 3) for p in passes]}")
    result = {
        "correct": failed == 0,
        "attempted": len(experiments),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()},
    }
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "passes": passes, "setups_s": setups, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's failure accounting, tracer and metric lists.

    python3 perfbench/selftest.py

Runs cheap experiments through worker.run_experiments, the code every pass
uses, with faults injected into their reports, and checks that a flipped
verdict, a perturbed numeric column, a raising experiment and a designed
failure that starts passing are each counted as failed, while a change
below a column's absolute floor is not.  It also checks that spans opened
on `lemma31`'s build threads attach to the experiment span, that the
wrapped layers cover nearly all of its traced wall time, that their self
times plus lab's own time add up to it, that report hashes are compared
only between runs of the same code, and that BENCHMARK.json lists the
workloads and metrics the code reports.  Exits 0 when every check holds.
"""

import json
import os
import sys

from workloads import LABELS, WORKLOADS, cap_blas_threads

cap_blas_threads()

from tracer import Tracer, layer_metric_names, layer_self_total  # noqa: E402
from worker import ROOT, import_library, run_experiments  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out", "selftest")
# lab's own code between calls into the wrapped layers may take at most this
# share of lemma31's wall time; more means a call path escapes the wrappers
MAX_UNCOVERED = 0.02
CHEAP = [
    ("oracle", "oracle", {"seed": 20240817}),
    ("condensate3d", "condensate3d", {}),
    ("condensate1d", "condensate1d", {}),
]


def failed_labels(lab, experiment=None, fault=None) -> list[str]:
    """Labels counted as failed when `fault` rewrites `experiment`'s report."""
    original = lab.EXPERIMENTS.get(experiment)
    if fault is not None:
        lab.EXPERIMENTS[experiment] = lambda config: fault(original(config))
    try:
        result = run_experiments(lab, CHEAP, OUT)
    finally:
        if fault is not None:
            lab.EXPERIMENTS[experiment] = original
    return [e["label"] for e in result["experiments"] if e["failed"]]


def flip_verdict(rep):
    rep.verdicts["all"] = not rep.verdicts["all"]
    return rep


def scale_cell(column, factor=1.0, shift=0.0):
    def fault(rep):
        j = rep.columns.index(column)
        row = list(rep.rows[0])
        row[j] = row[j] * factor + shift
        rep.rows[0] = tuple(row)
        return rep

    return fault


def raise_error(rep):
    raise RuntimeError("injected")


def designed_failure_passes(rep):
    rep.verdicts["profiles"] = True
    return rep


def check_faults(lab) -> list[str]:
    cases = [
        ("clean run", None, None, []),
        ("flipped verdict", "oracle", flip_verdict, ["oracle"]),
        ("perturbed column", "condensate3d", scale_cell("pairing", factor=1 + 1e-6), ["condensate3d"]),
        ("raised exception", "oracle", raise_error, ["oracle"]),
        ("designed failure passing", "condensate1d", designed_failure_passes, ["condensate1d"]),
        ("change below the absolute floor", "oracle", scale_cell("value", shift=1e-13), []),
    ]
    errors = []
    for what, experiment, fault, expected in cases:
        got = failed_labels(lab, experiment, fault)
        status = "ok" if got == expected else "WRONG"
        print(f"{status}: {what}: failed {got}, expected {expected}")
        if got != expected:
            errors.append(what)
    return errors


def check_tracer(lab) -> list[str]:
    # threads = 1 as in the benchmark: the solves still run on a pool thread,
    # and spans do not overlap, so self times must sum to the wall time
    config = {"radius_list": [6.0, 8.0, 10.0, 12.0], "t_list": [0.25], "c_rules": ["1"],
              "n_points": 512, "threads": 1}
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("lab.lemma31", lab.run, ("lemma31", config), root=True)
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    solves = [s for s in tracer.spans if s.name == "hamiltonians.diagonalize_full"]
    m = tracer.metrics()
    wall, layers, glue = m["lab.lemma31.wall_s"], layer_self_total(m), m["lab.self_s"]
    errors = []
    if len(solves) != 4 or any(s.parent is not root for s in solves):
        errors.append("thread-pool spans do not attach to the experiment span")
    if abs(layers + glue - wall) > 1e-6:
        errors.append(f"layer self times {layers} plus lab's own {glue} differ from wall {wall}")
    if glue > MAX_UNCOVERED * wall:
        errors.append(f"layers cover only {layers / wall:.1%} of the wall time")
    if m["propagators.duhamel_bound.nodes"] != m["propagators.evolve_free.calls"] - 4:
        errors.append("Duhamel node count does not match its evolve_free calls")
    if lab.diagonalize.__name__ != "diagonalize" or hasattr(lab.diagonalize, "__wrapped__"):
        errors.append("uninstall left a wrapper in place")
    print(f"{'ok' if not errors else 'WRONG'}: tracer {errors}; layers cover {layers / wall:.1%} "
          f"of {wall:.3f} s, tracer overhead {m['trace.overhead_s']:.5f} s over {len(tracer.spans)} spans")
    return errors


def check_ledger() -> list[str]:
    """Report hashes are compared only between runs of the same code."""
    from run import check_hashes

    os.makedirs(OUT, exist_ok=True)
    ledger = os.path.join(OUT, "report_hashes.json")
    if os.path.exists(ledger):
        os.remove(ledger)
    cases = [
        ("first run", "v1", "aa", False),
        ("same code, same bytes", "v1", "aa", False),
        ("same code, other bytes", "v1", "bb", True),
        ("other code, other bytes", "v2", "bb", False),
    ]
    errors = []
    for what, version, digest, expected in cases:
        exp = {"label": "oracle", "sha256": digest, "failed": False, "problems": []}
        check_hashes([{"versions": {"numpy": version}, "experiments": [exp]}], 1, ledger)
        if exp["failed"] != expected:
            errors.append(what)
    print(f"{'ok' if not errors else 'WRONG'}: report hash ledger {errors}")
    return errors


def check_benchmark_json() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        errors.append("workloads differ from workloads.WORKLOADS")
    if [m["name"] for m in bench["per_layer"]] != layer_metric_names(LABELS):
        errors.append("per_layer differs from tracer.layer_metric_names")
    if [m["name"] for m in bench["end_to_end"]] != ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]:
        errors.append("end_to_end differs from the metrics run.py prints")
    print(f"{'ok' if not errors else 'WRONG'}: BENCHMARK.json {errors}")
    return errors


def main() -> int:
    lab = import_library()
    errors = check_faults(lab) + check_tracer(lab) + check_ledger() + check_benchmark_json()
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

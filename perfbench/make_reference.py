"""Write the stored reference reports of every workload experiment.

    python3 perfbench/make_reference.py

Runs every experiment of every workload once at the default seed and stores
its comparable content (see reference.capture) in perfbench/reference/.
Run it only on a commit whose reports are meant to be the reference; a
change that claims a speed-up must leave these files alone.
"""

import sys

if __name__ == "__main__":
    from workloads import DEFAULT_SEED, WORKLOADS, cap_blas_threads, entries

    cap_blas_threads()
    from reference import capture, save
    from worker import import_library

    lab = import_library()
    for workload in WORKLOADS:
        for label, experiment, config in entries(workload, DEFAULT_SEED):
            report = lab.run(experiment, config)
            save(label, capture(report))
            print(f"{label}: exit code {report.exit_code}", flush=True)
    sys.exit(0)

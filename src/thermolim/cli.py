# cli.py
#
# thermolim <subcommand> --config <path> --out <dir> [--threads N] [--seed S]
#
# Exit codes: 0 all verdicts pass, 1 verdict failure, 2 a failed gate or an
# input error.  Input errors are the config errors and every ValueError the
# library raises (each one is a range or shape check on its input), a Fock
# truncation that discards too much Gibbs weight, and a quadrature that
# reached its node cap without meeting its tolerance.  These print one line;
# anything else (an eigensolver failure, say) keeps its traceback.

from __future__ import annotations

import argparse
import sys

from .fock import TruncationError
from .lab import EXPERIMENTS, parse_config, run
from .propagators import QuadratureCapError, ValidityGateError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermolim",
        description="Numerical experiments on the thermodynamic limit of trapped Bose gases",
    )
    parser.add_argument("subcommand", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default="reports", help="output directory for CSV/JSON")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = parse_config(fh.read())
        except (OSError, ValueError) as exc:  # unreadable, undecodable or malformed
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.threads is not None:
        config["threads"] = args.threads
    if args.seed is not None:
        config["seed"] = args.seed

    try:
        report = run(args.subcommand, config)
    except (ValueError, ValidityGateError, QuadratureCapError, TruncationError) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return 2

    report.write(args.out)
    for name in sorted(report.gates):
        status = "ok" if report.gates[name] else "FAILED"
        print(f"gate {name}: {status}")
    for name in sorted(report.verdicts):
        print(f"verdict {name}: {report.verdicts[name]}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"report written to {args.out}/{report.experiment}.csv")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

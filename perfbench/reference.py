"""Stored reference reports and the comparison that decides `failed`.

A report matches its reference when

- exit code, columns, gates and verdicts are identical (a designed failure,
  such as `lemma31`'s slope monotonicity at t = 0.5 and 1.0, matches only
  while it keeps failing);
- the config is identical apart from `seed`, the one key the benchmark sets;
- every row has the same length, text and boolean cells are identical, and
  numeric cells agree within the column tolerance below;
- notes agree word for word, except that a decimal number printed with d
  digits after the point may move by 1.5 units in its last digit.

A numeric column not listed in TOLERANCES holds exact inputs (radii, times,
sector indices) and must match exactly.
"""

from __future__ import annotations

import json
import math
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# report experiment -> column -> (rtol, atol); a cell matches when
# |got - ref| <= atol + rtol * |ref|.  rtol follows the accuracy the method
# states for itself (quadrature epsrel, Simpson rel_tol) or, for direct
# linear algebra, a margin over roundoff; atol is the floor below which a
# difference is noise (gaps at the 1e-14 roundoff floor, zero errors).
TOLERANCES = {
    "propagator_scan": {
        "gap": (1e-9, 1e-13),
        "duhamel_bound": (1e-6, 1e-13),  # Simpson rel_tol = 1e-6
        "slope": (1e-8, 1e-7),  # log-ratio of two gaps over log(R ratio) >= 0.15
    },
    "sector_norms": {
        "gap": (1e-9, 1e-13),
        "exact_norm": (1e-8, 1e-13),  # difference of two inverses: roundoff grows
        "bound": (1e-9, 1e-13),
    },
    "thermal_convergence": {
        "density": (1e-10, 1e-13),
        "homogeneous": (1e-10, 0.0),  # quad epsrel = 1e-11
        "rel_deviation": (1e-6, 1e-9),  # |density - homogeneous| / homogeneous
    },
    "condensate_1d": {
        "offset": (1e-9, 1e-13),
        "limit": (1e-12, 0.0),
        "rel_deviation": (1e-7, 1e-11),
    },
    "mu_limit": {
        "value": (1e-8, 1e-13),  # quad epsrel = 1e-10 plus the series tail
    },
    "memory": {
        "thermal_abs": (1e-6, 1e-10),  # 1e-10 accuracy goal of the momentum integral
        "total_minus_thermal": (1e-9, 1e-10),
        "plateau_error": (0.0, 1e-10),  # plateau_tol
    },
    "resolvent_oracle": {
        "series_value": (1e-9, 1e-13),
        "gibbs_value": (1e-10, 1e-13),
        "oracle_delta": (0.0, 1e-9),  # a tenth of match_tol
        "field_quad": (1e-10, 0.0),  # quad epsrel = 1e-12
        "field_closed": (1e-12, 0.0),
        "field_oracle_delta": (0.0, 1e-9),
        "field_gibbs_delta": (1e-8, 1e-12),
    },
    "oracle_selftest": {
        "value": (1e-12, 1e-12),  # ccr_defect is checked against 1e-12
    },
    "condensate_3d": {
        "k": (1e-9, 0.0),
        "k_bound": (1e-12, 0.0),
        "bound_constant": (1e-8, 0.0),
        "pairing": (1e-9, 1e-13),
        "limit": (1e-10, 0.0),
    },
}

_DECIMAL = re.compile(r"(-?\d+\.\d+)")


def capture(report) -> dict:
    """The comparable content of a `thermolim.lab.Report`: the fields its
    JSON summary holds, plus columns and rows, made plain as lab writes them."""
    from thermolim.lab import _plain  # importable once worker.import_library ran

    return {
        "experiment": report.experiment,
        "config": {k: _plain(v) for k, v in sorted(report.config.items())},
        "columns": list(report.columns),
        "rows": [_plain(row) for row in report.rows],
        "verdicts": {k: _plain(v) for k, v in sorted(report.verdicts.items())},
        "gates": {k: _plain(v) for k, v in sorted(report.gates.items())},
        "notes": list(report.notes),
        "exit_code": report.exit_code,
    }


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cell_matches(ref, got, tol) -> bool:
    if not (_is_number(ref) and _is_number(got)):
        return type(ref) is type(got) and ref == got
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if tol is None:
        return ref == got
    rtol, atol = tol
    return abs(got - ref) <= atol + rtol * abs(ref)


def _note_matches(ref: str, got: str) -> bool:
    ref_parts, got_parts = _DECIMAL.split(ref), _DECIMAL.split(got)
    if len(ref_parts) != len(got_parts):
        return False
    for i, (r, g) in enumerate(zip(ref_parts, got_parts)):
        if i % 2 == 0:
            if r != g:
                return False
        else:
            digits = len(r.split(".")[1])
            if abs(float(r) - float(g)) > 1.5 * 10.0**-digits:
                return False
    return True


def compare(ref: dict, got: dict) -> list[str]:
    """Every way `got` differs from `ref`; empty when the report matches."""
    out = []
    for key in ("experiment", "exit_code", "columns", "verdicts", "gates"):
        if ref[key] != got[key]:
            out.append(f"{key}: expected {ref[key]!r}, got {got[key]!r}")
    strip = lambda cfg: {k: v for k, v in cfg.items() if k != "seed"}
    if strip(ref["config"]) != strip(got["config"]):
        out.append("config differs")
    if len(ref["rows"]) != len(got["rows"]):
        out.append(f"rows: expected {len(ref['rows'])}, got {len(got['rows'])}")
    elif ref["columns"] == got["columns"]:
        tols = TOLERANCES.get(ref["experiment"], {})
        for i, (r_row, g_row) in enumerate(zip(ref["rows"], got["rows"])):
            if len(r_row) != len(g_row):
                out.append(f"row {i}: expected {len(r_row)} cells, got {len(g_row)}")
                continue
            for col, r, g in zip(ref["columns"], r_row, g_row):
                if not _cell_matches(r, g, tols.get(col)):
                    out.append(f"row {i} {col}: expected {r!r}, got {g!r}")
    if len(ref["notes"]) != len(got["notes"]) or not all(
        _note_matches(r, g) for r, g in zip(ref["notes"], got["notes"])
    ):
        out.append(f"notes: expected {ref['notes']!r}, got {got['notes']!r}")
    return out


def path(label: str) -> str:
    return os.path.join(REFERENCE_DIR, label + ".json")


def load(label: str) -> dict:
    with open(path(label)) as fh:
        return json.load(fh)


def save(label: str, captured: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path(label), "w") as fh:
        json.dump(captured, fh, indent=1, sort_keys=True)
        fh.write("\n")

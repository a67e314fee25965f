# lab.py
#
# Experiment runner: maps each verified claim to a reproducible named
# experiment with explicit validity gates and machine-readable reports.
#
# Config format is flat `key = value` text (lists comma-separated).  Each
# experiment is one body registered by `_experiment`, which declares its
# subcommand, report name, CSV columns, defaults table and the keys `_need`
# checks; the defaults fix the keys and their types, and unknown keys and
# values that do not fit the type are config errors.  Checks of one
# experiment alone open its body, before any solve.  Every report echoes
# the resolved config so a run is reproducible from its own output; a JSON
# summary mirrors the verdicts for CI consumption.  Report.exit_code is 0
# when all verdicts pass, 1 on a verdict failure and 2 on a gate failure;
# an input the library rejects (any ValueError, including ConfigError)
# exits 2 through cli.py.

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import erfcx

from . import condensates as cond
from . import fock
from . import quasifree as qf
from .grids import RadialGrid, WaveFunction, bump, bump_profile, grid_delta, inner, make_grid
from .hamiltonians import assemble, soft_wall_trap, trap_operator
from .hamiltonians import diagonalize  # noqa: F401  (perfbench/selftest.py reads lab.diagonalize)
from .propagators import (
    ValidityGateError,
    _check_scan_radii,
    duhamel_bound,
    evolve_chebyshev_batch,
    evolve_free,
    gap_decay_scan,
    gated_gap,
    observable_gap_bound,
)


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Parse flat `key = value` lines; lists are comma-separated."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if "," in val:
            out[key] = [_parse_scalar(v.strip()) for v in val.split(",") if v.strip()]
        else:
            out[key] = _parse_scalar(val)
    return out


def _parse_scalar(s: str):
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def _resolve(defaults: dict, config: dict) -> dict:
    """
    The defaults overridden by config, each value cast to its default's type
    (a list to the type of its first element).  A scalar for a list key
    becomes a one-element list; tuples and 1-D arrays count as lists, and
    an empty list is a config error.
    """
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}; valid keys are {sorted(defaults)}")
    cfg = dict(defaults)
    for key, value in config.items():
        default = defaults[key]
        if not isinstance(default, list):
            cfg[key] = _cast(key, type(default), value)
            continue
        if isinstance(value, np.ndarray) and value.ndim == 1:
            value = value.tolist()
        items = value if isinstance(value, (list, tuple)) else [value]
        if not items:
            raise ConfigError(f"{key}: expected at least one value, got an empty list")
        cfg[key] = [_cast(key, type(default[0]), v) for v in items]
    return cfg


def _need(cfg: dict, need: dict) -> None:
    """
    Refuse a config whose verdicts would hold with nothing checked: each
    key of `need` is a "list" that feeds a trend or a fit and needs two
    entries, a "count" that must be at least 1, a "positive" number, or a
    "finite" number or list (a positive one is finite too; NaN fails both).
    """
    for key, kind in need.items():
        if kind == "list" and len(cfg[key]) < 2:
            raise ConfigError(f"{key} needs at least 2 entries for a trend or a fit, got {cfg[key]}")
        if kind == "count" and cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
        if kind == "positive" and not 0 < cfg[key] < np.inf:
            raise ConfigError(f"{key} must be positive and finite, got {cfg[key]}")
        if kind == "finite" and not np.all(np.isfinite(cfg[key])):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")


def _cast(key: str, kind: type, value):
    # bools are refused although Python counts them as ints
    if isinstance(value, (str, numbers.Real)) and not isinstance(value, bool):
        if kind is str:
            return str(value)
        if kind is int and isinstance(value, numbers.Integral):
            return int(value)
        try:
            number = float(value)
        except (ValueError, OverflowError):
            number = None
        if number is not None and (kind is float or number.is_integer()):
            return kind(number)
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


@dataclass
class Report:
    """Rows, per-check verdicts and gate diagnostics of one experiment."""

    experiment: str
    config: dict
    columns: list[str]
    rows: list[tuple] = dc_field(default_factory=list, init=False)
    verdicts: dict = dc_field(default_factory=dict, init=False)
    gates: dict = dc_field(default_factory=dict, init=False)
    notes: list[str] = dc_field(default_factory=list, init=False)

    @property
    def gate_failed(self) -> bool:
        return any(not ok for ok in self.gates.values())

    @property
    def passed(self) -> bool:
        return not self.gate_failed and all(
            v in (True, "pass", "trivial") for v in self.verdicts.values()
        )

    @property
    def exit_code(self) -> int:
        if self.gate_failed:
            return 2
        return 0 if self.passed else 1

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, self.experiment)
        with open(base + ".csv", "w") as fh:
            for k in sorted(self.config):
                fh.write(f"# {k} = {self.config[k]}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        summary = {
            "experiment": self.experiment,
            "config": {k: _plain(self.config[k]) for k in sorted(self.config)},
            "verdicts": {k: _plain(self.verdicts[k]) for k in sorted(self.verdicts)},
            "gates": {k: _plain(self.gates[k]) for k in sorted(self.gates)},
            "notes": self.notes,
            "passed": self.passed,
            "exit_code": self.exit_code,
        }
        with open(base + ".json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _plain(v):
    # strip numpy scalar types so json/csv output stays portable
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _fmt(v) -> str:
    v = _plain(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _rule(key: str, rule: str, symbol: str, of_R) -> "callable":
    """of_R for the symbolic rule, else R -> the finite number the rule names."""
    if rule == symbol:
        return of_R
    try:
        value = float(rule)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise ConfigError(f"{key}: expected {symbol!r} or a number, got {rule!r}")
    return lambda R: value


EXPERIMENTS: dict = {}


def _experiment(command: str, report: str, columns: list[str], need: dict, **defaults):
    """
    Register body(cfg, rep) as EXPERIMENTS[command]: config -> Report, with
    cfg the config resolved against `defaults` and checked by _need, and
    rep a fresh Report named `report` with these columns.
    """
    def register(body):
        def experiment(config: dict) -> Report:
            cfg = _resolve(defaults, config)
            _need(cfg, need)
            rep = Report(report, cfg, columns=list(columns))
            body(cfg, rep)
            return rep

        EXPERIMENTS[command] = experiment
        return body

    return register


def _evolve_packets(traps, n_points: int, center: float, radius: float, ts, threads: int) -> list:
    """
    One (f, trapped) per (R, c, L) in traps: f the bump of this centre and
    radius on the grid [-L, L] of n_points, and trapped f evolved to every
    time in ts under the soft-wall trap of radius R and coupling c.  Every
    packet runs in one evolve_chebyshev_batch call, with no n x n matrix;
    free evolutions are left to the caller, one at a time.
    """
    packets = []
    for R, c, L in traps:
        grid = make_grid(L, n_points)
        f = bump(center, radius, grid)
        packets.append((assemble(grid, soft_wall_trap(R, c)), f, ts))
    return [(f, evolved) for (_, f, _), (evolved, _) in zip(packets, evolve_chebyshev_batch(packets, threads))]


def _monotone_trials(seed: int, trials: int, n_total: int, combine, random_lams: bool) -> bool:
    """
    True when every seeded trial keeps the sector norms of combine(A1, A2)
    on sectors 0-3 nondecreasing, Ai = (lam_i + a*(c_i) a(c_i))^(-1) on a
    3-mode space of at most n_total particles.  Each trial draws complex
    c_1, c_2 on modes 1-2, then lam_1, lam_2 from [0.5, 2] if random_lams
    (else both are 1).  The untouched spectator mode 3 stands for the rest
    of the one-particle space, without which an added particle could not
    avoid the observed modes and monotonicity fails.
    """
    rng = np.random.default_rng(seed)
    space = fock.build_fock(3, n_total)
    for _ in range(trials):
        c1, c2 = [np.append(rng.normal(size=2) + 1j * rng.normal(size=2), 0.0) for _ in range(2)]
        lam1, lam2 = rng.uniform(0.5, 2.0, size=2) if random_lams else (1.0, 1.0)
        A1 = fock.number_resolvent_matrix(space, lam1, c1)
        A2 = fock.number_resolvent_matrix(space, lam2, c2)
        if not fock.sector_norm_monotonicity([combine(a, b) for a, b in zip(A1[:4], A2[:4])])[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@_experiment(
    "lemma31", "propagator_scan", ["c_rule", "t", "R", "gap", "duhamel_bound", "slope", "verdict"],
    {"threads": "count", "margin": "positive", "t_list": "finite"},
    radius_list=[6.0, 8.0, 10.0, 12.0, 14.0],
    t_list=[0.25, 0.5, 1.0],
    c_rules=["1", "R"],
    bump_center=0.0,
    bump_radius=2.0,
    n_points=4096,
    box_rule="2R+16",
    margin=16.0,
    bound_slack=1e-8,
    threads=1,
)
def _propagator_scan(cfg: dict, rep: Report) -> None:
    """
    Trapped-vs-free propagator gaps over a radius scan, with the integral
    bound checked on every point.  One scan per (coupling rule, time).
    """
    radii, ts, rules = cfg["radius_list"], cfg["t_list"], cfg["c_rules"]
    _check_scan_radii(radii, "radius_list")  # gap_decay_scan's check, before any evolution
    coupling = {rule: _rule("c_rules", rule, "R", lambda R: R) for rule in rules}
    box_L = _rule("box_rule", cfg["box_rule"], "2R+16", lambda R: 2.0 * R + 16.0)

    # every (rule, R) packet in one batch (`threads` batches on a thread
    # pool); only the packets and their gaps outlive the loop
    jobs = [(rule, R) for rule in rules for R in radii]
    traps = [(R, coupling[rule](R), box_L(R)) for rule, R in jobs]
    scanned = {}
    for job, (f, trapped) in zip(jobs, _evolve_packets(traps, cfg["n_points"], cfg["bump_center"],
                                                       cfg["bump_radius"], ts, cfg["threads"])):
        gaps = []
        for t, g in zip(ts, trapped):
            try:
                gaps.append(gated_gap(evolve_free(f, t), g, job[1], margin=cfg["margin"]))
            except ValidityGateError as exc:
                gaps.append(exc)
        scanned[job] = (f, gaps)

    # the gaps of each (rule, t) scan over the radii, a ValidityGateError
    # where the box gate failed
    scans = {(rule_name, t): [scanned[(rule_name, R)][1][k] for R in radii]
             for rule_name in rules for k, t in enumerate(ts)}
    # the Duhamel bound is c^2 times its c = 1 integral, which depends on
    # (t, R) alone (the packet does not depend on the rule): one call per R
    # for every time whose scan passed its box gate on some rule
    bound_ts = list(dict.fromkeys(t for (_, t), gaps in scans.items()
                                  if not any(isinstance(g, ValidityGateError) for g in gaps)))
    unit_bounds = {R: dict(zip(bound_ts, duhamel_bound(scanned[(rules[0], R)][0], bound_ts, R)))
                   for R in radii} if bound_ts else {}

    for rule_name in rules:
        for t in ts:
            gaps = scans[(rule_name, t)]
            failed = [(R, g) for R, g in zip(radii, gaps) if isinstance(g, ValidityGateError)]
            if failed:
                R, exc = failed[0]
                rep.gates[f"box[{rule_name},t={t}]"] = False
                rep.notes.append(f"gate failure ({rule_name}, t={t}, R={R}): {exc}")
                for R in radii:
                    rep.rows.append((rule_name, t, R, float("nan"), float("nan"), float("nan"), "invalid-gate"))
                rep.verdicts[f"scan[{rule_name},t={t}]"] = "invalid-gate"
                continue
            scan = gap_decay_scan(t, radii, gaps)
            rep.gates[f"box[{rule_name},t={t}]"] = True
            bounds = [coupling[rule_name](R) ** 2 * unit_bounds[R][t] for R in radii]
            decreasing = bool(np.all(np.diff(scan.gaps) < 0))
            bound_ok = all(g <= b + cfg["bound_slack"] for g, b in zip(scan.gaps, bounds))
            rep.verdicts[f"scan[{rule_name},t={t}]"] = scan.verdict
            rep.verdicts[f"decrease[{rule_name},t={t}]"] = decreasing
            rep.verdicts[f"bound[{rule_name},t={t}]"] = bound_ok
            for i, R in enumerate(radii):
                s = scan.slopes[i - 1] if 0 < i <= len(scan.slopes) else float("nan")
                rep.rows.append((rule_name, t, R, scan.gaps[i], bounds[i], s, scan.verdict))


@_experiment(
    "lemma33", "sector_norms", ["n", "R", "gap", "exact_norm", "bound", "bound_ok"],
    {"n_list": "list", "trials": "count", "lam": "positive", "t": "finite"},
    n_list=[1, 2, 3],
    lam=1.0,
    t=0.25,
    radius_offset=5.0,
    n_points=4096,
    bump_radius=2.0,
    trials=20,
    seed=20240817,
    bound_slack=1e-10,
)
def _sector_norms(cfg: dict, rep: Report) -> None:
    """
    Exact sector norms of evolved-resolvent differences against the
    2 n ||f|| gap bound, plus seeded monotonicity trials for random
    two-term products of number resolvents.  Each gap passes the box gate
    first; a failure raises ValidityGateError.
    """
    # the exact sector norm needs these; checked before any evolution
    if not all(1 <= n <= 12 for n in cfg["n_list"]):
        raise ConfigError(f"n_list entries must lie in 1..12, got {cfg['n_list']}")
    lam, t = cfg["lam"], cfg["t"]
    radii = [n_sec + cfg["radius_offset"] for n_sec in cfg["n_list"]]
    evolved = _evolve_packets([(R, 1.0, 2.0 * R + 16.0) for R in radii], cfg["n_points"],
                              0.0, cfg["bump_radius"], [t], 1)
    norms = []
    for n_sec, R, (f, (g1,)) in zip(cfg["n_list"], radii, evolved):
        g2 = evolve_free(f, t)
        gap = gated_gap(g2, g1, R)  # the box gate of every trapped-vs-free experiment
        n1, n2 = np.sqrt(inner(g1, g1).real), np.sqrt(inner(g2, g2).real)
        exact = fock.resolvent_pair_sector_norm(lam, n1, n2, inner(g1, g2), n_sec)
        bnd = observable_gap_bound(n_sec, lam, f, gap)
        ok = exact <= bnd + cfg["bound_slack"]
        rep.rows.append((n_sec, R, gap, exact, bnd, ok))
        norms.append(exact)
    rep.verdicts["bound"] = all(r[5] for r in rep.rows)
    rep.verdicts["decreasing"] = bool(np.all(np.diff(norms) < 0))
    rep.verdicts["sector_monotonicity"] = _monotone_trials(cfg["seed"], cfg["trials"], 6, np.matmul, True)


@_experiment(
    "thermal", "thermal_convergence", ["R", "n_points", "density", "homogeneous", "rel_deviation"],
    {"radius_list": "list"},
    radius_list=[20.0, 40.0, 80.0],
    beta=1.0,
    mu=-1.0,
    x_probe=0.0,
    rel_tol=0.01,
    dx_start=0.125,
    edge_gate=1e-10,
)
def _thermal_convergence(cfg: dict, rep: Report) -> None:
    """
    Interior density of the trapped thermal state against the homogeneous
    value.  Each radius takes the density at x_probe as the midpoint of
    quasifree.probe_density's Gauss / Gauss-Radau bracket from the grid
    delta there, with no eigensolve of the trap.  Gate edge[R]: no row the
    Lanczos walk read lies within EDGE_ZONE of the box edge, and the
    bracket is at most edge_gate of its lower end wide.  The bracket then
    holds the density of every operator that agrees with the trap on those
    rows, a larger box or the unboxed trap among them, so edge_gate is the
    largest relative effect that anything beyond the walked rows may have.
    """
    beta, mu = cfg["beta"], cfg["mu"]
    hom = qf.homogeneous_density(beta, mu, 1)
    devs = []
    # grids refine with R: at these parameters the finite-trap correction is
    # exponentially below the dx floor, so the deviation tracks refinement.
    # Every grid is built (and size-checked) and holds x_probe before the first walk.
    ops = [trap_operator(R, cfg["dx_start"] / 2**i) for i, R in enumerate(cfg["radius_list"])]
    deltas = [grid_delta(H.grid, cfg["x_probe"]) for H in ops]
    for R, H, delta in zip(cfg["radius_list"], ops, deltas):
        bracket = qf.probe_density(H, beta, mu, delta)
        grid = H.grid
        # the walked rows are one run, so its two ends lie furthest out
        clear = np.abs(grid.x[list(bracket.rows)]).max() < grid.half_width - qf.EDGE_ZONE
        width = bracket.upper - bracket.lower
        rep.gates[f"edge[R={R}]"] = bool(clear and width <= cfg["edge_gate"] * bracket.lower)
        dens = bracket.density
        dev = abs(dens - hom) / hom
        devs.append(dev)
        rep.rows.append((R, grid.n_points, dens, hom, dev))
    rep.verdicts["final_within_tol"] = devs[-1] <= cfg["rel_tol"]
    rep.verdicts["deviation_monotone"] = bool(np.all(np.diff(devs) < 0))


@_experiment(
    "resolvent", "resolvent_oracle",
    ["lam", "series_value", "gibbs_value", "oracle_delta",
     "field_quad", "field_closed", "field_oracle_delta", "field_gibbs_delta"],
    {},
    energies=[0.5, 1.5],
    beta=1.0,
    mu=-0.2,
    lam_list=[0.5, 1.0, 2.0],
    coeffs=[0.8, 0.6],
    n_total=44,
    match_tol=1e-8,
    field_n_total=60,
)
def _resolvent_oracle(cfg: dict, rep: Report) -> None:
    """
    Number-resolvent series against the exact truncated Gibbs trace, and the
    field-resolvent quadrature against its closed Gaussian form, with the
    truncated-trace delta of the field resolvent reported (not asserted).
    """
    energies, beta, mu = cfg["energies"], cfg["beta"], cfg["mu"]
    coeffs = np.array(cfg["coeffs"])
    space = fock.build_fock(len(energies), cfg["n_total"])
    drop = fock.truncation_weight(space, energies, beta, mu)
    rep.gates["truncation"] = drop <= fock.TRUNCATION_TOL
    if not rep.gates["truncation"]:  # both Gibbs traces would refuse this space
        rep.notes.append(f"truncation weight {drop:.2e} above {fock.TRUNCATION_TOL:.0e}")
        return

    occ = qf.bose_occupation(np.array(energies), beta, mu)
    norm_sq = float((np.abs(coeffs) ** 2).sum())
    nbar = float((np.abs(coeffs) ** 2 * occ).sum()) / norm_sq
    sigma_sq = float((np.abs(coeffs) ** 2 * occ).sum())

    # field resolvent on a single effective mode with the same weight
    eps_eff = float(np.log1p(1.0 / (sigma_sq / norm_sq)) / beta) + mu

    ok = True
    for lam in cfg["lam_list"]:
        series = qf.geometric_resolvent_series(nbar, norm_sq, lam)
        gibbs = fock.gibbs_number_resolvent(space, lam, coeffs, energies, beta, mu)
        delta = abs(series - gibbs)
        field_quad = qf.field_resolvent_value(lam, sigma_sq)
        sig = np.sqrt(sigma_sq)
        field_closed = float(np.sqrt(np.pi / 2.0) / sig * erfcx(lam / (sig * np.sqrt(2.0))))
        fg = fock.gibbs_field_resolvent(
            cfg["field_n_total"], lam, np.sqrt(norm_sq), eps_eff, beta, mu
        )
        rep.rows.append(
            (lam, series, gibbs, delta, field_quad, field_closed,
             abs(field_quad - field_closed), abs(field_quad - fg))
        )
        ok = ok and delta <= cfg["match_tol"] and abs(field_quad - field_closed) <= cfg["match_tol"]
    rep.verdicts["oracle_match"] = ok
    rep.notes.append(
        "field_gibbs_delta is reported only: the quadrature formula omits the "
        "vacuum fluctuation of the mode, so a finite offset from the exact "
        "trace is expected"
    )


@_experiment(
    "condensate1d", "condensate_1d", ["parity", "R", "x", "offset", "limit", "rel_deviation", "within_tol"],
    {"radius_list_profiles": "list", "radius_list_counts": "list", "kappa": "positive"},
    radius_list_profiles=[20.0, 40.0, 80.0],
    radius_list_counts=[20.0, 40.0, 80.0, 160.0],
    kappa=0.5,
    x_probes=[1.0, 2.0, 4.0],
    profile_tol=0.02,
    profile_min_R=40.0,
    slope_tol=0.3,
    count_tol=0.1,
    dx_target=0.03125,
)
def _condensate_1d(cfg: dict, rep: Report) -> None:
    """
    1D condensate structure: smeared-mode limits, density offsets against
    the flat/linear limit profiles, and particle-count growth exponents.
    """
    kappa, radii, counted = cfg["kappa"], cfg["radius_list_profiles"], cfg["radius_list_counts"]
    if 0.0 in cfg["x_probes"]:
        raise ConfigError("x_probes must be nonzero: the odd limit x^2 vanishes at x = 0")
    for R in radii:  # every probe must be a point of every profile grid, before any solve
        grid = trap_operator(R, cfg["dx_target"]).grid
        for xv in cfg["x_probes"]:
            grid.index_of(xv)
    # one trap_mode (two half-block solves) per distinct radius serves every scan below
    solved = {R: cond.trap_mode(R, cfg["dx_target"]) for R in sorted({*radii, *counted})}

    profiles_ok = True
    for parity in ("even", "odd"):
        for R in radii:
            h = solved[R].modes[parity]
            for xv in cfg["x_probes"]:
                j = h.grid.index_of(xv)
                offset = kappa**2 * float(h.values[j].real ** 2)
                limit = kappa**2 * (1.0 if parity == "even" else xv**2)
                dev = abs(offset - limit) / limit
                checked = R >= cfg["profile_min_R"]
                ok = dev <= cfg["profile_tol"]
                rep.rows.append((parity, R, xv, offset, limit, dev, ok if checked else "n/a"))
                if checked:
                    profiles_ok = profiles_ok and ok
    rep.verdicts["profiles"] = profiles_ok

    # smeared pairings
    for parity, limit_name in (("even", "integral"), ("odd", "first_moment")):
        asym = cond.smeared_mode_limit(parity, lambda grid: bump(3.0, 1.0, grid), [solved[R] for R in radii])
        rep.verdicts[f"pairing_slope[{parity}]"] = (
            np.isfinite(asym.slope) and asym.slope <= -2.0 + cfg["slope_tol"]
        )
        rep.notes.append(
            f"{parity} pairings -> {asym.limit:.6f} ({limit_name}), slope {asym.slope:.3f}"
        )

    for parity, target in (("even", 1.0), ("odd", 3.0)):
        expo, counts = cond.condensate_count_scaling(parity, kappa, [solved[R] for R in counted])
        rep.verdicts[f"count_exponent[{parity}]"] = abs(expo - target) <= cfg["count_tol"]
        rep.notes.append(f"{parity} count exponent {expo:.4f} (target {target})")


@_experiment(
    "mulimit", "mu_limit", ["function", "mu", "value", "verdict"],
    {"mu_list": "list"},
    lam=1.0,
    beta=0.05,
    mu_list=[-0.1, -0.03, -0.01, -3e-3, -1e-3, -6e-4, -4e-4, -2.5e-4, -1.6e-4, -1e-4],
    drop_ratio=0.05,
    cauchy_tol=1e-4,
    mean_one_radius=8.0,
    box=20.0,
    n_points=4096,
)
def _mu_limit(cfg: dict, rep: Report) -> None:
    """Saturation scan of number resolvents as the chemical potential rises to 0."""
    grid = make_grid(cfg["box"], cfg["n_points"])
    lam, beta, mus = cfg["lam"], cfg["beta"], cfg["mu_list"]

    # unit-mean bump: sensitive to saturation
    f1 = bump(0.0, cfg["mean_one_radius"], grid)
    f1 = f1.with_values(f1.values / f1.integral().real)
    # zero-mean, zero-dipole second difference: blind to the condensate
    f0 = WaveFunction(grid, bump(2.0, 1.0, grid).values + bump(-2.0, 1.0, grid).values
                      - 2.0 * bump(0.0, 1.0, grid).values)
    f0 = f0.with_values(f0.values / f0.norm())
    scans = {}
    for name, f, expected in (("mean_one", f1, "vanishes"), ("zero_mean", f0, "converges-positive")):
        verdict, scans[name] = qf.mu_limit_scan(lam, f, beta, mus, cauchy_tol=cfg["cauchy_tol"],
                                                vanish_ratio=cfg["drop_ratio"])
        for mu, val in zip(mus, scans[name]):
            rep.rows.append((name, mu, float(val), verdict))
        rep.verdicts[name] = verdict == expected
    rep.verdicts["drop"] = bool(scans["mean_one"][-1] <= cfg["drop_ratio"] * scans["mean_one"][0])


@_experiment(
    "condensate3d", "condensate_3d", ["R", "k", "k_bound", "bound_constant", "pairing", "limit"],
    {"radius_list": "list", "f_radius": "positive"},
    radius_list=[20.0, 40.0, 80.0],
    constant_factor=2.0,
    slope_max=-1.7,
    k_factor=1.1,
    f_center=3.0,
    f_radius=2.0,
)
def _condensate_3d(cfg: dict, rep: Report) -> None:
    """Axial (l = 1) condensate profile: deviation bound, pairings, mode energy."""
    if not np.isfinite(cfg["f_center"]):
        raise ConfigError(f"f_center must be finite, got {cfg['f_center']}")
    rg = RadialGrid(10.0, 2048)
    phi1 = bump_profile((rg.r - cfg["f_center"]) / cfg["f_radius"])
    f = qf.RadialFunction3D(rg, np.zeros_like(rg.r), phi1)
    res = cond.l1_profile_check(cfg["radius_list"], f)
    k_ok, c_list = True, res["bound_constants"]
    for R, k, c, pair in zip(res["radii"], res["k"], c_list, res["pairings"]):
        kb = 3.0 * np.pi / (2.0 * R) * cfg["k_factor"]
        k_ok = k_ok and k <= kb
        rep.rows.append((R, k, kb, c, pair, res["limit"]))
    rep.verdicts["k_bound"] = k_ok
    rep.verdicts["constant_stable"] = max(c_list) <= cfg["constant_factor"] * min(c_list)
    rep.verdicts["pairing_slope"] = res["deviation_slope"] <= cfg["slope_max"]
    rep.notes.append(f"pairing limit {res['limit']:.6f}, slope {res['deviation_slope']:.3f}")


@_experiment(
    "memory", "memory", ["t", "thermal_abs", "total_minus_thermal", "plateau_error"],
    {"t_list": "list", "f_radius": "positive"},
    beta=1.0,
    kappa=0.5,
    t_list=[5.0, 20.0, 80.0, 320.0, 1280.0, 2600.0],
    decay_threshold=1e-3,
    plateau_tol=1e-10,
    f_radius=4.0,
)
def _memory(cfg: dict, rep: Report) -> None:
    """
    Temporal correlations of the 3D limit state at zero chemical potential:
    the thermal part decays while the condensate plateau persists.

    One temporal_correlation call on the kappa state gives the total; its
    thermal part is the total minus the plateau kappa^2 (Int f)^2, so the
    plateau verdict holds by construction (the library's condensate term
    has its own test) and the decay verdicts carry the physics.
    """
    beta, kappa, ts = cfg["beta"], cfg["kappa"], cfg["t_list"]
    state = qf.HomogeneousState(beta=beta, mu=0.0, kappa=kappa)  # checked before any transform

    rg = RadialGrid(cfg["f_radius"], 2048)
    phi0 = bump_profile(rg.r / cfg["f_radius"])
    f = qf.RadialFunction3D(rg, phi0)
    f = qf.RadialFunction3D(rg, phi0 / f.integral_3d())  # unit 3D integral

    plateau = kappa**2 * f.integral_3d() ** 2
    mags, plateau_ok = [], True
    for t, total in zip(ts, qf.temporal_correlation(state, f, f, ts)):
        thermal = total - plateau
        err = abs((total - thermal) - plateau)
        plateau_ok = plateau_ok and err <= cfg["plateau_tol"]
        mags.append(abs(thermal))
        rep.rows.append((t, abs(thermal), abs(total - thermal), err))
    rep.verdicts["thermal_decay"] = bool(np.all(np.diff(mags) < 0))
    rep.verdicts["thermal_below_threshold"] = mags[-1] <= cfg["decay_threshold"]
    if kappa > 0:
        rep.verdicts["plateau"] = plateau_ok
    else:
        rep.notes.append("kappa = 0: decay-only run")


@_experiment("oracle", "oracle_selftest", ["check", "value", "ok"], {"trials": "count"}, seed=20240817, trials=20)
def _oracle_selftest(cfg: dict, rep: Report) -> None:
    """Fock-space self-tests: commutators, resolvent spectra, monotone norms."""
    sp = fock.build_fock(2, 5)
    ccr = fock.ccr_defect(sp)
    rep.rows.append(("ccr_defect", ccr, ccr < 1e-12))

    blocks = fock.number_resolvent_matrix(sp, 1.0, np.array([0.6, 0.8]))
    norm_ok = all(abs(np.linalg.norm(b, 2) - 1.0) < 1e-12 for b in blocks)
    rep.rows.append(("resolvent_sector_norm_1_over_lam", 1.0, norm_ok))

    mono = _monotone_trials(cfg["seed"], cfg["trials"], 5, np.subtract, False)
    rep.rows.append(("difference_monotonicity_trials", cfg["trials"], mono))
    rep.verdicts["all"] = all(bool(r[2]) for r in rep.rows)


def run(subcommand: str, config: dict) -> Report:
    """Dispatch one experiment by name; see EXPERIMENTS for the table."""
    if subcommand not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {subcommand!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[subcommand](config)

import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from thermolim import condensates, hamiltonians, lab, propagators
from thermolim.cli import main
from thermolim.grids import bump, make_grid
from thermolim.lab import ConfigError, parse_config, run
from thermolim.hamiltonians import diagonalize, soft_wall_trap
from thermolim.propagators import (
    QuadratureCapError,
    ValidityGateError,
    _run_segments,
    duhamel_bound,
    evolve_free,
    gated_gap,
)


def test_parse_config_types_and_lists():
    cfg = parse_config(
        """
        # comment
        beta = 0.5
        n_points = 1024
        radius_list = 6, 8, 10
        c_rules = 1, R
        label = warm
        """
    )
    assert cfg["beta"] == 0.5
    assert cfg["n_points"] == 1024
    assert cfg["radius_list"] == [6, 8, 10]
    assert cfg["c_rules"] == [1, "R"]
    assert cfg["label"] == "warm"


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("this is not a key value line")


def test_unknown_experiment():
    with pytest.raises(ConfigError):
        run("doesnotexist", {})


def test_empty_radius_list_is_config_error():
    with pytest.raises((ConfigError, ValueError)):
        run("lemma31", {"radius_list": [], "t_list": [0.25], "c_rules": ["1"]})


def test_report_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("oracle", {}).write(out1)
    run("oracle", {}).write(out2)
    for name in ("oracle_selftest.csv", "oracle_selftest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gate_soundness_negative():
    # shrinking the box below the margin rule must flip the scan verdicts
    # to invalid-gate and the exit code to 2
    rep = run(
        "lemma31",
        {
            "radius_list": [6.0, 8.0, 10.0, 12.0],
            "t_list": [0.25],
            "c_rules": ["1"],
            "n_points": 1024,
            "box_rule": "20",
        },
    )
    assert rep.gate_failed
    assert rep.exit_code == 2
    assert all(v == "invalid-gate" for k, v in rep.verdicts.items() if k.startswith("scan"))
    assert any(row[-1] == "invalid-gate" for row in rep.rows)


def test_gate_failure_is_isolated_to_its_time():
    # at n = 512 the free packet reaches the box edge by t = 2 for R <= 8
    # (edge amplitude 3e-2 and 2e-2 against the 5e-3 gate) but not at
    # t = 0.25; only the t = 2 scan may turn invalid
    radii = [6.0, 8.0, 10.0, 12.0]
    rep = run(
        "lemma31",
        {"radius_list": radii, "t_list": [0.25, 2.0], "c_rules": ["1"], "n_points": 512},
    )
    assert rep.gates == {"box[1,t=0.25]": True, "box[1,t=2.0]": False}
    assert rep.verdicts["scan[1,t=2.0]"] == "invalid-gate"
    assert rep.verdicts["scan[1,t=0.25]"] in ("pass", "fail")
    assert {k for k in rep.verdicts if not k.startswith("scan")} == {
        "decrease[1,t=0.25]",
        "bound[1,t=0.25]",
    }
    assert all(np.isfinite(row[3]) and row[-1] != "invalid-gate" for row in rep.rows if row[1] == 0.25)
    assert [row[-1] for row in rep.rows if row[1] == 2.0] == ["invalid-gate"] * 4
    assert rep.exit_code == 2
    # the note names the first failing radius and carries that radius's gate message
    grid = make_grid(2 * 6.0 + 16.0, 512)
    free = evolve_free(bump(0.0, 2.0, grid), 2.0)
    with pytest.raises(ValidityGateError) as exc:
        gated_gap(free, free, 6.0)
    assert rep.notes == [f"gate failure (1, t=2.0, R=6.0): {exc.value}"]


def test_lemma31_threads_leave_the_report_unchanged():
    config = {"radius_list": [6.0, 8.0, 10.0, 12.0], "t_list": [0.25, 0.5], "c_rules": ["1", "R"],
              "n_points": 256}
    one = run("lemma31", dict(config, threads=1))
    two = run("lemma31", dict(config, threads=2))
    np.testing.assert_equal(two.rows, one.rows)  # NaN slopes compare equal here
    assert (two.verdicts, two.gates, two.notes) == (one.verdicts, one.gates, one.notes)


def test_lemma31_batch_keeps_its_memory_peak(monkeypatch):
    # the peak is the batched series: its 36-row ring over 28,852 rows
    # (8.3 MB), coefficient tables and sums for all ten packets, on top of
    # the packets.  One duhamel_bound call at n = 4096, for all its times,
    # takes 10.8 MB.  The run peaked at 18,008,237 bytes here (numpy 2.4)
    # before the batch, and at 16,634,175 with the series on dlagtm and an
    # in-place Duhamel integrand; the leak sums gathered once per flush
    # keep it there (16,525,549).  No cut leaks at the defaults, so all ten
    # packets run in one batch and nothing is rerun on its whole box
    batches = []

    def recording(segments):
        batches.append(len(segments))
        return _run_segments(segments)

    monkeypatch.setattr(propagators, "_run_segments", recording)
    tracemalloc.start()
    try:
        run("lemma31", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * 16_634_175
    assert batches == [10]


def test_lemma31_makes_one_duhamel_call_per_radius(monkeypatch):
    # every time whose scan passed its box gate shares one call per radius;
    # t = 2.0 fails its gate on both rules and gets no bound
    calls = []

    def recording(f, t, R):
        calls.append((list(t), R))
        return duhamel_bound(f, t, R)

    monkeypatch.setattr(lab, "duhamel_bound", recording)
    config = {"radius_list": [6.0, 8.0, 10.0, 12.0], "t_list": [0.25, 0.5, 2.0], "c_rules": ["1", "R"],
              "n_points": 512}
    rep = run("lemma31", config)
    assert calls == [([0.25, 0.5], R) for R in config["radius_list"]]
    for rule, t, R, _, bound, _, _ in rep.rows:
        if t != 2.0:
            f = bump(0.0, 2.0, make_grid(2 * R + 16.0, 512))
            # the shared table moves a larger time's last bits; at the
            # integrand's roundoff floor (R = 12: about 6e-13) they can end
            # the doubling a level apart, which moves the bound within it
            c = 1.0 if rule == "1" else R
            assert bound / c**2 == pytest.approx(duhamel_bound(f, t, R), rel=1e-12, abs=1e-13)


def test_cli_exits_2_when_a_quadrature_hits_its_cap(monkeypatch, tmp_path, capsys):
    def capped(*args, **kwargs):
        raise QuadratureCapError("Duhamel quadrature: relative change 1e-03 after 4096 intervals")

    monkeypatch.setattr(lab, "duhamel_bound", capped)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("radius_list = 6, 8, 10, 12\nt_list = 0.25\nc_rules = 1\nn_points = 256\n")
    assert main(["lemma31", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "4096 intervals" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


LEMMA31_SMALL = {"radius_list": "6, 8, 10, 12", "t_list": "0.25", "c_rules": "1", "n_points": "256"}


@pytest.mark.parametrize(
    "experiment, bad, expect",
    [
        pytest.param("lemma31", {"radius_list": "6, 8, 10"}, "radius_list", id="6, 8, 10"),
        pytest.param("lemma31", {"radius_list": "6, 10, 8, 12"}, "radius_list", id="6, 10, 8, 12"),
        pytest.param("oracle", {"trails": "1"}, "['trails']; valid keys are ['seed', 'trials']",
                     id="unknown key"),
        pytest.param("lemma31", {"n_points": "4096.7"}, "n_points", id="non-integral int"),
        pytest.param("thermal", {"beta": "warm"}, "beta", id="non-numeric float"),
        pytest.param("lemma31", {"box_rule": "abc"}, "box_rule", id="box_rule"),
        pytest.param("lemma31", {"c_rules": "1, Q"}, "c_rules", id="c_rules"),
        pytest.param("lemma33", {"n_list": "0, 1"}, "n_list", id="n_list"),
        pytest.param("lemma33", {"lam": "0"}, "lam", id="lam"),
        # range errors the library raises itself (ValueError subclasses and
        # the Fock truncation guard), not the config resolver
        pytest.param("lemma31", {"n_points": "15"}, "n_points must be even", id="n_points = 15"),
        pytest.param("thermal", {"mu": "0.5"}, "diverges", id="mu = 0.5"),
        pytest.param("thermal", {"beta": "-1"}, "beta must be positive", id="beta = -1"),
        # R = 160 at dx = 1/64 is refused, not coarsened to dx = 1/32
        pytest.param("thermal", {"radius_list": "20, 40, 80, 160"}, "needs 22528 points",
                     id="radius_list = 20, 40, 80, 160"),
        pytest.param("resolvent", {"field_n_total": "5"}, "truncation weight",
                     id="field_n_total = 5"),
        pytest.param("mulimit", {"mu_list": "-0.1, 0.2"}, "mu_list", id="mu_list = -0.1, 0.2"),
        pytest.param("memory", {"beta": "0"}, "beta must be positive", id="beta = 0"),
        pytest.param("memory", {"kappa": "-0.5"}, "kappa must be >= 0", id="kappa = -0.5"),
        pytest.param("lemma33", {"bump_radius": "-1"}, "radius must be positive", id="bump_radius = -1"),
        pytest.param("condensate1d", {"x_probes": "1.03"}, "not a grid point", id="x_probes = 1.03"),
        # the odd limit kappa^2 x^2 is 0 at x = 0, and a relative deviation from it is undefined
        pytest.param("condensate1d", {"x_probes": "0, 1"}, "x_probes must be nonzero", id="x_probes = 0, 1"),
        pytest.param("condensate1d", {"kappa": "0"}, "kappa must be positive", id="condensate1d kappa = 0"),
        pytest.param("condensate1d", {"kappa": "-0.5"}, "kappa must be positive",
                     id="condensate1d kappa = -0.5"),
        # a list key set to "," parses to an empty list
        pytest.param("mulimit", {"mu_list": ","}, "mu_list: expected at least one value",
                     id="mu_list = ,"),
        pytest.param("thermal", {"radius_list": ","}, "radius_list: expected at least one value",
                     id="radius_list = ,"),
        # configs whose trend, fit or trial verdicts would hold with nothing checked
        pytest.param("memory", {"t_list": "5"}, "t_list needs at least 2 entries", id="t_list = 5"),
        pytest.param("thermal", {"radius_list": "20"}, "radius_list needs at least 2 entries",
                     id="radius_list = 20"),
        pytest.param("lemma33", {"n_list": "2"}, "n_list needs at least 2 entries", id="n_list = 2"),
        pytest.param("lemma33", {"trials": "-4"}, "trials must be at least 1", id="lemma33 trials = -4"),
        pytest.param("oracle", {"trials": "0"}, "trials must be at least 1", id="oracle trials = 0"),
        pytest.param("condensate1d", {"radius_list_profiles": "40"},
                     "radius_list_profiles needs at least 2 entries", id="radius_list_profiles = 40"),
        pytest.param("condensate1d", {"radius_list_counts": "40"},
                     "radius_list_counts needs at least 2 entries", id="radius_list_counts = 40"),
        pytest.param("condensate3d", {"radius_list": "40"}, "radius_list needs at least 2 entries",
                     id="condensate3d radius_list = 40"),
        pytest.param("mulimit", {"mu_list": "-0.1"}, "mu_list needs at least 2 entries", id="mu_list = -0.1"),
        pytest.param("lemma31", {"threads": "0"}, "threads must be at least 1", id="threads = 0"),
        pytest.param("lemma31", {"threads": "-3"}, "threads must be at least 1", id="threads = -3"),
        pytest.param("lemma31", {"margin": "nan"}, "margin must be positive", id="margin = nan"),
        pytest.param("lemma31", {"margin": "0"}, "margin must be positive", id="margin = 0"),
        # a spacing, a radius or a lambda that is 0, negative, infinite or NaN
        pytest.param("thermal", {"dx_start": "0"}, "grid spacing must be finite and positive",
                     id="dx_start = 0"),
        pytest.param("thermal", {"dx_start": "-0.1"}, "grid spacing must be finite and positive",
                     id="dx_start = -0.1"),
        pytest.param("condensate1d", {"dx_target": "0"}, "grid spacing must be finite and positive",
                     id="condensate1d dx_target = 0"),
        pytest.param("thermal", {"radius_list": "20, inf"}, "trap radius must be finite",
                     id="radius_list = 20, inf"),
        pytest.param("resolvent", {"lam_list": "0, 1"}, "lambda must be positive", id="lam_list = 0, 1"),
        pytest.param("lemma33", {"lam": "nan"}, "lam must be positive", id="lemma33 lam = nan"),
        pytest.param("condensate3d", {"f_radius": "0"}, "f_radius must be positive", id="f_radius = 0"),
        # a NaN position, which every range check with < or > lets through
        pytest.param("condensate3d", {"f_center": "nan"}, "f_center must be finite", id="f_center = nan"),
        pytest.param("lemma31", {"bump_center": "nan"}, "bump center must be finite", id="bump_center = nan"),
        pytest.param("thermal", {"x_probe": "nan"}, "grid position x must be finite", id="x_probe = nan"),
        pytest.param("condensate1d", {"x_probes": "1, nan"}, "grid position x must be finite",
                     id="x_probes = 1, nan"),
        # a time, a radius or an extent that is infinite or NaN, and a "positive" key
        # that is not finite
        pytest.param("lemma31", {"t_list": "0.25, inf"}, "t_list must be finite", id="t_list = 0.25, inf"),
        pytest.param("lemma31", {"t_list": "0.25, nan"}, "t_list must be finite", id="t_list = 0.25, nan"),
        pytest.param("lemma33", {"t": "inf"}, "t must be finite", id="lemma33 t = inf"),
        pytest.param("lemma33", {"t": "nan"}, "t must be finite", id="lemma33 t = nan"),
        pytest.param("lemma31", {"radius_list": "6, 8, 10, inf"}, "radius_list must be finite",
                     id="radius_list = 6, 8, 10, inf"),
        pytest.param("lemma31", {"radius_list": "6, 8, 10, nan"}, "radius_list must be finite",
                     id="radius_list = 6, 8, 10, nan"),
        pytest.param("condensate3d", {"radius_list": "20, inf"}, "trap radii must be finite",
                     id="condensate3d radius_list = 20, inf"),
        pytest.param("condensate3d", {"radius_list": "20, nan"}, "trap radii must be finite",
                     id="condensate3d radius_list = 20, nan"),
        pytest.param("lemma33", {"radius_offset": "inf"}, "half_width must be finite",
                     id="radius_offset = inf"),
        pytest.param("memory", {"f_radius": "nan"}, "f_radius must be positive and finite",
                     id="memory f_radius = nan"),
        pytest.param("memory", {"f_radius": "inf"}, "f_radius must be positive and finite",
                     id="memory f_radius = inf"),
        pytest.param("condensate3d", {"f_radius": "inf"}, "f_radius must be positive and finite",
                     id="f_radius = inf"),
        pytest.param("lemma31", {"margin": "inf"}, "margin must be positive and finite", id="margin = inf"),
        pytest.param("memory", {"kappa": "nan"}, "kappa must be >= 0 and finite", id="kappa = nan"),
        pytest.param("memory", {"kappa": "inf"}, "kappa must be >= 0 and finite", id="kappa = inf"),
    ],
)
def test_cli_rejects_a_bad_radius_list_before_solving(experiment, bad, expect, monkeypatch, tmp_path,
                                                      capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve started before the config was checked")

    monkeypatch.setattr(lab, "evolve_chebyshev_batch", no_solve)
    monkeypatch.setattr(condensates, "diagonalize", no_solve)
    monkeypatch.setattr(hamiltonians, "_mrrr_window", no_solve)
    monkeypatch.setattr(lab.qf, "probe_density", no_solve)
    config = dict(LEMMA31_SMALL, **bad) if experiment == "lemma31" else bad
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


# beta = 1, mu = 0: p_cut^2 = 48, so a time t spans 48 t / (2 pi) cycles, and
# the first doubling of two nodes per cycle passes the cap at 4 cycles > cap
T_PAST_CAP = 1.01 * lab.qf.MEMORY_MAX_INTERVALS * 2.0 * np.pi / (4.0 * 48.0)


@pytest.mark.parametrize(
    "t_list, expect",
    [
        pytest.param("5.0, inf", "time must be finite, got inf", id="inf"),
        pytest.param("5.0, nan", "time must be finite, got nan", id="nan"),
        pytest.param(f"5.0, {T_PAST_CAP!r}", "cycles of the phase need more than the cap", id="past cap"),
    ],
)
def test_cli_memory_rejects_a_bad_time_before_any_transform(t_list, expect, monkeypatch, tmp_path, capsys):
    def no_transform(*args, **kwargs):
        raise AssertionError("radial transform started before the times were checked")

    monkeypatch.setattr(lab.qf.RadialFunction3D, "radial_transform", no_transform)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_list = {t_list}\n")
    assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "line, expect",
    [
        pytest.param("mu_list = -0.1, -0.03, nan", "must be finite", id="mu nan"),
        pytest.param("mu_list = -0.1, -inf", "must be finite", id="mu inf"),
        pytest.param("beta = nan", "must be finite", id="beta nan"),
        pytest.param("lam = inf", "lambda must be positive and finite", id="lam inf"),
        pytest.param("lam = 0.0", "lambda must be positive", id="lam zero"),
    ],
)
def test_cli_mulimit_rejects_a_bad_input_before_any_transform(line, expect, monkeypatch, tmp_path, capsys):
    def no_transform(*args, **kwargs):
        raise AssertionError("momentum transform started before the inputs were checked")

    monkeypatch.setattr(lab.qf, "_phase_sums", no_transform)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["mulimit", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "experiment, line",
    [
        pytest.param("memory", "beta = nan", id="memory beta nan"),
        pytest.param("thermal", "beta = nan", id="thermal beta nan"),
        pytest.param("thermal", "mu = nan", id="thermal mu nan"),
        pytest.param("resolvent", "beta = nan", id="resolvent beta nan"),
        pytest.param("resolvent", "mu = nan", id="resolvent mu nan"),
    ],
)
def test_cli_rejects_a_non_finite_beta_or_mu_before_any_weight(experiment, line, monkeypatch, tmp_path,
                                                               capsys):
    def no_numerics(*args, **kwargs):
        raise AssertionError("numerics started before beta and mu were checked")

    # the first numerical call of each experiment once its state is checked
    monkeypatch.setattr(lab.qf.RadialFunction3D, "radial_transform", no_numerics)  # memory
    monkeypatch.setattr(lab.qf, "_quad", no_numerics)  # thermal's homogeneous density
    monkeypatch.setattr(lab.qf, "probe_density", no_numerics)
    monkeypatch.setattr(lab.fock, "number_resolvent_matrix", no_numerics)  # resolvent's traces
    monkeypatch.setattr(lab.fock, "gibbs_field_resolvent", no_numerics)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_memory_cap_is_the_first_doubling():
    # checked by arithmetic alone: the start level just below the cap fits
    p_cut = np.sqrt(48.0)
    n = lab.qf._simpson_start(0.99 * T_PAST_CAP / 1.01, p_cut)
    assert 2 * n <= lab.qf.MEMORY_MAX_INTERVALS < 4 * n
    with pytest.raises(QuadratureCapError):
        lab.qf._simpson_start(-T_PAST_CAP, p_cut)


def test_cli_memory_exits_2_when_the_amplitude_spline_gate_fails(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f_radius = 40.0\nt_list = 5.0, 20.0\n")
    assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "half-set spline is off by" in capsys.readouterr().err


def test_cli_resolvent_writes_its_report_when_the_truncation_gate_fails(tmp_path, capsys):
    # n_total = 5 discards far more than TRUNCATION_TOL of the Gibbs weight:
    # the gate reads false in the written report, and the run exits 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_total = 5\n")
    assert main(["resolvent", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "gate truncation: FAILED" in capsys.readouterr().out
    summary = json.loads((tmp_path / "r" / "resolvent_oracle.json").read_text())
    assert summary["gates"] == {"truncation": False}
    assert summary["exit_code"] == 2
    assert summary["notes"][0].startswith("truncation weight")


def test_cli_echoes_the_config_that_ran(monkeypatch, tmp_path):
    # a numeric coupling rule is a constant coupling, in the trap and in the
    # bound, which is c^2 times the unit-coupling Duhamel integral
    couplings = []

    def trap(R, c):
        couplings.append(c)
        return soft_wall_trap(R, c)

    monkeypatch.setattr(lab, "soft_wall_trap", trap)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("radius_list = 6, 8, 10, 12\nt_list = 0.25\nc_rules = 2.5\nn_points = 256\n")
    assert main(["lemma31", "--config", str(cfg), "--out", str(tmp_path / "r")]) in (0, 1)
    assert couplings == [2.5] * 4
    lines = (tmp_path / "r" / "propagator_scan.csv").read_text().splitlines()
    columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert [float(row[columns.index("R")]) for row in rows] == [6.0, 8.0, 10.0, 12.0]
    for row in rows:
        R = float(row[columns.index("R")])
        f = bump(0.0, 2.0, make_grid(2 * R + 16.0, 256))
        assert float(row[columns.index("duhamel_bound")]) == 2.5**2 * duhamel_bound(f, 0.25, R)
    config = json.loads((tmp_path / "r" / "propagator_scan.json").read_text())["config"]
    assert config["radius_list"] == [6.0, 8.0, 10.0, 12.0]
    assert config["t_list"] == [0.25]
    assert config["c_rules"] == ["2.5"]
    assert "# t_list = [0.25]" in lines
    assert "# radius_list = [6.0, 8.0, 10.0, 12.0]" in lines


def test_cli_lemma33_names_a_nan_half_width(tmp_path, capsys, recwarn):
    # radius_offset = nan makes every box half width NaN: the grid refuses
    # it by name, before any sample is computed
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius_offset = nan\n")
    assert main(["lemma33", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "half_width must be positive, got nan" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_lemma33_exits_2_on_the_edge_gate(tmp_path, capsys):
    # a bump of radius 27 in the [-28, 28] box of R = 6: the free packet
    # reaches the box edge, so its gap is not a trapped-vs-free gap
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bump_radius = 27\nn_list = 1, 2\n")
    assert main(["lemma33", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "edge amplitude" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_cli_thermal_exits_2_when_the_walk_reaches_the_box_edge(tmp_path, capsys):
    # at mu = -1e-3 the Bose weight of the lowest levels closes the bracket
    # only after 256 Lanczos steps at R = 20: the walk reads rows 32 .. 544
    # of 576, and row 32 (x = -32) lies in the edge strip |x| >= L - 4 = 32
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = -1e-3\nradius_list = 20, 40\n")
    assert main(["thermal", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "gate edge[R=20.0]: FAILED" in capsys.readouterr().out
    summary = json.loads((tmp_path / "r" / "thermal_convergence.json").read_text())
    assert summary["gates"]["edge[R=20.0]"] is False
    assert summary["exit_code"] == 2


def test_thermal_solves_no_eigenproblem_of_the_trap(monkeypatch):
    # the density comes from the Lanczos bracket alone: no dstemr window of
    # any trap.  The run peaked at 4,668,108 bytes here (numpy 2.4), against
    # 22.5 MB with the Bose-cap windows
    def no_window(*args, **kwargs):
        raise AssertionError("thermal solved an eigenvalue window of the trap")

    monkeypatch.setattr(hamiltonians, "_mrrr_window", no_window)
    run("thermal", {})  # warm-up outside the traced region
    tracemalloc.start()
    try:
        rep = run("thermal", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.exit_code == 0
    assert peak < 8_000_000


@pytest.mark.parametrize("argv, key", [(["oracle", "--threads", "2"], "threads"),
                                       (["thermal", "--seed", "3"], "seed")], ids=["threads", "seed"])
def test_cli_rejects_a_flag_the_experiment_has_no_key_for(argv, key, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    assert f"unknown key(s) ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_resolve_casts_to_the_default_types():
    defaults = {"n": 4, "x": 0.5, "xs": [1.0, 2.0], "rule": "R"}
    cfg = lab._resolve(defaults, {"n": 4096.0, "x": "2", "xs": np.array([3, 4]), "rule": 1})
    assert cfg == {"n": 4096, "x": 2.0, "xs": [3.0, 4.0], "rule": "1"}
    assert [type(v) for v in (cfg["n"], cfg["x"], *cfg["xs"])] == [int, float, float, float]
    assert lab._resolve(defaults, {"xs": (5, 6.5)})["xs"] == [5.0, 6.5]
    assert lab._resolve(defaults, {"xs": np.float64(7.0)})["xs"] == [7.0]
    assert lab._resolve(defaults, {}) == defaults
    for bad in ({"n": True}, {"x": False}, {"n": 2.5}, {"n": "many"}, {"x": "warm"},
                {"x": np.zeros(2)}, {"xs": [1.0, None]}, {"n": float("inf")}, {"x": 10**400}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            lab._resolve(defaults, bad)


def test_cli_roundtrip(tmp_path):
    out = tmp_path / "reports"
    code = main(["oracle", "--out", str(out), "--seed", "7"])
    assert code == 0
    summary = json.loads((out / "oracle_selftest.json").read_text())
    assert summary["passed"] is True
    assert summary["config"]["seed"] == 7
    csv_text = (out / "oracle_selftest.csv").read_text()
    assert csv_text.splitlines()[0].startswith("#")


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 5\nseed = 11\n")
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 0
    summary = json.loads((tmp_path / "r" / "oracle_selftest.json").read_text())
    assert summary["config"]["trials"] == 5


def test_cli_missing_config_is_exit_2(tmp_path):
    assert main(["oracle", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("content", [b"not a key value line\n", b"\xff\xfe = 1\n"],
                         ids=["malformed", "undecodable"])
def test_cli_unparsable_config_is_exit_2(content, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "r").exists()


def test_report_csv_plain_floats(tmp_path):
    rep = run("lemma33", {"n_list": [1, 2], "n_points": 1024, "trials": 2})
    rep.write(tmp_path)
    text = (tmp_path / "sector_norms.csv").read_text()
    assert "np." not in text
    json.loads((tmp_path / "sector_norms.json").read_text())


def test_memory_without_condensate_is_decay_only():
    rep = run("memory", {"kappa": 0.0, "t_list": [5.0, 20.0, 80.0]})
    assert "plateau" not in rep.verdicts
    assert rep.verdicts["thermal_decay"] is True
    assert any("decay-only" in n for n in rep.notes)


def test_memory_makes_one_correlation_pass(monkeypatch):
    # the thermal part is the total minus the plateau: one radial transform
    # (f pairs with itself) serves the whole run
    calls = []
    transform = lab.qf.RadialFunction3D.radial_transform
    monkeypatch.setattr(lab.qf.RadialFunction3D, "radial_transform",
                        lambda fn, p: calls.append(fn) or transform(fn, p))
    rep = run("memory", {})
    assert len(calls) == 1
    assert rep.passed


def test_lemma31_solves_only_its_stiff_wall_jobs(monkeypatch):
    # the stiff-wall (c = R) jobs were once the only ones to diagonalize; now
    # every trapped packet, soft wall or stiff, goes through the series, so
    # no job does.  The counter replaces diagonalize in every module that
    # holds it
    solved = []

    def counting(H, n_modes=None):
        solved.append(H.size)
        return diagonalize(H, n_modes)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thermolim" and hasattr(module, "diagonalize"):
            monkeypatch.setattr(module, "diagonalize", counting)
    run("lemma31", {"radius_list": [6.0, 8.0, 10.0, 12.0], "t_list": [0.25], "c_rules": ["1", "R"],
                    "n_points": 512})
    assert solved == []


def test_condensate1d_solves_each_radius_once(monkeypatch):
    # the profile, pairing and count scans share radii 20, 40 and 80; each
    # radius is one even (N rows) and one odd (N - 1 rows) one-mode
    # half-block window, and no full-grid solve
    sizes = []
    window = hamiltonians._mrrr_window

    def counting(d, e, z):
        assert z.shape[1] == 1
        sizes.append(z.shape[0])
        return window(d, e, z)

    monkeypatch.setattr(hamiltonians, "_mrrr_window", counting)
    rep = run("condensate1d", {})
    assert len(sizes) == len(set(sizes)) == 8
    assert sizes[1::2] == [n - 1 for n in sizes[::2]]
    assert rep.verdicts["count_exponent[odd]"] is True

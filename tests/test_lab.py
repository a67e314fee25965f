import json
import os

import numpy as np
import pytest

from thermolim import condensates, lab
from thermolim.cli import main
from thermolim.grids import bump, make_grid
from thermolim.lab import ConfigError, parse_config, run
from thermolim.hamiltonians import assemble, diagonalize, soft_wall_trap
from thermolim.propagators import (
    QuadratureCapError,
    ValidityGateError,
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
        pytest.param("resolvent", {"n_total": "5"}, "truncation weight", id="n_total = 5"),
        pytest.param("mulimit", {"mu_list": "-0.1, 0.2"}, "mu_list", id="mu_list = -0.1, 0.2"),
        pytest.param("memory", {"beta": "0"}, "beta must be positive", id="beta = 0"),
        pytest.param("memory", {"kappa": "-0.5"}, "kappa must be >= 0", id="kappa = -0.5"),
        pytest.param("lemma33", {"bump_radius": "-1"}, "radius must be positive", id="bump_radius = -1"),
        pytest.param("condensate1d", {"x_probes": "1.03"}, "not a grid point", id="x_probes = 1.03"),
        # a list key set to "," parses to an empty list
        pytest.param("mulimit", {"mu_list": ","}, "mu_list: expected at least one value",
                     id="mu_list = ,"),
        pytest.param("thermal", {"radius_list": ","}, "radius_list: expected at least one value",
                     id="radius_list = ,"),
    ],
)
def test_cli_rejects_a_bad_radius_list_before_solving(experiment, bad, expect, monkeypatch, tmp_path,
                                                      capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve started before the config was checked")

    monkeypatch.setattr(lab, "evolve", no_solve)
    monkeypatch.setattr(condensates, "diagonalize", no_solve)
    config = dict(LEMMA31_SMALL, **bad) if experiment == "lemma31" else bad
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


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


def test_cli_lemma33_exits_2_on_the_edge_gate(tmp_path, capsys):
    # a bump of radius 27 in the [-28, 28] box of R = 6: the free packet
    # reaches the box edge, so its gap is not a trapped-vs-free gap
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bump_radius = 27\nn_list = 1\n")
    assert main(["lemma33", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "edge amplitude" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


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
    rep = run("lemma33", {"n_list": [1], "n_points": 1024, "trials": 2})
    rep.write(tmp_path)
    text = (tmp_path / "sector_norms.csv").read_text()
    assert "np." not in text
    json.loads((tmp_path / "sector_norms.json").read_text())


def test_memory_without_condensate_is_decay_only():
    rep = run("memory", {"kappa": 0.0, "t_list": [5.0, 20.0, 80.0]})
    assert "plateau" not in rep.verdicts
    assert rep.verdicts["thermal_decay"] is True
    assert any("decay-only" in n for n in rep.notes)


def test_lemma31_solves_only_its_stiff_wall_jobs(monkeypatch):
    # the c = 1 jobs lie below the Chebyshev crossover, the c = R ones above it
    import thermolim.propagators as propagators

    solved = []

    def counting(H, n_modes=None):
        solved.append(H.diagonal.max())
        return diagonalize(H, n_modes)

    monkeypatch.setattr(propagators, "diagonalize", counting)
    radii = [6.0, 8.0, 10.0, 12.0]
    run("lemma31", {"radius_list": radii, "t_list": [0.25], "c_rules": ["1", "R"], "n_points": 512})
    stiff = [assemble(make_grid(2 * R + 16.0, 512), soft_wall_trap(R, R)).diagonal.max() for R in radii]
    assert solved == stiff


def test_condensate1d_solves_each_radius_once(monkeypatch):
    # the profile, pairing and count scans share radii 20, 40 and 80
    sizes = []

    def counting(H, n_modes=None):
        sizes.append(H.size)
        return diagonalize(H, n_modes)

    monkeypatch.setattr(condensates, "diagonalize", counting)
    rep = run("condensate1d", {})
    assert len(sizes) == len(set(sizes)) == 4
    assert rep.verdicts["count_exponent[odd]"] is True

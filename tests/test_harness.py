import json

import numpy as np
import pytest

from gradphi.cli import run_cli
from gradphi.harness import (
    ConfigError,
    boundary_datum,
    fit_power_law,
    load_config,
    run_experiment,
)
from gradphi.noise import NoiseSource
from gradphi.occupation import EdgeGradientSpec, occupation_experiment
from gradphi.potential import quadratic


def test_fit_power_law_exact_square():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_power_law(xs, xs**2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_power_law_constant():
    fit = fit_power_law([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_noisy_inverse_square():
    rng = np.random.default_rng(0)
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    ys = 3.0 * xs**-2 * (1.0 + 0.01 * rng.normal(size=len(xs)))
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent + 2.0) < 0.1


def test_fit_power_law_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


def test_boundary_datum_library():
    f = boundary_datum({"name": "sine_product"})
    pts = np.array([[0.5, 0.5], [0.0, 0.3]])
    vals = f(pts)(0.0)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConfigError):
        boundary_datum({"name": "nope"})


def test_boundary_datum_affine_coefficients():
    f = boundary_datum({"name": "affine", "coefficients": [1.0, -2.0]})
    pts = np.array([[0.5, 0.25], [0.0, 1.0]])
    assert np.array_equal(f(pts)(0.0), pts @ np.array([1.0, -2.0]))
    with pytest.raises(ConfigError):
        boundary_datum({"name": "affine", "coefficient": [1.0, -2.0]})


def test_load_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))
    q = tmp_path / "list.json"
    q.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(q))


def _occupation_cfg():
    return {
        "schema_version": 1,
        "experiment": "occupation",
        "process": "brownian",
        "thresholds": [0.05, 0.1, 0.2],
        "replicas": 200,
        "dt": 1e-3,
        "seed": 11,
    }


def test_run_experiment_writes_csv_and_summary(tmp_path):
    out = tmp_path / "out"
    res = run_experiment("occupation", _occupation_cfg(), str(out))
    assert (out / "occupation.csv").exists()
    assert (out / "summary.json").exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["experiment"] == "occupation"
    assert doc["seed"] == 11
    assert doc["config"]["thresholds"] == [0.05, 0.1, 0.2]
    assert "tool_version" in doc and "wall_clock_seconds" in doc
    assert set(doc["criteria"]) == set(res.criteria)
    assert all(isinstance(v, bool) for v in doc["criteria"].values())
    first = (out / "occupation.csv").read_text().splitlines()
    assert first[0] == "epsilon,mean_occupation,stderr,replicas"


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment("occupation", _occupation_cfg(), str(out1))
    run_experiment("occupation", _occupation_cfg(), str(out2))
    csv1 = (out1 / "occupation.csv").read_bytes()
    csv2 = (out2 / "occupation.csv").read_bytes()
    assert csv1 == csv2


def test_seed_override_changes_results(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment("occupation", _occupation_cfg(), str(out1))
    run_experiment("occupation", _occupation_cfg(), str(out2), seed=999)
    assert (out1 / "occupation.csv").read_bytes() != (out2 / "occupation.csv").read_bytes()


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment("mystery", {}, str(tmp_path))


def test_experiment_name_mismatch_rejected(tmp_path):
    cfg = _occupation_cfg()
    cfg["experiment"] = "hydro"
    with pytest.raises(ConfigError):
        run_experiment("occupation", cfg, str(tmp_path))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate", "--config", "x.json"]) == 2


def test_cli_missing_config_key_exits_2(tmp_path):
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps({"schema_version": 1, "epsilons": [0.25]}))
    code = run_cli(["hydro", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("name, cfg", [
    ("corrector", {"potential": {"kind": "cubic"}, "sizes": [2, 3, 4]}),
    ("linearize", {"potential": {"kind": "kinked"}, "L": 4}),
    ("occupation", {"replica": 5, "thresholds": [0.05, 0.1, 0.2], "seed": 1}),
    ("hydro", {"potential": {"kind": "quadratic"}, "epsilons": [0.25], "f": {"name": "zero"},
               "gradient_diagnostic": {"epsilon": [0.25], "replicas": 1}}),
    ("surface-tension", {"potential": {"kind": "quadratic"}, "L": 2, "replicas": 3,
                         "slopes": [[0.1, 0.0], [0.2]]}),
    ("hessian", {"potential": {"kind": "quadratic"}, "L": 2, "replicas": 3, "slope": [0.2]}),
    ("linearize", {"potential": {"kind": "kinked", "b": 0.5}, "L": 2, "replicas": 3,
                   "base_slope": [0.3, 0.0, 0.1]}),
    ("hydro", {"potential": {"kind": "quadratic"}, "d": 3, "epsilons": [0.5], "replicas": 1,
               "f": {"name": "affine"}}),
    ("hydro", {"potential": {"kind": "quadratic"}, "epsilons": [0.5], "replicas": 1,
               "f": {"name": "affine", "coefficients": [1, 2, 3]}}),
    ("excess", {"L": 8, "scales": [4, 8], "replicas": 3, "threads": 2}),
    ("flux-decay", {"potential": {"kind": "quadratic"}, "L": 4, "windows": [2, 3]}),
    ("flux-decay", {"potential": {"kind": "quadratic"}, "L": 4, "windows": [2, 4, 8]}),
    ("excess", {"L": 4, "scales": [2, 4], "replicas": 2}),
    ("excess", {"L": 4, "scales": [4, 8], "replicas": 2}),
])
def test_cli_malformed_config_exits_2(tmp_path, capsys, name, cfg):
    # an unknown potential, a missing potential parameter, a misspelled
    # top-level key, a misspelled key of a nested block, tilts without d
    # components, an affine boundary datum without d coefficients (the
    # 2-d default in 3-d, three in 2-d), a thread count, which only
    # --threads sets, too few flux-decay windows, a window wider than the
    # torus, and excess scales outside [4, L]: one error line, no
    # traceback, and nothing written
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    out = tmp_path / "o"
    assert run_cli([name, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_cli_occupation_round_trip(tmp_path, capsys):
    cfg = tmp_path / "occ.json"
    cfg.write_text(json.dumps(_occupation_cfg()))
    out = tmp_path / "out"
    code = run_cli(["occupation", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "pass" in captured.out
    assert (out / "occupation.csv").exists()


def test_cli_same_seed_byte_identical(tmp_path):
    cfg = tmp_path / "excess.json"
    cfg.write_text(json.dumps({"schema_version": 1, "L": 8, "scales": [4, 8],
                               "replicas": 3, "seed": 13}))
    outs = []
    for name, threads in [("o1", "1"), ("o2", "3")]:
        out = tmp_path / name
        assert run_cli(["excess", "--config", str(cfg), "--out", str(out),
                        "--threads", threads]) == 0
        outs.append((out / "excess.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name, cfg", [
    ("corrector", {"potential": {"kind": "quadratic"}, "sizes": [2, 3, 4], "replicas": 10}),
    ("surface-tension", {"potential": {"kind": "quadratic"}, "L": 4, "replicas": 3,
                         "slopes": [[0.1, 0.0]]}),
    ("hessian", {"potential": {"kind": "quadratic"}, "L": 3, "replicas": 3}),
    ("occupation", {"thresholds": [0.05, 0.1, 0.2], "replicas": 50, "dt": 0.01}),
    ("heatkernel", {"L": 4, "environments": 2}),
    ("gff", {"L": 3, "replicas": 50}),
])
def test_cli_threads_exits_2_where_no_thread_acts(tmp_path, capsys, name, cfg):
    # these experiments run on one thread, so --threads is rejected before
    # anything runs or is written
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    out = tmp_path / "out"
    assert run_cli([name, "--config", str(path), "--out", str(out), "--threads", "2"]) == 2
    assert "threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, threads, cfg", [
    ("linearize", "-2", {"potential": {"kind": "kinked", "b": 0.5}, "L": 2, "replicas": 3}),
    ("flux-decay", "0", {"potential": {"kind": "quadratic"}, "L": 4, "windows": [1, 2, 3],
                         "replicas": 3, "horizon": 1}),
])
def test_cli_threads_below_one_exits_2(tmp_path, capsys, name, threads, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    out = tmp_path / "out"
    assert run_cli([name, "--config", str(path), "--out", str(out),
                    f"--threads={threads}"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_corrector_writes_named_csv(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "potential": {"kind": "quadratic"},
        "d": 2,
        "sizes": [4, 6, 8],
        "replicas": 64,
        "seed": 3,
    }))
    out = tmp_path / "out"
    code = run_cli(["corrector", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "corrector_fluct.csv").exists()
    assert (out / "summary.json").exists()


def test_hydro_zero_noise_consistency():
    # deterministic diagnostic: with the noise off and the identity
    # effective gradient, the microscopic and effective solvers coincide
    from gradphi.harness import hydro_limit_experiment

    cfg = {
        "potential": {"kind": "quadratic"},
        "d": 2,
        "epsilons": [0.25, 0.125],
        "replicas": 1,
        "f": {"name": "sine_product"},
        "zero_noise": True,
    }
    res = hydro_limit_experiment(seed=0, **cfg)
    errs = np.asarray(res.summary["mean_error"])
    assert np.all(errs <= 1e-10)
    assert errs[1] <= errs[0] + 1e-10


def test_hydro_gradient_two_scale_diagnostic():
    from gradphi.harness import hydro_limit_experiment

    cfg = {
        "potential": {"kind": "quadratic"},
        "d": 2,
        "epsilons": [0.125],
        "replicas": 3,
        "f": {"name": "sine_product"},
        "gradient_diagnostic": {"epsilons": [0.125], "replicas": 3},
    }
    res = hydro_limit_experiment(seed=31, **cfg)
    diag = res.summary["gradient_two_scale"]
    assert len(diag) == 3
    assert all(np.isfinite(row["error"]) and row["error"] > 0 for row in diag)


def test_hydro_gradient_diagnostic_with_more_replicas_than_the_run_reports():
    # the main run covers the diagnostic's replicas and reports the first
    # `replicas` of them only; every row equals that of a run reporting all
    from gradphi.harness import hydro_limit_experiment

    cfg = {"potential": {"kind": "quadratic"}, "epsilons": [0.25], "f": {"name": "sine_product"},
           "gradient_diagnostic": {"epsilons": [0.25], "replicas": 2}}
    few = hydro_limit_experiment(seed=7, replicas=1, **cfg)
    every = hydro_limit_experiment(seed=7, replicas=2, **cfg)
    assert few.rows == every.rows[:1]
    assert few.summary["mean_error"][0] == every.rows[0][2]
    assert few.summary["gradient_two_scale"] == every.summary["gradient_two_scale"]
    assert len(few.summary["gradient_two_scale"]) == 2


@pytest.mark.parametrize("name, cfg", [
    ("flux-decay", {"potential": {"kind": "soft_quartic", "a": 0.5}, "L": 8,
                    "windows": [2, 3, 4], "replicas": 12, "horizon": 4, "seed": 5}),
    ("excess", {"L": 8, "scales": [4, 8], "replicas": 3, "seed": 13}),
    ("hydro", {"potential": {"kind": "quadratic"}, "epsilons": [0.25, 0.125, 0.0625],
               "replicas": 3, "f": {"name": "sine_product"},
               "gradient_diagnostic": {"epsilons": [0.25, 0.125], "replicas": 2}, "seed": 9}),
    ("linearize", {"potential": {"kind": "kinked", "b": 0.5}, "L": 4,
                   "base_slope": [0.3, 0.0], "replicas": 4, "seed": 8}),
])
def test_threaded_experiments_are_thread_independent(tmp_path, name, cfg):
    # the experiments that use --threads: flux-decay and excess run replica
    # chunks on threads, hydro and linearize draw their noise on one; the
    # CSV and the results of summary.json (where hydro's gradient
    # diagnostic lives) are the same at every thread count
    outputs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"threads{threads}"
        run_experiment(name, dict(cfg), str(out), threads=threads)
        (csv,) = out.glob("*.csv")
        results = json.loads((out / "summary.json").read_text())["results"]
        outputs.append((csv.read_bytes(), results))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("potential", [{"kind": "quadratic"},
                                       {"kind": "soft_quartic", "a": 0.5}])
def test_surface_tension_runs_in_three_dimensions(tmp_path, potential):
    cfg = {"potential": potential, "d": 3, "L": 2, "replicas": 3, "seed": 27,
           "slopes": [[0.1, 0.0, 0.2]]}
    run_experiment("surface-tension", cfg, str(tmp_path))
    lines = (tmp_path / "surface_tension.csv").read_text().splitlines()
    assert len(lines) == 2
    assert [len(line.split(",")) for line in lines] == [10, 10]


def test_occupation_edge_gradient_runs_in_three_dimensions(tmp_path):
    cfg = {"process": "edge_gradient", "d": 3, "L": 2,
           "thresholds": [0.05, 0.1, 0.2], "replicas": 4, "seed": 28}
    res = run_experiment("occupation", cfg, str(tmp_path))
    rep = occupation_experiment(EdgeGradientSpec(L=2, d=3, potential=quadratic()),
                                [0.05, 0.1, 0.2], 4, NoiseSource(seed=28))
    assert [row[1] for row in res.rows] == list(rep.means)
    assert res.summary["slope"] == rep.slope

import json
import os

import pytest

from racbox.cli import main
from racbox.experiments import (ExperimentConfig, REGISTRY, read_csv_rows,
                                run_experiment)


def run_cli(*argv):
    return main(list(argv))


def test_list_names_every_experiment(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_run_writes_outputs_and_verify_passes(tmp_path, capsys):
    assert run_cli("run", "table1", "--out", str(tmp_path)) == 0
    out_dir = tmp_path / "table1"
    assert (out_dir / "table1.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["all_passed"]
    assert manifest["outputs"].keys() == {"table1.csv"}
    assert run_cli("verify", str(out_dir / "manifest.json")) == 0
    assert "VERIFY: PASS" in capsys.readouterr().out


def test_verify_fails_on_tampered_csv(tmp_path, capsys):
    run_cli("run", "table3", "--out", str(tmp_path))
    csv_path = tmp_path / "table3" / "table3.csv"
    text = csv_path.read_text()
    csv_path.write_text(text.replace("0.5", "0.4", 1))
    assert run_cli("verify", str(tmp_path / "table3" / "manifest.json")) == 1
    out = capsys.readouterr().out
    assert "CHECKSUM MISMATCH table3.csv" in out
    assert "VERIFY: FAIL" in out


def test_verify_fails_on_missing_file(tmp_path, capsys):
    run_cli("run", "table3", "--out", str(tmp_path))
    os.remove(tmp_path / "table3" / "table3.csv")
    assert run_cli("verify", str(tmp_path / "table3" / "manifest.json")) == 1
    assert "MISSING table3.csv" in capsys.readouterr().out


def test_rerun_same_seed_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(experiment="capacity-sanity", seed=99, episodes=5_000,
                           workers=1, params={"snrs": [1.0], "ms": [1, 8],
                                              "packed": ["1x8"]})
    first = run_experiment(cfg, out_root=str(tmp_path / "a"))
    second = run_experiment(cfg, out_root=str(tmp_path / "b"))
    assert first["outputs"] == second["outputs"]
    assert first["config_hash"] == second["config_hash"]


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("run", "nonesuch", "--out", str(tmp_path))
    with pytest.raises(KeyError):
        run_experiment(ExperimentConfig(experiment="nonesuch"), out_root=str(tmp_path))


def test_grid_override_changes_config(tmp_path):
    assert run_cli("run", "phase-boundary", "--n-max", "6",
                   "--out", str(tmp_path)) == 0
    rows = read_csv_rows(str(tmp_path / "phase-boundary" / "phase_boundary.csv"))
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5, 6]


def test_config_file_defaults_with_cli_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[defaults]\nseed = 7\n\n[phase-boundary]\nn_max = 4\n")
    assert run_cli("run", "phase-boundary", "--config", str(ini),
                   "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "phase-boundary" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["params"]["n_max"] == 4
    # the command line wins over the file
    assert run_cli("run", "phase-boundary", "--config", str(ini), "--seed", "12",
                   "--n-max", "3", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "phase-boundary" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 12
    assert manifest["config"]["params"]["n_max"] == 3


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RACBOX_OUT", str(tmp_path / "from_env"))
    assert run_cli("run", "table1") == 0
    assert (tmp_path / "from_env" / "table1" / "table1.csv").exists()


def test_csv_header_comment_carries_config_hash(tmp_path):
    run_cli("run", "table1", "--out", str(tmp_path))
    manifest = json.loads((tmp_path / "table1" / "manifest.json").read_text())
    first_line = (tmp_path / "table1" / "table1.csv").read_text().splitlines()[0]
    assert first_line.startswith("#")
    assert manifest["config_hash"] in first_line


def test_workers_do_not_change_results(tmp_path):
    base = dict(experiment="capacity-sanity", seed=5, episodes=4_000,
                params={"snrs": [0.5], "ms": [1], "packed": ["1x4"]})
    serial = run_experiment(ExperimentConfig(workers=1, **base),
                            out_root=str(tmp_path / "s"))
    pooled = run_experiment(ExperimentConfig(workers=2, **base),
                            out_root=str(tmp_path / "p"))
    assert serial["outputs"] == pooled["outputs"]


# One judged numeric column per experiment, scaled by a few percent.
JUDGE_PERTURBATIONS = {
    "table1": ("table1.csv", "score", 1.05),
    "table3": ("table3.csv", "e_iso", 1.03),
    "depth-scan": ("depth_scan.csv", "score", 1.05),
    "bias-scan": ("bias_scan.csv", "score", 1.05),
    "phase-boundary": ("phase_boundary.csv", "e_crit", 1.02),
    "capacity-phase": ("capacity_phase.csv", "e_crit", 1.05),
    "capacity-sanity": ("capacity_sanity.csv", "observed", 1.03),
    "ablations": ("ablations.csv", "observed", 1.03),
    "visibility": ("visibility.csv", "score", 1.05),
    "benchmark": ("benchmark.csv", "majority_score", 1.05),
    "angle-opt": ("angle_opt.csv", "phi_star", 1.03),
}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_judge_passes_then_fails_on_a_perturbed_column(name):
    # a verdict that cannot fail checks nothing: every judge must accept the
    # built tables and reject them once one judged column moves a few percent
    if name == "ablations":
        config = ExperimentConfig(name, episodes=20_000, params={"steps": 100, "seeds": 1})
    else:
        config = ExperimentConfig(name)
    exp = REGISTRY[name]
    tables = exp.build(config)
    assert all(v.passed for v in exp.judge(tables, config))
    fname, column, factor = JUDGE_PERTURBATIONS[name]
    rows = [dict(row, **{column: row[column] * factor}) for row in tables[fname]]
    assert not all(v.passed for v in exp.judge({**tables, fname: rows}, config))

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from racbox import experiments, scores
from racbox.cli import main
from racbox.experiments import (ExperimentConfig, REGISTRY, read_table,
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


def test_verify_rebuild_catches_a_drifted_build(tmp_path, capsys, monkeypatch):
    manifest = str(tmp_path / "table1" / "manifest.json")
    assert run_cli("run", "table1", "--out", str(tmp_path)) == 0
    assert run_cli("verify", "--rebuild", manifest) == 0
    assert "rebuild ok table1.csv" in capsys.readouterr().out

    # a build that moves one score by one ulp still passes every verdict, and
    # the files on disk still match their checksums: only a rebuild sees it
    exp = REGISTRY["table1"]

    def drifted(p):
        rows = exp.build(p)["table1.csv"]
        first = dict(rows[0], score=math.nextafter(rows[0]["score"], 1.0))
        return {"table1.csv": [first] + rows[1:]}

    monkeypatch.setitem(REGISTRY, "table1", dataclasses.replace(exp, build=drifted))
    assert run_cli("verify", manifest) == 0
    capsys.readouterr()
    assert run_cli("verify", "--rebuild", manifest) == 1
    out = capsys.readouterr().out
    assert "REBUILD MISMATCH table1.csv" in out
    assert "VERIFY: FAIL" in out


def test_rerun_same_seed_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(experiment="capacity-sanity", seed=99, episodes=5_000,
                           workers=1, params={"snrs": [1.0], "ms": [1, 8],
                                              "packed": ["1x8"]})
    first = run_experiment(cfg, out_root=str(tmp_path / "a"))
    second = run_experiment(cfg, out_root=str(tmp_path / "b"))
    assert first["outputs"] == second["outputs"]
    assert first["config_hash"] == second["config_hash"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bad_probe_grid_fails_before_any_probe_runs(tmp_path, capsys, monkeypatch, workers):
    # d=10 coordinates cannot carry an N=8 database; the grid is rejected
    # before the hard and packed probes that precede it get to sample
    def never(*args, **kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(experiments, "run_hard_copy_probe", never)
    monkeypatch.setattr(experiments, "run_packed_precision_probe", never)
    code = run_cli("run", "capacity-sanity", "--grid", "d=10", "--workers", workers,
                   "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code != 0
    assert err.splitlines() == ["error: d=10 coordinates above the n_bits=8 database bits "
                                "they would carry"]
    assert not (tmp_path / "capacity-sanity").exists()


def test_unread_probe_parameter_fails_before_any_probe_runs(tmp_path, capsys, monkeypatch):
    # "snr" is a typo of "snrs": the default grid must not run in its place
    def never(*args, **kwargs):
        raise AssertionError("a probe ran")

    for name in ("run_hard_copy_probe", "run_packed_precision_probe", "run_awgn_bpsk_probe"):
        monkeypatch.setattr(experiments, name, never)
    code = run_cli("run", "capacity-sanity", "--grid", "snr=1", "--episodes", "2000",
                   "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: capacity-sanity has no parameter snr; known: n_bits, ms, packed, snrs, d"]
    assert not (tmp_path / "capacity-sanity").exists()


def test_unread_parameter_fails_an_experiment_without_parameters(tmp_path, capsys):
    assert run_cli("run", "table1", "--n-max", "5", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: table1 has no parameter n_max; known: none"]
    assert run_cli("run", "table1", "--grid", "typo=3", "--out", str(tmp_path)) == 1
    assert not (tmp_path / "table1").exists()
    capsys.readouterr()
    # every verdict of the one-bit scans compares against one bit, so a budget is no parameter
    assert run_cli("run", "visibility", "--grid", "capacity=-1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: visibility has no parameter capacity; known: depth, points, visibilities"]


@pytest.mark.parametrize("text, reason", [
    (None, "No such file or directory"),
    ("seed = 7\n", "File contains no section headers."),
    ("[defaults]\nseed = 7\n[defaults]\nseed = 8\n", "section 'defaults' already exists"),
    ("[defaults]\nseed =\n", "grid item 'seed=' has no values"),
    ("[defaults]\nseed = 7%\n", "'%' must be followed by '%' or '('"),
])
def test_unreadable_config_fails_in_one_line(tmp_path, capsys, text, reason):
    # each of these used to end in a traceback
    ini = tmp_path / "run.ini"
    if text is not None:
        ini.write_text(text)
    assert run_cli("run", "table1", "--config", str(ini), "--out", str(tmp_path)) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: cannot read config {ini}: ") and reason in err
    assert not (tmp_path / "table1").exists()


def test_unwritable_out_fails_in_one_line(tmp_path, capsys):
    # a regular file where the output folder goes used to end in a traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run_cli("run", "table1", "--out", str(afile)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write results to {afile / 'table1'}: Not a directory"]


def test_shared_defaults_drop_keys_the_experiment_does_not_read(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[defaults]\nseed = 7\nn_max = 4\n")
    assert run_cli("run", "table1", "--config", str(ini), "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "table1" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["params"] == {}
    assert manifest["config_hash"] == ExperimentConfig("table1", seed=7).hash()
    # an experiment's own section is not shared, so its unread keys still fail
    ini.write_text("[table1]\nn_max = 4\n")
    assert run_cli("run", "table1", "--config", str(ini), "--out", str(tmp_path)) == 1


def test_rebuild_of_a_manifest_with_an_unread_parameter_fails_cleanly(tmp_path, capsys):
    # manifests written before unread parameters were rejected may carry one
    manifest = tmp_path / "table1" / "manifest.json"
    assert run_cli("run", "table1", "--out", str(tmp_path)) == 0
    data = json.loads(manifest.read_text())
    data["config"]["params"] = {"typo": 3}
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "--rebuild", str(manifest)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["REBUILD FAILED table1 has no parameter typo; known: none",
                        "VERIFY: FAIL"]


def test_every_declared_parameter_is_read(monkeypatch):
    # reading an undeclared value fails by construction; this checks the
    # converse, that no declared parameter or run field goes unread
    read = set()

    class Recorder:
        def __init__(self, values):
            self.values = values

        def __getattr__(self, key):
            read.add(key)
            return getattr(self.values, key)

    small = {"capacity-sanity": dict(episodes=1_000),
             "ablations": dict(params={"steps": 10, "seeds": 1, "ms": [1]})}
    for name, exp in REGISTRY.items():
        read.clear()
        p = Recorder(experiments.resolve(ExperimentConfig(name, **small.get(name, {}))))
        exp.judge(exp.build(p), p)
        assert read - {"workers"} == {*exp.params, *exp.run}, name


def _never(*args, **kwargs):
    raise AssertionError("a probe ran or a net trained")


@pytest.mark.parametrize("argv, error", [
    (("capacity-sanity", "--grid", "ms=1.5"),
     "capacity-sanity parameter ms takes an integer, got 1.5"),
    (("ablations", "--grid", "seeds=1.5"), "ablations parameter seeds takes an integer, got 1.5"),
    (("phase-boundary", "--grid", "n_max=6.5"),
     "phase-boundary parameter n_max takes an integer, got 6.5"),
    (("capacity-sanity", "--grid", "n_bits=4,8"),
     "capacity-sanity parameter n_bits takes an integer, got [4, 8]"),
    (("capacity-sanity", "--grid", "packed=12"),
     "capacity-sanity parameter packed takes a string, got 12"),
    (("capacity-sanity", "--grid", "packed=1x8x3"),
     "capacity-sanity parameter packed takes DxQ, two integers such as 1x8, got '1x8x3'"),
    (("capacity-sanity", "--grid", "packed=ax2"),
     "capacity-sanity parameter packed takes DxQ, two integers such as 1x8, got 'ax2'"),
])
def test_mistyped_parameter_fails_before_anything_runs(tmp_path, capsys, monkeypatch, argv,
                                                       error):
    # a truncating cast would run m = 1 under a manifest that records 1.5
    for name in ("run_hard_copy_probe", "run_packed_precision_probe", "run_awgn_bpsk_probe",
                 "train_strict", "critical_bias"):
        monkeypatch.setattr(experiments, name, _never)
    assert run_cli("run", *argv, "--workers", "1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / argv[0]).exists()


@pytest.mark.parametrize("argv, error", [
    (("bias-scan", "--grid", "points=1"), "bias-scan parameter points must be at least 2, got 1"),
    (("visibility", "--grid", "points=1"),
     "visibility parameter points must be at least 2, got 1"),
    (("phase-boundary", "--grid", "n_max=0"),
     "phase-boundary parameter n_max must be at least 1, got 0"),
    (("capacity-phase", "--n-max", "0"),
     "capacity-phase parameter n_max must be at least 1, got 0"),
    (("benchmark", "--grid", "n_max=0"), "benchmark parameter n_max must be at least 1, got 0"),
    (("depth-scan", "--grid", "n_max=0"), "depth-scan parameter n_max must be at least 1, got 0"),
    (("ablations", "--grid", "seeds=0"), "ablations parameter seeds must be at least 1, got 0"),
    (("capacity-sanity", "--grid", "ms=2,-1"),
     "capacity-sanity parameter ms must be at least 0, got -1"),
    (("phase-boundary", "--grid", "capacity=2e12"),
     "capacity 2e+12 is not below 2^40: no depth up to 40 reaches it"),
    (("capacity-phase", "--grid", "capacities=2e12"),
     "capacity 2e+12 is not below 2^40: no depth up to 40 reaches it"),
    (("capacity-phase", "--grid", "capacities=0.5,2e12", "--n-max", "12"),
     "capacity 2e+12 is not below 2^12: no depth up to 12 reaches it"),
    (("benchmark", "--n-max", "20"), "benchmark n_max=20 needs N = 2^20 database bits; "
     "the majority closed form takes N <= 1,000,000"),
    # a repeated grid point would run twice and write its rows twice
    (("capacity-phase", "--grid", "capacities=1,1", "--n-max", "10"),
     "capacity-phase parameter capacities repeats a value: [1.0, 1.0]"),
    (("ablations", "--grid", "ms=1,1.0"), "ablations parameter ms repeats a value: [1, 1]"),
    (("capacity-sanity", "--grid", "packed=1x8,2x2,1x8"),
     "capacity-sanity parameter packed repeats a value: ['1x8', '2x2', '1x8']"),
    (("table1", "--grid", "typo"), "grid items look like key=v1,v2 (got 'typo')"),
    (("depth-scan", "--grid", "n_max="), "grid item 'n_max=' has no values"),
    # a wider code's grouping key would wrap and merge codes
    (("ablations", "--grid", "ms=1,70"),
     "m=70 code bits: training groups codes by a 64-bit key, so m <= 63"),
])
def test_degenerate_grid_fails_before_anything_runs(tmp_path, capsys, monkeypatch, argv, error):
    # these used to end in a traceback, or in ALL PASS with nothing judged
    for name in ("run_hard_copy_probe", "train_strict", "critical_bias", "closed_form_score",
                 "classical_avg_success_closed_form"):
        monkeypatch.setattr(experiments, name, _never)
    assert run_cli("run", *argv, "--workers", "1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / argv[0]).exists()


def test_a_run_with_no_verdict_fails(tmp_path, capsys):
    # the spot checks and the Tsirelson verdict need other biases or depths
    argv = ("run", "depth-scan", "--grid", "biases=0.6", "--grid", "n_max=3",
            "--workers", "1", "--out", str(tmp_path))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().out.splitlines()[-1].endswith("  NO VERDICT APPLIED")
    manifest = tmp_path / "depth-scan" / "manifest.json"
    assert json.loads(manifest.read_text())["all_passed"] is False
    ok, messages = experiments.verify_manifest(str(manifest))
    assert not ok and "FAIL no verdict applied" in messages


@pytest.mark.parametrize("argv", [
    ("bias-scan", "--grid", "depth=3"), ("bias-scan", "--grid", "depth=40"),
    ("visibility", "--grid", "depth=5"), ("visibility", "--grid", "visibilities=0.5"),
    ("capacity-phase", "--grid", "n_max=12"), ("capacity-phase", "--n-max", "3"),
    ("capacity-phase", "--grid", "capacities=0.25,0.5", "--n-max", "1"),
    ("benchmark", "--grid", "n_max=6"), ("benchmark", "--grid", "n_max=3"),
    ("phase-boundary", "--grid", "capacity=2"), ("phase-boundary", "--grid", "capacity=4"),
    ("phase-boundary", "--grid", "capacity=0.5"), ("phase-boundary", "--grid", "capacity=0.25"),
    ("phase-boundary", "--grid", "capacity=0.5", "--grid", "n_max=10"),
])
def test_correct_runs_at_other_depths_pass(tmp_path, argv):
    # a pinned tolerance applies only from the depth at which it holds
    assert run_cli("run", *argv, "--workers", "1", "--out", str(tmp_path)) == 0
    ok, messages = experiments.verify_manifest(str(tmp_path / argv[0] / "manifest.json"))
    assert ok and any(m.startswith("PASS ") for m in messages)


def test_a_moved_critical_bias_fails_the_tsirelson_window(monkeypatch):
    # a closed form shifted by 0.05 in the bias moves every critical bias up
    # by 0.05, so the window verdict must fail, not go unjudged
    true_score = scores.closed_form_score
    for module in (scores, experiments):
        monkeypatch.setattr(module, "closed_form_score",
                            lambda depth, bias: true_score(depth, max(bias - 0.05, 0.0)))
    p = experiments.resolve(ExperimentConfig("capacity-phase", workers=1))
    verdicts = {v.name: v.passed for v in experiments.judge_capacity_phase(
        experiments.build_capacity_phase(p), p)}
    for c in ("0.25", "0.5", "1", "2", "4"):
        assert verdicts[f"curve C={c} approaches tsirelson bias"] is False


def test_an_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="^ablations parameter ms needs at least one value$"):
        experiments.resolve(ExperimentConfig("ablations", params={"ms": []}))


# Grids that the least values must be paired with: capacities below 2^1
REACHABLE_AT_LEAST = {"capacity-phase": {"capacities": [0.25, 0.5, 1.0]}}


def _least_values(exp) -> dict:
    """Every bounded parameter of ``exp`` at its declared least value."""
    least = dict(REACHABLE_AT_LEAST.get(exp.name, {}))
    for key, spec in exp.params.items():
        if isinstance(spec, tuple):
            default, low = spec
            least[key] = [low] if isinstance(default, list) else low
    return least


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_experiment_at_its_least_values_yields_a_verdict(name, tmp_path):
    exp = REGISTRY[name]
    for key, spec in exp.params.items():
        if isinstance(spec, tuple):  # each default respects its own bound
            default, low = spec
            assert min(default if isinstance(default, list) else [default]) >= low, key
    config = ExperimentConfig(name, workers=1, params=_least_values(exp))
    manifest = run_experiment(config, out_root=str(tmp_path))
    assert manifest["verdicts"], _least_values(exp)
    # verify re-derives from the files exactly the verdicts the run recorded
    ok, messages = experiments.verify_manifest(str(tmp_path / name / "manifest.json"))
    assert [m for m in messages if m.startswith(("PASS ", "FAIL "))] == [
        f"{'PASS' if v['passed'] else 'FAIL'} {v['name']}" for v in manifest["verdicts"]]
    assert ok == manifest["all_passed"]


@pytest.mark.parametrize("field, value, error", [
    ("interval", "bogus", "unknown interval method 'bogus'"),
    ("level", 1.5, "level=1.5 outside (0, 1)"),
    ("episodes", -1, "episodes=-1 is not a positive integer"),
    ("episodes", 0, "episodes=0 is not a positive integer"),  # nothing to judge
])
def test_invalid_run_field_fails_before_any_probe_runs(tmp_path, monkeypatch, field, value,
                                                       error):
    for name in ("run_hard_copy_probe", "run_packed_precision_probe", "run_awgn_bpsk_probe"):
        monkeypatch.setattr(experiments, name, _never)
    config = ExperimentConfig("capacity-sanity", **{field: value})
    with pytest.raises(ValueError) as info:
        run_experiment(config, out_root=str(tmp_path))
    assert str(info.value) == error
    assert not (tmp_path / "capacity-sanity").exists()


def test_unread_run_fields_are_hashed_at_their_defaults(tmp_path):
    assert run_cli("run", "table1", "--out", str(tmp_path / "a")) == 0
    assert run_cli("run", "table1", "--interval", "cp", "--episodes", "5", "--level", "0.5",
                   "--seed", "7", "--out", str(tmp_path / "b")) == 0
    csvs = [(tmp_path / side / "table1" / "table1.csv").read_bytes() for side in "ab"]
    assert csvs[0] == csvs[1]
    # the manifest still echoes what was given
    manifest = json.loads((tmp_path / "b" / "table1" / "manifest.json").read_text())
    assert (manifest["config"]["seed"], manifest["config"]["level"]) == (7, 0.5)
    # capacity-sanity reads every run field, so each still moves its hash
    sanity = ExperimentConfig("capacity-sanity")
    assert sanity.hash() != dataclasses.replace(sanity, interval="clopper_pearson").hash()
    ablations = ExperimentConfig("ablations")
    assert ablations.hash() == dataclasses.replace(ablations, interval="hoeffding").hash()
    assert ablations.hash() != dataclasses.replace(ablations, seed=7).hash()


def test_verify_fails_cleanly_on_params_that_no_longer_resolve(tmp_path, capsys):
    assert run_cli("run", "capacity-sanity", "--episodes", "2000", "--grid", "ms=1",
                   "--grid", "packed=1x8", "--grid", "snrs=1", "--workers", "1",
                   "--out", str(tmp_path)) == 0
    manifest = tmp_path / "capacity-sanity" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["params"]["ms"] = [1.5]
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", str(manifest)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["FAIL capacity-sanity parameter ms takes an integer, got 1.5",
                        "VERIFY: FAIL"]


def test_manifest_records_the_environment_outside_the_hash(tmp_path, capsys, monkeypatch):
    assert run_cli("run", "table1", "--out", str(tmp_path)) == 0
    path = tmp_path / "table1" / "manifest.json"
    manifest = json.loads(path.read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "blas", "platform"}
    assert env["numpy"] == np.__version__ and env["python"] == platform.python_version()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    stages, rss = manifest["stage_s"], manifest["peak_rss_mb"]
    assert set(stages) == {"build", "write", "judge"} and min(stages.values()) >= 0.0
    assert math.isclose(sum(stages.values()), manifest["wall_clock_s"])
    assert set(rss) == {"process", "children"} and rss["process"] > 0 <= rss["children"]
    assert manifest["config_hash"] == ExperimentConfig("table1").hash()
    csv_text = (tmp_path / "table1" / "table1.csv").read_text()
    assert not any(env[key] in csv_text for key in ("platform", "numpy", "blas"))
    # NumPy 1.24, the declared floor, has no show_config(mode="dicts")
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert experiments._blas_build() == "unknown"
    # manifests written before the fingerprint and the stage and RSS records
    # existed still verify and rebuild
    for key in ("environment", "stage_s", "peak_rss_mb"):
        del manifest[key]
    path.write_text(json.dumps(manifest))
    assert run_cli("verify", "--rebuild", str(path)) == 0
    assert "VERIFY: PASS" in capsys.readouterr().out


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    # a repr() of np.float64 would read back as the string "np.float64(0.1)"
    path = str(tmp_path / "rows.csv")
    experiments._write_csv(path, [{"x": np.float64(0.1), "k": np.int64(3)}], "test")
    assert open(path).read().splitlines()[1:] == ["x,k", "0.1,3"]
    assert read_table(path)[1] == [{"x": 0.1, "k": 3}]


def test_judges_see_plain_cells_under_run_and_verify(tmp_path, monkeypatch):
    # a run judges the rows it read back from its files, as verify does, so a
    # NumPy scalar in a built row reaches neither judge
    seen = []
    exp = REGISTRY["table1"]

    def recording(tables, p):
        seen.append({type(v) for rows in tables.values() for row in rows for v in row.values()})
        return exp.judge(tables, p)

    true_score = experiments.closed_form_score
    monkeypatch.setattr(experiments, "closed_form_score",
                        lambda depth, bias: np.float64(true_score(depth, bias)))
    monkeypatch.setitem(REGISTRY, "table1", dataclasses.replace(exp, judge=recording))
    assert run_cli("run", "table1", "--out", str(tmp_path)) == 0
    assert run_cli("verify", str(tmp_path / "table1" / "manifest.json")) == 0
    assert len(seen) == 2 and all(types <= {int, float, str} for types in seen), seen


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("run", "nonesuch", "--out", str(tmp_path))
    with pytest.raises(ValueError, match="^unknown experiment 'nonesuch'; known: ablations, "):
        run_experiment(ExperimentConfig(experiment="nonesuch"), out_root=str(tmp_path))


def test_verify_fails_cleanly_on_a_bad_manifest(tmp_path, capsys):
    # each of these used to end in a traceback
    missing = tmp_path / "missing.json"
    assert run_cli("verify", str(missing)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read manifest {missing}: No such file or directory"]
    for text in ("{bad", "[]", '{"outputs": [], "config": {}}',
                 '{"outputs": {}, "config": {"experiment": "table1", "typo": 1}}'):
        (tmp_path / "bad.json").write_text(text)
        assert run_cli("verify", "--rebuild", str(tmp_path / "bad.json")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "bad.json" in err[0]
    manifest = tmp_path / "table1" / "manifest.json"
    assert run_cli("run", "table1", "--out", str(tmp_path)) == 0
    data = json.loads(manifest.read_text())
    data["config"]["experiment"] = "nonesuch"
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "--rebuild", str(manifest)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3].startswith("FAIL unknown experiment 'nonesuch'; known: ablations, ")
    assert out[-2].startswith("REBUILD FAILED unknown experiment 'nonesuch'; known: ")
    assert out[-1] == "VERIFY: FAIL"
    # a manifest that lists no table the judge needs, or params that are no dict
    data["config"]["experiment"] = "table1"
    data["outputs"] = {}
    manifest.write_text(json.dumps(data))
    assert run_cli("verify", str(manifest)) == 1
    assert capsys.readouterr().out.splitlines() == ["FAIL manifest lists no table1.csv",
                                                    "VERIFY: FAIL"]
    assert run_cli("verify", "--rebuild", str(manifest)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL manifest lists no table1.csv", "REBUILD MISMATCH table1.csv", "VERIFY: FAIL"]
    data["outputs"] = {"table1.csv": read_table(str(tmp_path / "table1" / "table1.csv"))[0]}
    for params in ([1], None):
        data["config"]["params"] = params
        manifest.write_text(json.dumps(data))
        assert run_cli("verify", "--rebuild", str(manifest)) == 1
        error = f"params={params!r} is not a dict of parameter values"
        assert capsys.readouterr().out.splitlines() == [
            "checksum ok table1.csv", f"FAIL {error}", f"REBUILD FAILED {error}", "VERIFY: FAIL"]


def test_verify_fails_cleanly_on_a_table_without_a_judged_column(tmp_path, capsys):
    # each edited table is checksummed into its manifest, so only the judge sees the edit
    cases = [
        # a table without a column the judge reads, as a manifest from before
        # a column rename would list, used to end in a KeyError traceback
        ("n,bias,score\n", "n,bias,value\n", "FAIL table1.csv lacks column 'score'"),
        # a word where the judge computes with a number used to end in a TypeError
        ("1,0.7,0.780319390567199\n", "1,0.7,abc\n",
         "FAIL table1.csv column 'score' holds 'abc', not a number"),
    ]
    for k, (old, new, failure) in enumerate(cases):
        out = tmp_path / str(k)
        assert run_cli("run", "table1", "--out", str(out)) == 0
        table, manifest = out / "table1" / "table1.csv", out / "table1" / "manifest.json"
        assert old in table.read_text()
        table.write_text(table.read_text().replace(old, new))
        data = json.loads(manifest.read_text())
        data["outputs"]["table1.csv"] = read_table(str(table))[0]
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli("verify", str(manifest)) == 1
        assert capsys.readouterr().out.splitlines() == [
            "checksum ok table1.csv", failure, "VERIFY: FAIL"]


def test_interval_takes_its_full_name_or_cp(tmp_path):
    hashes = set()
    for interval in ("cp", "clopper_pearson"):
        out = str(tmp_path / interval)
        assert run_cli("run", "capacity-sanity", "--interval", interval, "--episodes", "2000",
                       "--grid", "ms=1", "--grid", "packed=1x8", "--grid", "snrs=1",
                       "--workers", "1", "--out", out) == 0
        manifest = json.loads((tmp_path / interval / "capacity-sanity" / "manifest.json")
                              .read_text())
        assert manifest["config"]["interval"] == "clopper_pearson"
        hashes.add(manifest["config_hash"])
    assert len(hashes) == 1


def test_grid_override_changes_config(tmp_path):
    assert run_cli("run", "phase-boundary", "--n-max", "6",
                   "--out", str(tmp_path)) == 0
    rows = read_table(str(tmp_path / "phase-boundary" / "phase_boundary.csv"))[1]
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


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_records_each_pool_task_outside_the_csvs(tmp_path, workers):
    # the ablations' five tasks (two strict nets, three controls) keep every
    # CSV byte and the config hash at either worker count, and each leaves
    # one (key, pid, seconds) record in the manifest
    params = {"n_bits": 4, "seeds": 1, "steps": 20, "ms": [1, 2]}
    serial, run = [run_experiment(ExperimentConfig("ablations", seed=26, workers=w,
                                                   params=params),
                                  out_root=str(tmp_path / f"w{w}")) for w in (1, workers)]
    assert serial["outputs"] == run["outputs"]
    assert serial["config_hash"] == run["config_hash"]
    tasks = run["tasks"]
    assert [t["key"] for t in tasks] == [
        "strict m=1 seed=1026", "strict m=2 seed=2026", "query_leaky m=0 seed=26",
        "precision_packing m=0 seed=26", "episode_weights m=0 seed=26"]
    assert all(t["seconds"] > 0.0 for t in tasks)
    pids = {t["pid"] for t in tasks}
    assert pids == {os.getpid()} if workers == 1 else os.getpid() not in pids
    for fname in run["outputs"]:
        _, rows = read_table(str(tmp_path / f"w{workers}" / "ablations" / fname))
        assert not {"key", "pid", "seconds"} & set(rows[0])


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
        config = ExperimentConfig(name, params={"steps": 100, "seeds": 1})
    else:
        config = ExperimentConfig(name)
    exp = REGISTRY[name]
    p = experiments.resolve(config)
    tables = exp.build(p)
    assert all(v.passed for v in exp.judge(tables, p))
    fname, column, factor = JUDGE_PERTURBATIONS[name]
    rows = [dict(row, **{column: row[column] * factor}) for row in tables[fname]]
    assert not all(v.passed for v in exp.judge({**tables, fname: rows}, p))


def test_importing_the_cli_loads_only_what_a_run_uses():
    # exact rationals, the process pool and the INI parser load only in a run
    # that needs them; each costs peak RSS in every process, about 2 MB in all
    script = ("import json, sys, numpy; before = set(sys.modules); import racbox.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-c", script], cwd=root,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "racbox.cli" in loaded
    assert not loaded & {"fractions", "decimal", "concurrent.futures", "configparser"}

"""The benchmark's correctness gate must be able to fail.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os

import racbox.cli
import racbox.scores

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail_share(outcome):
    return sum(not passed for _, passed in outcome.checks) / len(outcome.checks)


def test_flipped_csv_byte_fails_verify(tmp_path, monkeypatch):
    argvs = [workloads._cli_argv(("table1",), seed=0, out_root=str(tmp_path))]
    assert fail_share(workloads.run_cli(argvs)) == 0

    original = racbox.cli.run_experiment

    def run_then_flip_a_byte(config, out_root=None):
        manifest = original(config, out_root=out_root)
        path = os.path.join(out_root, config.experiment, sorted(manifest["outputs"])[0])
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-2] ^= 1
        with open(path, "wb") as fh:
            fh.write(data)
        return manifest

    monkeypatch.setattr(racbox.cli, "run_experiment", run_then_flip_a_byte)
    outcome = workloads.run_cli(argvs)
    assert [name for name, passed in outcome.checks if not passed] == [
        "table1: verify_manifest"]
    assert fail_share(outcome) > 0


def test_moved_closed_form_fails_pyramid_check(monkeypatch):
    items = [item for item in workloads.pyramid_items() if item.label == "d5"]
    assert fail_share(workloads.run_pyramid(items, seed=7)) == 0

    original = racbox.scores.closed_form_score
    monkeypatch.setattr(racbox.scores, "closed_form_score",
                        lambda depth, bias: 1.05 * original(depth, bias))
    outcome = workloads.run_pyramid(items, seed=7)
    assert [name for name, passed in outcome.checks if not passed] == [
        "d5: closed form inside interval"]
    assert fail_share(outcome) > 0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("t")
    # run_experiment spans 0..10 s; build (2..5) and judge (6..7) are children
    tracer.spans = [["experiments.run_experiment", 0.0, 10.0, -1],
                    ["experiments.build", 2.0, 5.0, 0],
                    ["experiments.judge", 6.0, 7.0, 0],
                    ["experiments.verify_manifest", 11.0, 13.0, -1],
                    ["experiments.judge", 11.5, 12.0, 3]]
    m = tracing.layer_metrics(tracer)
    assert m["experiments.write_s"] == 6.0
    assert m["experiments.build_s"] == 3.0
    assert m["experiments.judge_s"] == 1.0  # judging inside verify counts as verify
    assert m["experiments.verify_s"] == 2.0


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = set(tracing.layer_metrics(tracing.Tracer("t"))) | {"trace.overhead_s"}
    assert names == {metric["name"] for metric in spec["per_layer"]}

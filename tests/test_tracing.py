"""The benchmark's tracer must still find every name it wraps.

``perfbench/tracing.instrument`` wraps each function of ``racbox.scores.__all__``
and each name of its ``FUNCTIONS`` table, so a renamed or deleted function
breaks a traced benchmark run; this runs one in a subprocess.  A caller that
held a function from before the rebinding, such as an interval dispatch
table built at import, would leave its spans out.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, tempfile
import racbox.cli
import tracing

tracer = tracing.Tracer("t")
tracing.instrument(tracer)
with tempfile.TemporaryDirectory() as out:
    for argv in (["table1"], ["ablations", "--grid", "n_bits=4", "--grid", "seeds=1",
                              "--grid", "steps=20", "--grid", "ms=1"],
                 ["capacity-sanity", "--interval", "cp", "--episodes", "2000", "--grid", "ms=1",
                  "--grid", "packed=1x8", "--grid", "snrs=1"]):
        assert racbox.cli.main(["run", *argv, "--workers", "1", "--out", out]) == 0
metrics = tracing.layer_metrics(tracer)
print(json.dumps([sorted({span[0] for span in tracer.spans}), metrics["scores.self_s"]]))
"""


def test_a_traced_run_records_its_spans():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    names, scores_self_s = json.loads(done.stdout.splitlines()[-1])
    assert {"experiments.run_experiment", "experiments.build", "experiments.judge",
            "scores.closed_form_score", "scores.exact_scores", "ablation.train_strict",
            "ablation.loss_and_grads", "ablation.eval_score", "ablation.query_leaky_control",
            "rng.substream", "estimation.clopper_pearson_interval"} <= set(names)
    assert scores_self_s > 0.0

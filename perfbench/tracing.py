"""Spans around the public functions of each ``racbox`` module.

Nothing inside ``racbox`` knows about tracing: :func:`instrument` rebinds
module attributes, class methods and registry entries to timing wrappers
before a workload starts.  Spans stay in memory (name, start, end, parent,
run id) and are written out when the run ends; :func:`layer_metrics` turns
them into the per-layer numbers named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import racbox.ablation
import racbox.boxes
import racbox.experiments
import racbox.scores

# module -> public functions wrapped as spans named "<module>.<function>"
FUNCTIONS = {
    "experiments": ("run_experiment", "verify_manifest"),
    "ablation": ("train_strict", "eval_score", "query_leaky_control",
                 "precision_packing_control", "episode_weights_control"),
    "protocols": ("pyramid_monte_carlo",),
    "estimation": ("wilson_interval", "clopper_pearson_interval",
                   "symmetric_score_estimate", "per_query_symmetric_score"),
    "capacity": ("run_hard_copy_probe", "run_packed_precision_probe",
                 "run_awgn_bpsk_probe"),
    "rng": ("substream",),
}
CONTROLS = ("ablation.query_leaky_control", "ablation.precision_packing_control",
            "ablation.episode_weights_control")
PROBES = {"hard": "capacity.run_hard_copy_probe",
          "packed": "capacity.run_packed_precision_probe",
          "awgn": "capacity.run_awgn_bpsk_probe"}
PYRAMID_ITEM = "pyramid-mc."  # prefix of the span the workload opens per item
PYRAMID_LABELS = ("d5", "d10", "d12", "asym", "biased")
RATE_LABELS = ("d5", "d10", "d12")


class Tracer:
    """In-memory span recorder for one process; spans nest by call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peaks: dict[int, int] = {}  # span index -> traced peak bytes
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list):
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, fn, name: str, on_result=None, memory: bool = False):
        """``fn`` recorded as span ``name``; ``memory`` adds its tracemalloc peak."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            if memory:
                tracemalloc.start()
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
                if memory:
                    self.peaks[index] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _rebind(original, replacement):
    """Point every racbox module attribute bound to ``original`` at ``replacement``.

    ``from .x import f`` copies the binding, so each importing module holds
    its own reference and all of them must change.
    """
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "racbox" or mod_name.startswith("racbox."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def instrument(tracer: Tracer):
    """Wrap the public functions of every racbox layer with spans of ``tracer``."""
    for mod_name, names in FUNCTIONS.items():
        module = sys.modules[f"racbox.{mod_name}"]
        for name in names:
            original = getattr(module, name)
            _rebind(original, tracer.wrap(original, f"{mod_name}.{name}",
                                          memory=name == "pyramid_monte_carlo"))

    def count_iterations(result):
        tracer.counts["scores.critical_bias_iterations"] += result.iterations

    for name in racbox.scores.__all__:
        original = getattr(racbox.scores, name)
        if inspect.isfunction(original) and original.__module__ == "racbox.scores":
            hook = count_iterations if name == "critical_bias" else None
            _rebind(original, tracer.wrap(original, f"scores.{name}", on_result=hook))

    net = racbox.ablation.BottleneckNet
    net.loss_and_grads = tracer.wrap(net.loss_and_grads, "ablation.loss_and_grads")
    for cls in (racbox.boxes.Cell, *racbox.boxes.Cell.__subclasses__()):
        if "conditional_tables" in vars(cls):
            cls.conditional_tables = tracer.wrap(cls.conditional_tables,
                                                 "boxes.conditional_tables")

    registry = racbox.experiments.REGISTRY
    for key, exp in list(registry.items()):
        registry[key] = dataclasses.replace(
            exp, build=tracer.wrap(exp.build, "experiments.build"),
            judge=tracer.wrap(exp.judge, "experiments.judge"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced process, keyed by BENCHMARK.json name."""
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, _, _, _) in enumerate(spans):
        by_name[name].append(i)

    def parent_name(i):
        parent = spans[i][3]
        return spans[parent][0] if parent >= 0 else ""

    def total(name, under=None):
        return sum(duration[i] for i in by_name[name]
                   if under is None or parent_name(i) == under)

    def self_time(name):
        return sum(duration[i] - child_time[i] for i in by_name[name])

    def mean_us(name):
        calls = by_name[name]
        return 1e6 * sum(duration[i] for i in calls) / len(calls) if calls else 0.0

    steps = [i for i in by_name["ablation.loss_and_grads"]
             if parent_name(i) == "ablation.train_strict"]
    per_step = 1e6 / len(steps) if steps else 0.0
    m = {
        "experiments.build_s": total("experiments.build"),
        "experiments.judge_s": total("experiments.judge", under="experiments.run_experiment"),
        "experiments.write_s": self_time("experiments.run_experiment"),
        "experiments.verify_s": total("experiments.verify_manifest"),
        "experiments.csv_bytes": tracer.counts["experiments.csv_bytes"],
        "ablation.train_strict_s": total("ablation.train_strict"),
        "ablation.step_us": total("ablation.train_strict") * per_step,
        "ablation.loss_and_grads_us": sum(duration[i] for i in steps) * per_step,
        "ablation.step_other_us": self_time("ablation.train_strict") * per_step,
        "ablation.eval_score_s": total("ablation.eval_score"),
        "ablation.controls_s": sum(total(name) for name in CONTROLS),
    }
    for label in PYRAMID_LABELS:
        m[f"protocols.pyramid_s.{label}"] = total("protocols.pyramid_monte_carlo",
                                                  under=PYRAMID_ITEM + label)
    for label in RATE_LABELS:
        seconds = m[f"protocols.pyramid_s.{label}"]
        episodes = tracer.counts[f"protocols.episodes.{label}"]
        m[f"protocols.episodes_per_s.{label}"] = episodes / seconds if seconds else 0.0
    for label in RATE_LABELS:
        peaks = [tracer.peaks[i] for i in by_name["protocols.pyramid_monte_carlo"]
                 if parent_name(i) == PYRAMID_ITEM + label]
        m[f"protocols.pyramid_peak_mb.{label}"] = max(peaks, default=0) / 2**20
    m.update({
        "boxes.conditional_tables_calls": len(by_name["boxes.conditional_tables"]),
        "boxes.conditional_tables_s": total("boxes.conditional_tables"),
        "estimation.wilson_calls": len(by_name["estimation.wilson_interval"]),
        "estimation.wilson_us": mean_us("estimation.wilson_interval"),
        "estimation.cp_calls": len(by_name["estimation.clopper_pearson_interval"]),
        "estimation.cp_us": mean_us("estimation.clopper_pearson_interval"),
        "estimation.symmetric_score_us": mean_us("estimation.symmetric_score_estimate"),
    })
    for kind, name in PROBES.items():
        m[f"capacity.probe_self_s.{kind}"] = self_time(name)
    m.update({
        "scores.closed_form_calls": len(by_name["scores.closed_form_score"]),
        "scores.critical_bias_calls": len(by_name["scores.critical_bias"]),
        "scores.critical_bias_iterations": tracer.counts["scores.critical_bias_iterations"],
        "scores.self_s": sum(self_time(name) for name in by_name
                             if name.startswith("scores.")),
        "rng.substream_calls": len(by_name["rng.substream"]),
        "rng.substream_s": total("rng.substream"),
    })
    return m

"""Named experiments, one per table or figure of the reproduction suite.

Each experiment builds a set of CSV tables from a config, then judges them
against pinned expected values; ``run`` writes the tables plus a JSON
manifest with checksums and verdicts, and ``verify`` re-derives both from
the files on disk.  All randomness descends from the config seed, so a
rerun with the same config is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from . import __version__
from .ablation import (TrainConfig, episode_weights_control, eval_score,
                       precision_packing_control, query_leaky_control, train_strict)
from .boxes import TSIRELSON_BIAS, iso_bias_from_angle
from .capacity import (awgn_hard_decision_score, bpsk_mutual_information, gaussian_cdf,
                       run_awgn_bpsk_probe, run_hard_copy_probe,
                       run_packed_precision_probe)
from .info import LN2, binary_entropy
from .protocols import classical_avg_success_closed_form
from .scores import (closed_form_score, critical_bias, critical_bias_asymptotic,
                     critical_constant, optimize_regularized_angle)

DEFAULT_SEED = 20_240_817
OUTPUT_ROOT_ENV = "RACBOX_OUT"

# ---------------------------------------------------------------------------
# Pinned expectations for the reproduction verdicts
# ---------------------------------------------------------------------------

SCORE_GRID_DEPTHS = (1, 5, 10, 20)
SCORE_GRID_BIASES = (0.5, 0.7, TSIRELSON_BIAS, 0.72, 0.75)
# Expected score for each (depth row, bias column); tiny entries are judged
# at 1e-6 absolute, the rest at 1% relative.
EXPECTED_SCORE_GRID = {
    1: (0.377, 0.780, 0.798, 0.832, 0.913),
    5: (2.25e-2, 0.655, 0.725, 0.870, 1.312),
    10: (7.04e-4, 0.589, 0.721, 1.036, 2.344),
    20: (6.88e-7, 0.482, 0.721, 1.486, 7.607),
}

ANGLE_SCAN_PHIS = tuple(k * math.pi / 16.0 for k in range(0, 5))  # 0 .. pi/4
EXPECTED_ANGLE_SCAN = {
    "e_iso": (0.5000, 0.5879, 0.6533, 0.6935, 0.7071),
    "chsh": (3.0000, 3.1759, 3.3066, 3.3870, 3.4142),
    "score_n10": (7.04e-4, 1.80e-2, 1.48e-1, 4.89e-1, 7.21e-1),
}

EXPECTED_CRITICAL_BIAS = {10: 0.7187, 20: 0.7131}  # tolerance 5e-4

MAJORITY_LIMIT = 1.0 / (math.pi * LN2)  # large-N majority-code score


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    measured: float | None = None
    expected: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = DEFAULT_SEED
    episodes: int | None = None
    interval: str = "wilson"
    level: float = 0.95
    workers: int = 1
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed,
                "episodes": self.episodes, "interval": self.interval,
                "level": self.level, "workers": self.workers,
                "params": dict(sorted(self.params.items()))}

    def hash(self) -> str:
        # workers is an execution detail: it never changes the numbers, so
        # it stays out of the hash and outputs stay byte-identical across
        # pool sizes
        science = {k: v for k, v in self.as_dict().items() if k != "workers"}
        blob = json.dumps(science, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


Tables = dict[str, list[dict]]


def _close(measured: float, expected: float, rel: float = 0.01,
           abs_tol: float = 1e-6) -> bool:
    return abs(measured - expected) <= max(rel * abs(expected), abs_tol)


def _parallel_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _grid(config: ExperimentConfig, key: str, default):
    value = config.params.get(key, default)
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _scalar(config: ExperimentConfig, key: str, default):
    value = config.params.get(key, default)
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise ValueError(f"parameter {key} expects a single value, got {value}")
        return value[0]
    return value


# ---------------------------------------------------------------------------
# Closed-form experiments
# ---------------------------------------------------------------------------


def build_table1(config: ExperimentConfig) -> Tables:
    rows = [{"n": n, "bias": e, "score": closed_form_score(n, e)}
            for n in SCORE_GRID_DEPTHS for e in SCORE_GRID_BIASES]
    return {"table1.csv": rows}


def judge_table1(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    verdicts = []
    cells = {(round(r["n"]), round(r["bias"], 6)): r["score"] for r in tables["table1.csv"]}
    for n, expected_row in EXPECTED_SCORE_GRID.items():
        for e, expected in zip(SCORE_GRID_BIASES, expected_row):
            measured = cells[(n, round(e, 6))]
            verdicts.append(Verdict(
                name=f"score(n={n}, E={e:.4f})", passed=_close(measured, expected),
                measured=measured, expected=f"{expected:g} (1% rel / 1e-6 abs)"))
    return verdicts


def build_table3(config: ExperimentConfig) -> Tables:
    rows = []
    for phi in ANGLE_SCAN_PHIS:
        e_iso = iso_bias_from_angle(phi)
        rows.append({"phi": phi, "e_iso": e_iso, "chsh": 2.0 * (1.0 + e_iso),
                     "score_n10": closed_form_score(10, e_iso)})
    return {"table3.csv": rows}


def judge_table3(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    verdicts = []
    rows = tables["table3.csv"]
    tols = {"e_iso": 1e-4, "chsh": 1e-4, "score_n10": 1e-3}
    for column, tol in tols.items():
        for row, expected in zip(rows, EXPECTED_ANGLE_SCAN[column]):
            measured = row[column]
            verdicts.append(Verdict(
                name=f"{column}(phi={row['phi']:.4f})",
                passed=abs(measured - expected) <= tol,
                measured=measured, expected=f"{expected:g} +/- {tol:g}"))
    return verdicts


def build_depth_scan(config: ExperimentConfig) -> Tables:
    n_max = int(_scalar(config, "n_max", 40))
    biases = _grid(config, "biases", list(SCORE_GRID_BIASES))
    capacity = float(_scalar(config, "capacity", 1.0))
    rows = []
    for e in biases:
        for n in range(1, n_max + 1):
            score = closed_form_score(n, e)
            rows.append({"n": n, "bias": e, "capacity": capacity, "score": score,
                         "exceeds_capacity": int(score > capacity)})
    return {"depth_scan.csv": rows}


def judge_depth_scan(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["depth_scan.csv"]
    verdicts = []
    ts = [r for r in rows if abs(r["bias"] - TSIRELSON_BIAS) < 1e-9]
    if ts:
        worst = max(r["score"] for r in ts)
        verdicts.append(Verdict(name="tsirelson bias never exceeds one bit",
                                passed=worst <= 1.0, measured=worst, expected="<= 1"))
    for n, expected_row in EXPECTED_SCORE_GRID.items():
        for e, expected in zip(SCORE_GRID_BIASES, expected_row):
            match = [r for r in rows if round(r["n"]) == n and abs(r["bias"] - e) < 1e-9]
            if match:
                verdicts.append(Verdict(
                    name=f"spot score(n={n}, E={e:.4f})",
                    passed=_close(match[0]["score"], expected),
                    measured=match[0]["score"], expected=f"{expected:g}"))
    return verdicts


def build_bias_scan(config: ExperimentConfig) -> Tables:
    depth = int(_scalar(config, "depth", 10))
    points = int(_scalar(config, "points", 101))
    capacity = float(_scalar(config, "capacity", 1.0))
    biases = sorted([k / (points - 1) for k in range(points)] + [TSIRELSON_BIAS])
    rows = []
    for e in biases:
        score = closed_form_score(depth, e)
        rows.append({"n": depth, "bias": e, "capacity": capacity, "score": score,
                     "exceeds_capacity": int(score > capacity)})
    return {"bias_scan.csv": rows}


def judge_bias_scan(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["bias_scan.csv"]
    at = {round(r["bias"], 9): r["score"] for r in rows}
    ts = at.get(round(TSIRELSON_BIAS, 9))
    verdicts = [Verdict(name="score at tsirelson bias", passed=abs(ts - 0.721) <= 1e-3,
                        measured=ts, expected="0.721 +/- 1e-3")]
    below = at.get(0.71)
    above = at.get(0.72)
    if below is not None and above is not None:
        verdicts.append(Verdict(name="one-bit crossing inside (0.71, 0.72)",
                                passed=below < 1.0 < above,
                                measured=above, expected="score(0.71) < 1 < score(0.72)"))
    increasing = all(a["score"] <= b["score"] + 1e-15
                     for a, b in zip(rows, rows[1:]))
    verdicts.append(Verdict(name="score increases with bias", passed=increasing,
                            expected="monotone"))
    return verdicts


def build_phase_boundary(config: ExperimentConfig) -> Tables:
    n_max = int(_scalar(config, "n_max", 40))
    capacity = float(_scalar(config, "capacity", 1.0))
    rows = []
    for n in range(1, n_max + 1):
        if capacity >= float(2 ** n):
            continue
        res = critical_bias(n, capacity)
        rows.append({"n": n, "capacity": capacity, "e_crit": res.critical_bias,
                     "e_crit_asymptotic": critical_bias_asymptotic(n, capacity),
                     "iterations": res.iterations})
    return {"phase_boundary.csv": rows}


def judge_phase_boundary(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["phase_boundary.csv"]
    verdicts = []
    curve = [(round(r["n"]), r["e_crit"]) for r in rows]
    decreasing = all(a[1] > b[1] for a, b in zip(curve, curve[1:]))
    verdicts.append(Verdict(name="critical bias decreases with depth",
                            passed=decreasing, expected="strictly decreasing"))
    by_n = dict(curve)
    for n, expected in EXPECTED_CRITICAL_BIAS.items():
        if n in by_n:
            verdicts.append(Verdict(name=f"critical bias at depth {n}",
                                    passed=abs(by_n[n] - expected) <= 5e-4,
                                    measured=by_n[n], expected=f"{expected} +/- 5e-4"))
    last_n, last = curve[-1]
    if last_n >= 40:
        # shallow scans stop far from the asymptote; the 0.006 endpoint
        # window is calibrated for depth 40
        verdicts.append(Verdict(name=f"endpoint near tsirelson bias (n={last_n})",
                                passed=abs(last - TSIRELSON_BIAS) < 0.006,
                                measured=last, expected="within 0.006 of 1/sqrt(2)"))
    if 20 in by_n:
        asym = next(r["e_crit_asymptotic"] for r in rows if round(r["n"]) == 20)
        rel = abs(by_n[20] - asym) / by_n[20]
        verdicts.append(Verdict(name="asymptotic boundary agreement at depth 20",
                                passed=rel < 0.01, measured=rel, expected="rel err < 1%"))
    return verdicts


def build_capacity_phase(config: ExperimentConfig) -> Tables:
    n_max = int(_scalar(config, "n_max", 40))
    capacities = _grid(config, "capacities", [0.25, 0.5, 1.0, 2.0, 4.0])
    rows = []
    for cap in capacities:
        for n in range(1, n_max + 1):
            if float(cap) >= float(2 ** n):
                continue
            res = critical_bias(n, float(cap))
            rows.append({"n": n, "capacity": float(cap), "e_crit": res.critical_bias,
                         "e_crit_asymptotic": critical_bias_asymptotic(n, float(cap))})
    return {"capacity_phase.csv": rows}


def judge_capacity_phase(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["capacity_phase.csv"]
    verdicts = []
    caps = sorted({r["capacity"] for r in rows})
    curves = {c: sorted(((round(r["n"]), r["e_crit"]) for r in rows
                         if r["capacity"] == c)) for c in caps}
    for c, curve in curves.items():
        # Budgets above the critical plateau cross from above, smaller ones
        # from below; either way the distance to the threshold must shrink.
        dist = [abs(v - TSIRELSON_BIAS) for _, v in curve]
        closing = all(a > b for a, b in zip(dist, dist[1:]))
        verdicts.append(Verdict(name=f"curve C={c:g} closes on the threshold",
                                passed=closing, expected="distance strictly shrinking"))
        if c >= 1.0:
            decreasing = all(a[1] > b[1] for a, b in zip(curve, curve[1:]))
            verdicts.append(Verdict(name=f"curve C={c:g} decreases with depth",
                                    passed=decreasing, expected="strictly decreasing"))
        last = curve[-1][1]
        verdicts.append(Verdict(name=f"curve C={c:g} approaches tsirelson bias",
                                passed=abs(last - TSIRELSON_BIAS) < 0.03,
                                measured=last, expected="within 0.03 at the deepest scan"))
    deepest = max(n for n, _ in curves[caps[0]])
    ordered = [dict(curves[c]).get(deepest) for c in caps]
    ordered = [v for v in ordered if v is not None]
    verdicts.append(Verdict(name="larger budgets shift the boundary upward",
                            passed=all(a < b for a, b in zip(ordered, ordered[1:])),
                            expected="e_crit increasing in capacity at fixed depth"))
    return verdicts


# ---------------------------------------------------------------------------
# Stochastic experiments
# ---------------------------------------------------------------------------


def _probe_task(task) -> dict:
    kind, args, level, method = task
    # The probe functions are looked up here at call time, not kept in a
    # table, so that rebinding the module attribute reaches every call.
    if kind == "hard":
        n_bits, m, episodes, seed = args
        res = run_hard_copy_probe(*args, level=level, method=method)
        param2, analytic = 0.0, float(m)
    elif kind == "packed":
        n_bits, d, q, episodes, seed = args
        res = run_packed_precision_probe(*args, level=level, method=method)
        param2, analytic = float(q), float(min(n_bits, d * q))
    elif kind == "awgn":
        n_bits, d, snr, episodes, seed = args
        res = run_awgn_bpsk_probe(*args, level=level, method=method)
        param2, analytic = float(snr), awgn_hard_decision_score(d, snr)
    else:
        raise ValueError(kind)
    return {"kind": kind, "param1": args[1], "param2": param2,
            "counted": res.counted_capacity, "observed": res.observed_score,
            "lo": res.interval[0], "hi": res.interval[1],
            "corrected": res.corrected_capacity, "analytic": analytic}


def build_capacity_sanity(config: ExperimentConfig) -> Tables:
    n_bits = int(_scalar(config, "n_bits", 8))
    episodes = int(config.episodes or 200_000)
    ms = [int(m) for m in _grid(config, "ms", [1, 2, 3, 8])]
    packed = _grid(config, "packed", ["1x8", "2x2"])
    # Reconstructed default grid; the exhibit fixes the channel family but
    # not the sampled SNR points.
    snrs = [float(s) for s in _grid(config, "snrs", [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])]
    d_awgn = int(_scalar(config, "d", 2))
    tasks = []
    for i, m in enumerate(ms):
        tasks.append(("hard", (n_bits, m, episodes, config.seed + 101 * i),
                      config.level, config.interval))
    for i, shape in enumerate(packed):
        d, q = (int(x) for x in str(shape).lower().split("x"))
        tasks.append(("packed", (n_bits, d, q, episodes, config.seed + 211 * (i + 1)),
                      config.level, config.interval))
    for i, snr in enumerate(snrs):
        tasks.append(("awgn", (n_bits, d_awgn, snr, episodes, config.seed + 307 * (i + 1)),
                      config.level, config.interval))
    rows = _parallel_map(_probe_task, tasks, config.workers)
    for row in rows:
        if row["kind"] == "awgn":
            row["soft_ceiling"] = row["param1"] * bpsk_mutual_information(row["param2"])
        else:
            row["soft_ceiling"] = row["corrected"]
    return {"capacity_sanity.csv": rows}


def _awgn_score_sigma(d: int, snr: float, episodes_per_query: float) -> float:
    # Delta method on per-coordinate accuracies at the analytic success rate.
    p = gaussian_cdf(math.sqrt(snr))
    if p >= 1.0:
        return 0.0
    slope = abs(math.log2(p / (1.0 - p)))
    var = slope * slope * p * (1.0 - p) / episodes_per_query
    return math.sqrt(d * var)


def judge_capacity_sanity(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["capacity_sanity.csv"]
    n_bits = int(_scalar(config, "n_bits", 8))
    episodes = int(config.episodes or 200_000)
    verdicts = []
    for r in rows:
        if r["kind"] == "hard":
            verdicts.append(Verdict(
                name=f"hard copy m={round(r['param1'])} within interval of m",
                passed=r["lo"] <= r["analytic"] <= r["hi"] or r["observed"] == r["analytic"],
                measured=r["observed"], expected=f"interval contains {r['analytic']:g}"))
        elif r["kind"] == "packed":
            verdicts.append(Verdict(
                name=f"packed d={round(r['param1'])} q={round(r['param2'])} saturates",
                passed=abs(r["observed"] - r["analytic"]) <= max(0.02, 3 * (r["hi"] - r["lo"])),
                measured=r["observed"], expected=f"{r['analytic']:g}"))
        else:
            sigma = _awgn_score_sigma(round(r["param1"]), r["param2"], episodes / n_bits)
            below = r["observed"] <= r["counted"] + 1e-9
            matches = abs(r["observed"] - r["analytic"]) <= 3 * sigma + 1e-6
            verdicts.append(Verdict(
                name=f"awgn snr={r['param2']:g} below certificate",
                passed=below, measured=r["observed"],
                expected=f"<= {r['counted']:.4f}"))
            verdicts.append(Verdict(
                name=f"awgn snr={r['param2']:g} matches threshold-decoder analytics",
                passed=matches, measured=r["observed"],
                expected=f"{r['analytic']:.4f} +/- {3 * sigma:.4f}"))
    return verdicts


def _ablation_task(task) -> tuple[dict, list[dict]]:
    mode, n_bits, m, seed, episodes, steps, level, method = task
    if mode == "strict":
        net, curve = train_strict(n_bits, m, seed, TrainConfig(steps=steps))
        rep = eval_score(net, episodes, seed + 1, level=level, method=method)
        lo, hi = rep.interval
        curve_rows = [{"m": m, "seed": seed, "checkpoint": k, "loss": loss}
                      for k, loss in enumerate(curve)]
        return ({"mode": "strict", "m": m, "seed": seed, "observed": rep.observed_score,
                 "lo": lo, "hi": hi, "counted": float(m), "corrected": float(m),
                 "diagnosis": ""}, curve_rows)
    if mode == "query_leaky":
        rep = query_leaky_control(n_bits)
    elif mode == "precision_packing":
        rep = precision_packing_control(n_bits)
    elif mode == "episode_weights":
        rep = episode_weights_control(n_bits)
    else:
        raise ValueError(mode)
    return ({"mode": mode, "m": 0, "seed": seed, "observed": rep.observed_score,
             "lo": rep.observed_score, "hi": rep.observed_score,
             "counted": -1.0 if rep.counted_capacity is None else rep.counted_capacity,
             "corrected": -1.0 if rep.corrected_capacity is None else rep.corrected_capacity,
             "diagnosis": rep.diagnosis or ""}, [])


def build_ablations(config: ExperimentConfig) -> Tables:
    n_bits = int(_scalar(config, "n_bits", 8))
    episodes = int(config.episodes or 200_000)
    seeds = int(_scalar(config, "seeds", 5))
    steps = int(_scalar(config, "steps", TrainConfig().steps))
    ms = [int(m) for m in _grid(config, "ms", [1, 3])]
    tasks = [("strict", n_bits, m, config.seed + 1000 * m + s, episodes, steps,
              config.level, config.interval)
             for m in ms for s in range(seeds)]
    tasks += [(mode, n_bits, 0, config.seed, episodes, steps, config.level, config.interval)
              for mode in ("query_leaky", "precision_packing", "episode_weights")]
    results = _parallel_map(_ablation_task, tasks, config.workers)
    rows = [row for row, _ in results]
    curves = [cr for _, curve_rows in results for cr in curve_rows]
    return {"ablations.csv": rows, "training_curves.csv": curves}


def judge_ablations(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    n_bits = int(_scalar(config, "n_bits", 8))
    verdicts = []
    for r in tables["ablations.csv"]:
        if r["mode"] == "strict":
            half = (r["hi"] - r["lo"]) / 2.0
            verdicts.append(Verdict(
                name=f"strict m={round(r['m'])} seed={round(r['seed'])} within budget",
                passed=r["observed"] <= r["counted"] + 3.0 * half,
                measured=r["observed"], expected=f"<= {r['counted']:g} + 3*CI"))
        else:
            verdicts.append(Verdict(
                name=f"{r['mode']} control reaches N exactly with diagnosis",
                passed=(r["observed"] == float(n_bits)) and bool(str(r["diagnosis"]).strip()),
                measured=r["observed"], expected=f"{n_bits} + diagnosis"))
    return verdicts


# ---------------------------------------------------------------------------
# Remaining closed-form exhibits
# ---------------------------------------------------------------------------


def build_visibility(config: ExperimentConfig) -> Tables:
    depth = int(_scalar(config, "depth", 10))
    points = int(_scalar(config, "points", 33))
    capacity = float(_scalar(config, "capacity", 1.0))
    nus = [float(v) for v in _grid(config, "visibilities", [1.0, 0.95, 0.9, 0.8])]
    rows = []
    for nu in nus:
        for k in range(points):
            phi = k * math.pi / 4.0 / (points - 1)
            e_eff = iso_bias_from_angle(phi, nu)
            score = closed_form_score(depth, e_eff)
            rows.append({"n": depth, "phi": phi, "visibility": nu, "e_eff": e_eff,
                         "capacity": capacity, "score": score,
                         "exceeds_capacity": int(score > capacity)})
    return {"visibility.csv": rows}


def judge_visibility(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["visibility.csv"]
    verdicts = []
    worst = max(r["score"] for r in rows)
    verdicts.append(Verdict(name="entire sweep stays below one bit",
                            passed=worst <= 1.0, measured=worst, expected="<= 1"))
    ideal_end = max((r["score"] for r in rows if r["visibility"] == 1.0))
    verdicts.append(Verdict(name="ideal endpoint hits the critical plateau",
                            passed=abs(ideal_end - 0.721) <= 1e-3,
                            measured=ideal_end, expected="0.721 +/- 1e-3"))
    ends = {r["visibility"]: r["score"] for r in rows
            if abs(r["phi"] - math.pi / 4.0) < 1e-9}
    nus = sorted(ends)
    verdicts.append(Verdict(name="visibility loss is subcritical and monotone",
                            passed=all(ends[a] < ends[b] for a, b in zip(nus, nus[1:])),
                            expected="score increasing in visibility at the endpoint"))
    return verdicts


def build_benchmark(config: ExperimentConfig) -> Tables:
    n_max = int(_scalar(config, "n_max", 10))
    rows = []
    for n in range(1, n_max + 1):
        big_n = 1 << n
        p_cl = classical_avg_success_closed_form(big_n)
        rows.append({"n": n, "N": big_n, "majority_success": p_cl,
                     "majority_score": big_n * (1.0 - binary_entropy(p_cl)),
                     "nested_classical_score": closed_form_score(n, 0.5),
                     "nested_tsirelson_score": closed_form_score(n, TSIRELSON_BIAS)})
    return {"benchmark.csv": rows}


def judge_benchmark(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = tables["benchmark.csv"]
    verdicts = []
    last = rows[-1]
    verdicts.append(Verdict(
        name=f"majority score at N={round(last['N'])} near its limit",
        passed=abs(last["majority_score"] - MAJORITY_LIMIT) <= 0.02 * MAJORITY_LIMIT,
        measured=last["majority_score"], expected=f"{MAJORITY_LIMIT:.4f} +/- 2%"))
    verdicts.append(Verdict(
        name="majority stays below the critical plateau",
        passed=all(r["majority_score"] < critical_constant() for r in rows),
        expected=f"< {critical_constant():.4f}"))
    verdicts.append(Verdict(
        name="nested classical cells decay to zero",
        passed=last["nested_classical_score"] < 0.01,
        measured=last["nested_classical_score"], expected="< 0.01 at the deepest scan"))
    verdicts.append(Verdict(
        name="one-bit budget never violated",
        passed=all(max(r["majority_score"], r["nested_tsirelson_score"]) <= 1.0
                   for r in rows),
        expected="<= 1"))
    return verdicts


def build_angle_opt(config: ExperimentConfig) -> Tables:
    depth = int(_scalar(config, "depth", 10))
    penalties = [float(v) for v in
                 _grid(config, "penalties", [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])]
    rows = []
    for lam in penalties:
        phi, utility = optimize_regularized_angle(depth, lam)
        rows.append({"penalty": lam, "phi_star": phi,
                     "phi_frac": phi / (math.pi / 4.0), "utility": utility})
    return {"angle_opt.csv": rows}


def judge_angle_opt(tables: Tables, config: ExperimentConfig) -> list[Verdict]:
    rows = sorted(tables["angle_opt.csv"], key=lambda r: r["penalty"])
    verdicts = []
    free = [r for r in rows if r["penalty"] == 0.0]
    if free:
        verdicts.append(Verdict(name="no penalty selects the maximal angle",
                                passed=abs(free[0]["phi_star"] - math.pi / 4.0) <= 1e-6,
                                measured=free[0]["phi_star"], expected="pi/4"))
    monotone = all(a["phi_star"] >= b["phi_star"] - 1e-9 for a, b in zip(rows, rows[1:]))
    verdicts.append(Verdict(name="stronger penalties never increase the angle",
                            passed=monotone, expected="phi* nonincreasing"))
    interior = [r for r in rows if 0.0 < r["penalty"] <= 0.5]
    verdicts.append(Verdict(
        name="moderate penalties sit strictly inside the range",
        passed=all(0.0 < r["phi_star"] < math.pi / 4.0 - 1e-6 for r in interior),
        expected="0 < phi* < pi/4"))
    strong = [r for r in rows if r["penalty"] >= 5.0]
    if strong:
        verdicts.append(Verdict(name="heavy penalty collapses the angle",
                                passed=strong[-1]["phi_star"] < 0.05,
                                measured=strong[-1]["phi_star"], expected="< 0.05 rad"))
    return verdicts


# ---------------------------------------------------------------------------
# Registry, manifests, run/verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    name: str
    exhibit: str
    build: object
    judge: object


REGISTRY: dict[str, Experiment] = {}


def _register(name: str, exhibit: str, build, judge):
    REGISTRY[name] = Experiment(name=name, exhibit=exhibit, build=build, judge=judge)


_register("table1", "closed-form score grid over depth and bias",
          build_table1, judge_table1)
_register("table3", "measurement-angle scan: bias, CHSH value, depth-10 score",
          build_table3, judge_table3)
_register("depth-scan", "score versus depth for representative biases",
          build_depth_scan, judge_depth_scan)
_register("bias-scan", "score versus bias at fixed depth 10",
          build_bias_scan, judge_bias_scan)
_register("phase-boundary", "critical bias versus depth at unit capacity",
          build_phase_boundary, judge_phase_boundary)
_register("capacity-phase", "critical bias curves for several capacity budgets",
          build_capacity_phase, judge_capacity_phase)
_register("capacity-sanity", "hard / packed / noisy interface accounting probes",
          build_capacity_sanity, judge_capacity_sanity)
_register("ablations", "strict trained bottlenecks plus leaky controls",
          build_ablations, judge_ablations)
_register("visibility", "angle sweep under visibility loss at depth 10",
          build_visibility, judge_visibility)
_register("benchmark", "classical one-bit majority code versus nested cells",
          build_benchmark, judge_benchmark)
_register("angle-opt", "regularized optimization of the cell angle",
          build_angle_opt, judge_angle_opt)


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, rows: list[dict], header_comment: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header_comment}\n")
        if not rows:
            return
        fieldnames = list(rows[0].keys())
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_value(row[k]) for k in fieldnames])


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv_rows(path: str) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("".join(lines)))
    for raw in reader:
        rows.append({k: _parse_cell(v) for k, v in raw.items()})
    return rows


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_root(override: str | None = None) -> str:
    return override or os.environ.get(OUTPUT_ROOT_ENV) or "results"


def run_experiment(config: ExperimentConfig, out_root: str | None = None) -> dict:
    """Build, judge, and persist one experiment; returns the manifest."""
    if config.experiment not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {config.experiment!r}; known: {known}")
    exp = REGISTRY[config.experiment]
    start = time.perf_counter()
    tables = exp.build(config)
    verdicts = exp.judge(tables, config)
    elapsed = time.perf_counter() - start

    out_dir = os.path.join(output_root(out_root), config.experiment)
    os.makedirs(out_dir, exist_ok=True)
    comment = f"racbox experiment={config.experiment} config={config.hash()}"
    outputs = {}
    for fname, rows in tables.items():
        path = os.path.join(out_dir, fname)
        _write_csv(path, rows, comment)
        outputs[fname] = _sha256(path)

    manifest = {
        "experiment": config.experiment,
        "exhibit": exp.exhibit,
        "config": config.as_dict(),
        "config_hash": config.hash(),
        "version": __version__,
        "outputs": outputs,
        "verdicts": [asdict(v) for v in verdicts],
        "all_passed": all(v.passed for v in verdicts),
        "wall_clock_s": elapsed,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def config_from_manifest(data: dict) -> ExperimentConfig:
    cfg = data["config"]
    return ExperimentConfig(experiment=cfg["experiment"], seed=cfg["seed"],
                            episodes=cfg["episodes"], interval=cfg["interval"],
                            level=cfg["level"], workers=cfg["workers"],
                            params=dict(cfg["params"]))


def verify_manifest(manifest_path: str) -> tuple[bool, list[str]]:
    """Recheck output checksums and re-derive the verdicts from the files.

    Returns (ok, messages); ok is False on any checksum mismatch, missing
    file, or failed verdict.
    """
    with open(manifest_path) as fh:
        data = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))
    messages = []
    ok = True
    tables = {}
    for fname, recorded in data["outputs"].items():
        path = os.path.join(base, fname)
        if not os.path.exists(path):
            ok = False
            messages.append(f"MISSING {fname}")
            continue
        actual = _sha256(path)
        if actual != recorded:
            ok = False
            messages.append(f"CHECKSUM MISMATCH {fname}")
            continue
        messages.append(f"checksum ok {fname}")
        tables[fname] = read_csv_rows(path)
    if ok:
        config = config_from_manifest(data)
        exp = REGISTRY[config.experiment]
        verdicts = exp.judge(tables, config)
        for v in verdicts:
            messages.append(f"{'PASS' if v.passed else 'FAIL'} {v.name}")
            ok = ok and v.passed
    return ok, messages

"""Named experiments, one per table or figure of the reproduction suite.

A config is resolved once per run into the values it runs with (``resolve``:
every declared parameter given or defaulted, typed and checked, a repeated
grid value refused).  Each experiment builds a set of CSV tables from those
values alone, then judges them against pinned expected values; ``run``
writes the tables plus a JSON manifest with checksums and verdicts, and
``verify`` re-derives both from the files on disk.  All randomness descends
from the config seed, so a rerun with the same config is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import platform
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import __version__
from .ablation import (TrainConfig, episode_weights_control, eval_score,
                       precision_packing_control, query_leaky_control, train_strict)
from .boxes import TSIRELSON_BIAS, iso_bias_from_angle
from .capacity import (probe_interface, run_awgn_bpsk_probe, run_hard_copy_probe,
                       run_packed_precision_probe)
from .estimation import INTERVAL_METHODS, _score_map
from .info import LN2, gaussian_cdf
from .protocols import MAJORITY_MAX_BITS, classical_avg_success_closed_form
from .scores import (check_enumerable, closed_form_score, critical_bias,
                     critical_bias_asymptotic, critical_constant, optimize_regularized_angle)

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
# Least depth from which capacity C's critical bias stays within 0.03 of
# 1/sqrt(2), checked at every depth up to 60; other capacities go unjudged.
TSIRELSON_WINDOW_DEPTH = {0.25: 13, 0.5: 5, 1.0: 4, 2.0: 13, 4.0: 21}

MAJORITY_LIMIT = 1.0 / (math.pi * LN2)  # large-N majority-code score


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    measured: float | None = None
    expected: str = ""


# The ExperimentConfig fields that can change the numbers; workers never does.
RUN_FIELDS = ("seed", "episodes", "interval", "level")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = DEFAULT_SEED
    episodes: int | None = None
    interval: str = "wilson"
    level: float = 0.95
    workers: int = 1
    params: dict = field(default_factory=dict)

    def hash(self) -> str:
        # Neither workers nor a run field the experiment does not read
        # changes its numbers, so workers stays out of the hash and an unread
        # run field enters it at its default: one result, one hash.
        exp = REGISTRY.get(self.experiment)
        unread = {f.name: f.default for f in fields(self)
                  if exp is not None and f.name in RUN_FIELDS and f.name not in exp.run}
        science = {**asdict(self), **unread}
        del science["workers"]
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


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _typed(experiment: str, key: str, value, kind: type):
    if kind is str:
        ok = isinstance(value, str)
    else:  # a number, integral for an int parameter; bool is not a number here
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and (kind is float or float(value).is_integer()))
    if not ok:
        raise ValueError(f"{experiment} parameter {key} takes {_KINDS[kind]}, got {value!r}")
    return kind(value)


def _integer(value, least: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def resolve(config: ExperimentConfig) -> SimpleNamespace:
    """The values ``config`` runs with, as attributes.

    These are each parameter its experiment declares, given or defaulted
    and of its default's type (a scalar given for a grid becomes a
    one-point grid), each run field it declares, and ``workers``; anything
    else is not there to read.  Raises ValueError on an unknown parameter,
    a value of the wrong type (a list for a scalar parameter, a non-integral
    number for an integer one), a value below its declared least value, an
    empty grid or one that repeats a value, an invalid run field, or an
    unknown experiment.
    """
    if config.experiment not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown experiment {config.experiment!r}; known: {known}")
    exp = REGISTRY[config.experiment]
    unknown = sorted(set(config.params) - set(exp.params))
    if unknown:
        raise ValueError(f"{config.experiment} has no parameter {', '.join(unknown)}; "
                         f"known: {', '.join(exp.params) or 'none'}")
    # Run fields are checked even where unread: an invalid one is a mistake.
    if not _integer(config.seed, 0):
        raise ValueError(f"seed={config.seed!r} is not a nonnegative integer")
    if config.episodes is not None and not _integer(config.episodes, 1):
        raise ValueError(f"episodes={config.episodes!r} is not a positive integer")
    if config.interval not in INTERVAL_METHODS:
        raise ValueError(f"unknown interval method {config.interval!r}")
    if not (isinstance(config.level, numbers.Real) and 0.0 < config.level < 1.0):
        raise ValueError(f"level={config.level!r} outside (0, 1)")
    if not _integer(config.workers, 1):
        raise ValueError(f"workers={config.workers!r} is not a positive integer")
    values = {"workers": config.workers}
    for key, spec in exp.params.items():
        default, least = spec if isinstance(spec, tuple) else (spec, None)
        value = config.params.get(key, default)
        if isinstance(default, list):
            grid = value if isinstance(value, (list, tuple)) else [value]
            if not grid:
                raise ValueError(f"{config.experiment} parameter {key} needs at least one value")
            values[key] = [_typed(config.experiment, key, v, type(default[0])) for v in grid]
            if len(set(values[key])) < len(values[key]):  # a point would run twice
                raise ValueError(f"{config.experiment} parameter {key} repeats a value: "
                                 f"{values[key]}")
        else:  # a list for a scalar parameter fails the type check
            values[key] = _typed(config.experiment, key, value, type(default))
        if least is not None:
            low = min(values[key]) if isinstance(default, list) else values[key]
            if low < least:
                raise ValueError(f"{config.experiment} parameter {key} must be at least "
                                 f"{least}, got {low!r}")
    for name in exp.run:
        values[name] = getattr(config, name)
    if "episodes" in exp.run and config.episodes is None:
        values["episodes"] = exp.episodes
    return SimpleNamespace(**values)


# ---------------------------------------------------------------------------
# Closed-form experiments
# ---------------------------------------------------------------------------


def _against_one_bit(depth: int, bias: float) -> dict:
    # Every verdict on these rows compares against one bit, so the budget is fixed.
    score = closed_form_score(depth, bias)
    return {"capacity": 1.0, "score": score, "exceeds_capacity": int(score > 1.0)}


def _score_grid_checks(rows, prefix: str, tolerance_note: str = "") -> list[Verdict]:
    # Each EXPECTED_SCORE_GRID entry that ``rows`` holds, at 1% rel / 1e-6 abs.
    verdicts = []
    for n, expected_row in EXPECTED_SCORE_GRID.items():
        for e, expected in zip(SCORE_GRID_BIASES, expected_row):
            match = [r["score"] for r in rows if round(r["n"]) == n and abs(r["bias"] - e) < 1e-9]
            if match:
                verdicts.append(Verdict(
                    name=f"{prefix}score(n={n}, E={e:.4f})", passed=_close(match[0], expected),
                    measured=match[0], expected=f"{expected:g}{tolerance_note}"))
    return verdicts


def _within_one_bit(name: str, rows) -> list[Verdict]:
    worst = max(r["score"] for r in rows)
    return [Verdict(name=name, passed=worst <= 1.0, measured=worst, expected="<= 1")]


def _on_plateau(name: str, score: float, depth: int) -> list[Verdict]:
    # The score at the Tsirelson bias is within 1e-3 of 0.721 from depth 8 on.
    return [Verdict(name=name, passed=abs(score - 0.721) <= 1e-3, measured=score,
                    expected="0.721 +/- 1e-3")] if depth >= 8 else []


def build_table1(p: SimpleNamespace) -> Tables:
    rows = [{"n": n, "bias": e, "score": closed_form_score(n, e)}
            for n in SCORE_GRID_DEPTHS for e in SCORE_GRID_BIASES]
    return {"table1.csv": rows}


def judge_table1(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    return _score_grid_checks(tables["table1.csv"], "", " (1% rel / 1e-6 abs)")


def build_table3(p: SimpleNamespace) -> Tables:
    rows = []
    for phi in ANGLE_SCAN_PHIS:
        e_iso = iso_bias_from_angle(phi)
        rows.append({"phi": phi, "e_iso": e_iso, "chsh": 2.0 * (1.0 + e_iso),
                     "score_n10": closed_form_score(10, e_iso)})
    return {"table3.csv": rows}


def judge_table3(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    tols = {"e_iso": 1e-4, "chsh": 1e-4, "score_n10": 1e-3}
    return [Verdict(name=f"{column}(phi={row['phi']:.4f})",
                    passed=abs(row[column] - expected) <= tol,
                    measured=row[column], expected=f"{expected:g} +/- {tol:g}")
            for column, tol in tols.items()
            for row, expected in zip(tables["table3.csv"], EXPECTED_ANGLE_SCAN[column])]


def build_depth_scan(p: SimpleNamespace) -> Tables:
    rows = [{"n": n, "bias": e, **_against_one_bit(n, e)}
            for e in p.biases for n in range(1, p.n_max + 1)]
    return {"depth_scan.csv": rows}


def judge_depth_scan(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    rows = tables["depth_scan.csv"]
    ts = [r for r in rows if abs(r["bias"] - TSIRELSON_BIAS) < 1e-9]
    verdicts = _within_one_bit("tsirelson bias never exceeds one bit", ts) if ts else []
    return verdicts + _score_grid_checks(rows, "spot ")


def build_bias_scan(p: SimpleNamespace) -> Tables:
    biases = sorted([k / (p.points - 1) for k in range(p.points)] + [TSIRELSON_BIAS])
    rows = [{"n": p.depth, "bias": e, **_against_one_bit(p.depth, e)}
            for e in biases]
    return {"bias_scan.csv": rows}


def judge_bias_scan(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    rows = tables["bias_scan.csv"]
    at = {round(r["bias"], 9): r["score"] for r in rows}
    verdicts = _on_plateau("score at tsirelson bias", at.get(round(TSIRELSON_BIAS, 9)),
                           p.depth)
    below = at.get(0.71)
    above = at.get(0.72)
    # The one-bit critical bias lies in (0.71, 0.72) from depth 10 to 39; it
    # is 0.7100 at depth 40.
    if below is not None and above is not None and 10 <= p.depth <= 39:
        verdicts.append(Verdict(name="one-bit crossing inside (0.71, 0.72)",
                                passed=below < 1.0 < above,
                                measured=above, expected="score(0.71) < 1 < score(0.72)"))
    increasing = all(a["score"] <= b["score"] + 1e-15
                     for a, b in zip(rows, rows[1:]))
    verdicts.append(Verdict(name="score increases with bias", passed=increasing,
                            expected="monotone"))
    return verdicts


def _critical_bias_curves(capacities, n_max: int, iterations: bool = False) -> list[dict]:
    # One row per capacity and per depth up to n_max at which it is reachable.
    if max(capacities) >= 2.0 ** n_max:
        raise ValueError(f"capacity {max(capacities):g} is not below 2^{n_max}: "
                         f"no depth up to {n_max} reaches it")
    rows = []
    for cap in capacities:
        for n in range(1, n_max + 1):
            if cap >= float(2 ** n):
                continue
            res = critical_bias(n, cap)
            rows.append({"n": n, "capacity": cap, "e_crit": res.critical_bias,
                         "e_crit_asymptotic": critical_bias_asymptotic(n, cap)})
            if iterations:
                rows[-1]["iterations"] = res.iterations
    return rows


def _curve_verdicts(curve, capacity: float, label: str) -> list[Verdict]:
    # Budgets above the critical plateau cross from above, smaller ones from
    # below; either way the distance to the threshold must shrink with depth,
    # and from above (capacity 1 or more) the critical bias must fall.
    dist = [abs(v - TSIRELSON_BIAS) for _, v in curve]
    verdicts = [Verdict(name=f"{label} closes on the threshold",
                        passed=all(a > b for a, b in zip(dist, dist[1:])),
                        expected="distance strictly shrinking")]
    if capacity >= 1.0:
        verdicts.append(Verdict(name=f"{label} decreases with depth",
                                passed=all(a[1] > b[1] for a, b in zip(curve, curve[1:])),
                                expected="strictly decreasing"))
    return verdicts


def build_phase_boundary(p: SimpleNamespace) -> Tables:
    return {"phase_boundary.csv": _critical_bias_curves([p.capacity], p.n_max, iterations=True)}


def judge_phase_boundary(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    rows = tables["phase_boundary.csv"]
    curve = [(round(r["n"]), r["e_crit"]) for r in rows]
    by_n = dict(curve)
    verdicts = _curve_verdicts(curve, p.capacity, "critical bias")
    if p.capacity == 1.0:
        # the pinned critical biases and the 0.006 endpoint window, calibrated
        # for depth 40, hold at unit capacity only
        for n, expected in EXPECTED_CRITICAL_BIAS.items():
            if n in by_n:
                verdicts.append(Verdict(name=f"critical bias at depth {n}",
                                        passed=abs(by_n[n] - expected) <= 5e-4,
                                        measured=by_n[n], expected=f"{expected} +/- 5e-4"))
        last_n, last = curve[-1]
        if last_n >= 40:
            verdicts.append(Verdict(name=f"endpoint near tsirelson bias (n={last_n})",
                                    passed=abs(last - TSIRELSON_BIAS) < 0.006,
                                    measured=last, expected="within 0.006 of 1/sqrt(2)"))
    if 20 in by_n:
        asym = next(r["e_crit_asymptotic"] for r in rows if round(r["n"]) == 20)
        rel = abs(by_n[20] - asym) / by_n[20]
        verdicts.append(Verdict(name="asymptotic boundary agreement at depth 20",
                                passed=rel < 0.01, measured=rel, expected="rel err < 1%"))
    return verdicts


def build_capacity_phase(p: SimpleNamespace) -> Tables:
    return {"capacity_phase.csv": _critical_bias_curves(p.capacities, p.n_max)}


def judge_capacity_phase(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    rows = tables["capacity_phase.csv"]
    verdicts = []
    caps = sorted({r["capacity"] for r in rows})
    curves = {c: sorted(((round(r["n"]), r["e_crit"]) for r in rows
                         if r["capacity"] == c)) for c in caps}
    for c, curve in curves.items():
        verdicts += _curve_verdicts(curve, c, f"curve C={c:g}")
        deepest, last = curve[-1]
        if deepest >= TSIRELSON_WINDOW_DEPTH.get(c, math.inf):
            verdicts.append(Verdict(name=f"curve C={c:g} approaches tsirelson bias",
                                    passed=abs(last - TSIRELSON_BIAS) < 0.03, measured=last,
                                    expected="within 0.03 at the deepest scan"))
    deepest = max(n for n, _ in curves[caps[0]])
    ordered = [v for v in (dict(curves[c]).get(deepest) for c in caps) if v is not None]
    verdicts.append(Verdict(name="larger budgets shift the boundary upward",
                            passed=all(a < b for a, b in zip(ordered, ordered[1:])),
                            expected="e_crit increasing in capacity at fixed depth"))
    return verdicts


# ---------------------------------------------------------------------------
# Stochastic experiments
# ---------------------------------------------------------------------------


def _probe_task(task) -> dict:
    kind, n_bits, params, episodes, seed, interface, level, method = task
    # Built per call, so that a rebound module attribute reaches every call.
    runners = {"hard": run_hard_copy_probe, "packed": run_packed_precision_probe,
               "awgn": run_awgn_bpsk_probe}
    res = runners[kind](n_bits, *params, episodes, seed, level=level, method=method)
    param1, param2 = (*params, 0.0)[:2]  # a hard probe's one parameter leaves param2 at 0.0
    return {"kind": kind, "param1": param1, "param2": float(param2),
            "counted": res.counted_capacity, "observed": res.observed_score,
            "lo": res.interval[0], "hi": res.interval[1], "analytic": interface.analytic,
            "soft_ceiling": interface.soft_ceiling}


def build_capacity_sanity(p: SimpleNamespace) -> Tables:
    probes = [("hard", (m,), p.seed + 101 * i) for i, m in enumerate(p.ms)]
    for i, shape in enumerate(p.packed):
        d, q = (int(x) for x in shape.lower().split("x"))
        probes.append(("packed", (d, q), p.seed + 211 * (i + 1)))
    probes += [("awgn", (p.d, snr), p.seed + 307 * (i + 1)) for i, snr in enumerate(p.snrs)]
    # Every probe's arguments are checked before the first one samples.
    tasks = [(kind, p.n_bits, params, p.episodes, seed,
              probe_interface(kind, p.n_bits, *params), p.level, p.interval)
             for kind, params, seed in probes]
    return {"capacity_sanity.csv": _parallel_map(_probe_task, tasks, p.workers)}


def _awgn_score_sigma(d: int, snr: float, episodes_per_query: float) -> float:
    # Delta method on per-coordinate accuracies at the analytic success rate.
    p = gaussian_cdf(math.sqrt(snr))
    if p >= 1.0:
        return 0.0
    slope = abs(math.log2(p / (1.0 - p)))
    var = slope * slope * p * (1.0 - p) / episodes_per_query
    return math.sqrt(d * var)


def judge_capacity_sanity(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    verdicts = []
    for r in tables["capacity_sanity.csv"]:
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
            sigma = _awgn_score_sigma(round(r["param1"]), r["param2"], p.episodes / p.n_bits)
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
    mode, n_bits, m, seed, steps = task
    curve_rows = []
    if mode == "strict":
        net, curve = train_strict(n_bits, m, seed, TrainConfig(steps=steps))
        rep = eval_score(net)
        curve_rows = [{"m": m, "seed": seed, "checkpoint": k, "loss": loss}
                      for k, loss in enumerate(curve)]
    else:  # a control, looked up per call so that a rebound module attribute is seen
        rep = {"query_leaky": query_leaky_control, "precision_packing": precision_packing_control,
               "episode_weights": episode_weights_control}[mode](n_bits)
    row = {"mode": mode, "m": m, "seed": seed, "observed": rep.observed_score,
           "code_entropy": rep.code_entropy, "counted": rep.counted_capacity,
           "corrected": rep.corrected_capacity}
    row = {k: -1.0 if v is None else v for k, v in row.items()}  # -1.0: not defined
    return ({**row, "diagnosis": rep.diagnosis or ""}, curve_rows)


def build_ablations(p: SimpleNamespace) -> Tables:
    check_enumerable(p.n_bits)  # before any net is trained
    tasks = [("strict", p.n_bits, m, p.seed + 1000 * m + s, p.steps)
             for m in p.ms for s in range(p.seeds)]
    tasks += [(mode, p.n_bits, 0, p.seed, p.steps)
              for mode in ("query_leaky", "precision_packing", "episode_weights")]
    results = _parallel_map(_ablation_task, tasks, p.workers)
    rows = [row for row, _ in results]
    curves = [cr for _, curve_rows in results for cr in curve_rows]
    return {"ablations.csv": rows, "training_curves.csv": curves}


# Both strict verdicts compare exact quantities, so only float rounding is forgiven.
EXACT_TOLERANCE = 1e-12


def judge_ablations(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    verdicts = []
    for r in tables["ablations.csv"]:
        if r["mode"] == "strict":
            label = f"strict m={round(r['m'])} seed={round(r['seed'])}"
            verdicts.append(Verdict(
                name=f"{label} embedding: I_NRAC <= H(code)",
                passed=r["observed"] <= r["code_entropy"] + EXACT_TOLERANCE,
                measured=r["observed"], expected=f"<= {r['code_entropy']:.6g}"))
            verdicts.append(Verdict(
                name=f"{label} capacity: H(code) <= m",
                passed=r["code_entropy"] <= r["counted"] + EXACT_TOLERANCE,
                measured=r["code_entropy"], expected=f"<= {r['counted']:g}"))
        else:
            verdicts.append(Verdict(
                name=f"{r['mode']} control reaches N exactly with diagnosis",
                passed=(r["observed"] == float(p.n_bits)) and bool(str(r["diagnosis"]).strip()),
                measured=r["observed"], expected=f"{p.n_bits} + diagnosis"))
    return verdicts


# ---------------------------------------------------------------------------
# Remaining closed-form exhibits
# ---------------------------------------------------------------------------


def build_visibility(p: SimpleNamespace) -> Tables:
    rows = []
    for nu in p.visibilities:
        for k in range(p.points):
            phi = k * math.pi / 4.0 / (p.points - 1)
            e_eff = iso_bias_from_angle(phi, nu)
            rows.append({"n": p.depth, "phi": phi, "visibility": nu, "e_eff": e_eff,
                         **_against_one_bit(p.depth, e_eff)})
    return {"visibility.csv": rows}


def judge_visibility(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    rows = tables["visibility.csv"]
    verdicts = _within_one_bit("entire sweep stays below one bit", rows)
    ideal = [r["score"] for r in rows if r["visibility"] == 1.0]
    if ideal:
        verdicts += _on_plateau("ideal endpoint hits the critical plateau", max(ideal), p.depth)
    ends = {r["visibility"]: r["score"] for r in rows
            if abs(r["phi"] - math.pi / 4.0) < 1e-9}
    nus = sorted(ends)
    verdicts.append(Verdict(name="visibility loss is subcritical and monotone",
                            passed=all(ends[a] < ends[b] for a, b in zip(nus, nus[1:])),
                            expected="score increasing in visibility at the endpoint"))
    return verdicts


def build_benchmark(p: SimpleNamespace) -> Tables:
    if 1 << p.n_max > MAJORITY_MAX_BITS:
        raise ValueError(f"benchmark n_max={p.n_max} needs N = 2^{p.n_max} database bits; "
                         f"the majority closed form takes N <= {MAJORITY_MAX_BITS:,}")
    rows = []
    for n in range(1, p.n_max + 1):
        big_n = 1 << n
        p_cl = classical_avg_success_closed_form(big_n)
        rows.append({"n": n, "N": big_n, "majority_success": p_cl,
                     "majority_score": _score_map(p_cl, big_n),
                     "nested_classical_score": closed_form_score(n, 0.5),
                     "nested_tsirelson_score": closed_form_score(n, TSIRELSON_BIAS)})
    return {"benchmark.csv": rows}


def judge_benchmark(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
    rows = tables["benchmark.csv"]
    verdicts = []
    last = rows[-1]
    # Within 2% of the limit from depth 5 (N = 32) on; below 0.01 from depth 7.
    if last["n"] >= 5:
        verdicts.append(Verdict(
            name=f"majority score at N={round(last['N'])} near its limit",
            passed=abs(last["majority_score"] - MAJORITY_LIMIT) <= 0.02 * MAJORITY_LIMIT,
            measured=last["majority_score"], expected=f"{MAJORITY_LIMIT:.4f} +/- 2%"))
    verdicts.append(Verdict(
        name="majority stays below the critical plateau",
        passed=all(r["majority_score"] < critical_constant() for r in rows),
        expected=f"< {critical_constant():.4f}"))
    if last["n"] >= 7:
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


def build_angle_opt(p: SimpleNamespace) -> Tables:
    rows = []
    for lam in p.penalties:
        phi, utility = optimize_regularized_angle(p.depth, lam)
        rows.append({"penalty": lam, "phi_star": phi,
                     "phi_frac": phi / (math.pi / 4.0), "utility": utility})
    return {"angle_opt.csv": rows}


def judge_angle_opt(tables: Tables, p: SimpleNamespace) -> list[Verdict]:
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
    # build(p) and judge(tables, p) read only ``p = resolve(config)``.
    # params: each config.params key they read, with its default, in
    # declaration order.  The default's type is the parameter's type, and a
    # list default makes the parameter a grid.  A (default, least) pair
    # also declares the least value a run may give, for every grid point.
    params: dict = field(default_factory=dict)
    run: tuple[str, ...] = ()  # the RUN_FIELDS that build and judge read
    episodes: int | None = None  # episodes to run when the config gives none


# The SNR grid of capacity-sanity is reconstructed: the exhibit fixes the
# channel family but not the sampled SNR points.
REGISTRY: dict[str, Experiment] = {exp.name: exp for exp in (
    Experiment("table1", "closed-form score grid over depth and bias",
               build_table1, judge_table1),
    Experiment("table3", "measurement-angle scan: bias, CHSH value, depth-10 score",
               build_table3, judge_table3),
    Experiment("depth-scan", "score versus depth for representative biases",
               build_depth_scan, judge_depth_scan,
               {"n_max": (40, 1), "biases": list(SCORE_GRID_BIASES)}),
    Experiment("bias-scan", "score versus bias at fixed depth 10", build_bias_scan,
               judge_bias_scan, {"depth": (10, 1), "points": (101, 2)}),
    Experiment("phase-boundary", "critical bias versus depth at unit capacity",
               build_phase_boundary, judge_phase_boundary,
               {"n_max": (40, 1), "capacity": 1.0}),
    Experiment("capacity-phase", "critical bias curves for several capacity budgets",
               build_capacity_phase, judge_capacity_phase,
               {"n_max": (40, 1), "capacities": [0.25, 0.5, 1.0, 2.0, 4.0]}),
    Experiment("capacity-sanity", "hard / packed / noisy interface accounting probes",
               build_capacity_sanity, judge_capacity_sanity,
               {"n_bits": (8, 1), "ms": ([1, 2, 3, 8], 0), "packed": ["1x8", "2x2"],
                "snrs": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0], "d": (2, 1)},
               run=RUN_FIELDS, episodes=200_000),
    Experiment("ablations", "strict trained bottlenecks plus leaky controls",
               build_ablations, judge_ablations,
               {"n_bits": (8, 1), "seeds": (5, 1), "steps": (TrainConfig().steps, 1),
                "ms": ([1, 3], 0)},
               run=("seed",)),
    Experiment("visibility", "angle sweep under visibility loss at depth 10",
               build_visibility, judge_visibility,
               {"depth": (10, 1), "points": (33, 2), "visibilities": [1.0, 0.95, 0.9, 0.8]}),
    Experiment("benchmark", "classical one-bit majority code versus nested cells",
               build_benchmark, judge_benchmark, {"n_max": (10, 1)}),
    Experiment("angle-opt", "regularized optimization of the cell angle",
               build_angle_opt, judge_angle_opt,
               {"depth": (10, 1), "penalties": [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]}),
)}


def _write_csv(path: str, rows: list[dict], header_comment: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header_comment}\n")
        if not rows:
            return
        fieldnames = list(rows[0].keys())
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        # csv.writer writes a NumPy scalar as its plain number, as it does a float
        writer.writerows([row[k] for k in fieldnames] for row in rows)


def parse_scalar(text: str):
    """``text`` as an int, else a float, else the string itself."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: parse_scalar(v) for k, v in raw.items()} for raw in csv.DictReader(lines)]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_root(override: str | None = None) -> str:
    return override or os.environ.get(OUTPUT_ROOT_ENV) or "results"


def run_experiment(config: ExperimentConfig, out_root: str | None = None) -> dict:
    """Build, judge, and persist one experiment; returns the manifest.

    Raises ValueError, before anything is built, on a config that
    ``resolve`` rejects.
    """
    p = resolve(config)
    exp = REGISTRY[config.experiment]
    start = time.perf_counter()
    tables = exp.build(p)
    verdicts = exp.judge(tables, p)
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
        "config": asdict(config),
        "config_hash": config.hash(),
        "version": __version__,
        "outputs": outputs,
        "verdicts": [asdict(v) for v in verdicts],
        "all_passed": bool(verdicts) and all(v.passed for v in verdicts),  # none judged: fail
        "wall_clock_s": elapsed,
        # Byte-identity rests on NumPy's generator streams; the fingerprint
        # stays out of the CSVs and the config hash.
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _read_manifest(path: str) -> tuple[dict, ExperimentConfig]:
    # The recorded outputs and config; ValueError, not a traceback, on a file
    # that cannot be read or is not a racbox manifest.
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise ValueError(f"cannot read manifest {path}: {getattr(exc, 'strerror', exc)}") from None
    try:
        if not isinstance(data["outputs"], dict):
            raise TypeError("outputs is not an object")
        return data["outputs"], ExperimentConfig(**data["config"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a racbox manifest: {exc}") from None


def verify_manifest(manifest_path: str) -> tuple[bool, list[str]]:
    """Recheck output checksums and re-derive the verdicts from the files.

    Returns (ok, messages); ok is False on any checksum mismatch, missing
    file, config that no longer resolves, failed verdict, or when no
    verdict applies.  Raises ValueError on a file that is not a readable
    manifest.
    """
    outputs, config = _read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    messages = []
    ok = True
    tables = {}
    for fname, recorded in outputs.items():
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
        try:
            p = resolve(config)
        except ValueError as exc:
            messages.append(f"FAIL {exc}")
            return False, messages
        verdicts = REGISTRY[config.experiment].judge(tables, p)
        if not verdicts:
            ok = False
            messages.append("FAIL no verdict applied")
        for v in verdicts:
            messages.append(f"{'PASS' if v.passed else 'FAIL'} {v.name}")
            ok = ok and v.passed
    return ok, messages


def rebuild_manifest(manifest_path: str) -> tuple[bool, list[str]]:
    """Re-run a manifest's config in a temporary directory and compare checksums.

    Unlike ``verify_manifest``, which re-hashes the files on disk, this
    re-executes the experiment, so nondeterminism or a drifted library shows
    up as a mismatch.  Returns (ok, messages); ok is False when any CSV's
    sha256 differs from the manifest's, or a CSV is missing on either side.
    Raises ValueError on an unreadable manifest or a config that no longer
    resolves.
    """
    recorded, config = _read_manifest(manifest_path)
    with tempfile.TemporaryDirectory() as tmp:
        rebuilt = run_experiment(config, out_root=tmp)["outputs"]
    ok = True
    messages = []
    for fname in sorted(recorded.keys() | rebuilt.keys()):
        if recorded.get(fname) == rebuilt.get(fname):
            messages.append(f"rebuild ok {fname}")
        else:
            ok = False
            messages.append(f"REBUILD MISMATCH {fname}")
    return ok, messages

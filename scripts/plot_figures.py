#!/usr/bin/env python3
"""Render the experiment CSVs to PNG (cosmetic; not part of acceptance).

    python scripts/plot_figures.py [--results results] [--out figures]

Skips any experiment whose CSV is missing; requires matplotlib.
"""

import argparse
import os
import sys
from collections import defaultdict

from racbox.experiments import read_table

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; pip install -e .[plot]", file=sys.stderr)
    sys.exit(2)

ONE_BIT = 1.0


def _load(results, experiment, fname):
    path = os.path.join(results, experiment, fname)
    return read_table(path)[1] if os.path.exists(path) else None


def _group(rows, key):
    out = defaultdict(list)
    for r in rows:
        out[r[key]].append(r)
    return out


def plot_depth_scan(rows, ax):
    for bias, group in sorted(_group(rows, "bias").items()):
        ax.semilogy([r["n"] for r in group], [max(r["score"], 1e-12) for r in group],
                    label=f"E={bias:.4f}")
    ax.axhline(ONE_BIT, ls="--", c="k", lw=0.8)
    ax.set_xlabel("depth n"), ax.set_ylabel("score [bits]"), ax.legend(fontsize=7)


def plot_bias_scan(rows, ax):
    ax.plot([r["bias"] for r in rows], [r["score"] for r in rows])
    ax.axhline(ONE_BIT, ls="--", c="k", lw=0.8)
    ax.axvline(2 ** -0.5, ls="--", c="k", lw=0.8)
    ax.set_xlabel("bias E"), ax.set_ylabel("score [bits]")


def plot_phase_boundary(rows, ax):
    ax.plot([r["n"] for r in rows], [r["e_crit"] for r in rows], marker="o", ms=3)
    ax.plot([r["n"] for r in rows], [r["e_crit_asymptotic"] for r in rows], ls=":")
    ax.axhline(2 ** -0.5, ls="--", c="k", lw=0.8)
    ax.set_xlabel("depth n"), ax.set_ylabel("critical bias")


def plot_capacity_phase(rows, ax):
    for cap, group in sorted(_group(rows, "capacity").items()):
        ax.plot([r["n"] for r in group], [r["e_crit"] for r in group],
                label=f"C={cap:g}")
    ax.axhline(2 ** -0.5, ls="--", c="k", lw=0.8)
    ax.set_xlabel("depth n"), ax.set_ylabel("critical bias"), ax.legend(fontsize=7)


def plot_capacity_sanity(rows, ax):
    xs = [r["counted"] for r in rows]
    ys = [r["observed"] for r in rows]
    kinds = [r["kind"] for r in rows]
    for kind, marker in (("hard", "s"), ("packed", "D"), ("awgn", "o")):
        pts = [(x, y) for x, y, k in zip(xs, ys, kinds) if k == kind]
        if pts:
            ax.scatter(*zip(*pts), marker=marker, label=kind)
    lim = max(xs + ys) * 1.05
    ax.plot([0, lim], [0, lim], ls="--", c="k", lw=0.8)
    ax.set_xlabel("counted capacity [bits]"), ax.set_ylabel("observed score [bits]")
    ax.legend(fontsize=7)


def plot_ablations(rows, ax):
    labels, observed, counted = [], [], []
    for r in rows:
        tag = r["mode"] if r["mode"] != "strict" else f"strict m={r['m']} s{r['seed'] % 10}"
        labels.append(tag), observed.append(r["observed"])
        counted.append(r["counted"] if r["counted"] >= 0 else 0.0)
    x = range(len(labels))
    ax.bar(x, observed, width=0.4, label="observed")
    ax.bar([i + 0.4 for i in x], counted, width=0.4, label="counted")
    ax.set_xticks([i + 0.2 for i in x])
    ax.set_xticklabels(labels, rotation=75, fontsize=6)
    ax.set_ylabel("bits"), ax.legend(fontsize=7)


def plot_visibility(rows, ax):
    for nu, group in sorted(_group(rows, "visibility").items()):
        ax.plot([r["phi"] for r in group], [r["score"] for r in group],
                label=f"visibility {nu:g}")
    ax.axhline(ONE_BIT, ls="--", c="k", lw=0.8)
    ax.set_xlabel("angle [rad]"), ax.set_ylabel("score [bits]"), ax.legend(fontsize=7)


def plot_benchmark(rows, ax):
    ns = [r["n"] for r in rows]
    ax.plot(ns, [r["majority_score"] for r in rows], marker="o", ms=3, label="majority code")
    ax.plot(ns, [r["nested_classical_score"] for r in rows], marker="s", ms=3,
            label="nested cells E=0.5")
    ax.plot(ns, [r["nested_tsirelson_score"] for r in rows], marker="^", ms=3,
            label="nested cells E=1/sqrt2")
    ax.axhline(ONE_BIT, ls="--", c="k", lw=0.8)
    ax.set_xlabel("depth n (N=2^n)"), ax.set_ylabel("score [bits]"), ax.legend(fontsize=7)


def plot_angle_opt(rows, ax):
    ax.semilogx([max(r["penalty"], 1e-3) for r in rows],
                [r["phi_frac"] for r in rows], marker="o", ms=3)
    ax.set_xlabel("penalty weight"), ax.set_ylabel("optimal angle / (pi/4)")


def plot_table(rows, ax, columns):
    ax.axis("off")
    cells = [[f"{r[c]:.4g}" if isinstance(r[c], float) else str(r[c]) for c in columns]
             for r in rows]
    ax.table(cellText=cells, colLabels=columns, loc="center", fontsize=7)


PLOTTERS = {
    "depth-scan": ("depth_scan.csv", plot_depth_scan),
    "bias-scan": ("bias_scan.csv", plot_bias_scan),
    "phase-boundary": ("phase_boundary.csv", plot_phase_boundary),
    "capacity-phase": ("capacity_phase.csv", plot_capacity_phase),
    "capacity-sanity": ("capacity_sanity.csv", plot_capacity_sanity),
    "ablations": ("ablations.csv", plot_ablations),
    "visibility": ("visibility.csv", plot_visibility),
    "benchmark": ("benchmark.csv", plot_benchmark),
    "angle-opt": ("angle_opt.csv", plot_angle_opt),
    "table1": ("table1.csv", lambda rows, ax: plot_table(rows, ax, ["n", "bias", "score"])),
    "table3": ("table3.csv", lambda rows, ax: plot_table(
        rows, ax, ["phi", "e_iso", "chsh", "score_n10"])),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="results")
    parser.add_argument("--out", default="figures")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    made = 0
    for name, (fname, plotter) in PLOTTERS.items():
        rows = _load(args.results, name, fname)
        if rows is None:
            print(f"{name:<16} no CSV, skipped")
            continue
        fig, ax = plt.subplots(figsize=(5, 3.4), dpi=160)
        plotter(rows, ax)
        ax.set_title(name)
        fig.tight_layout()
        path = os.path.join(args.out, f"{name}.png")
        fig.savefig(path)
        plt.close(fig)
        print(f"{name:<16} -> {path}")
        made += 1
    return 0 if made else 1


if __name__ == "__main__":
    sys.exit(main())

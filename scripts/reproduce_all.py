#!/usr/bin/env python3
"""Run every experiment and print a verdict summary table.

    python scripts/reproduce_all.py [--out results] [--seed N]
                                    [--fast] [--skip-training] [--workers W]

--fast shrinks the stochastic experiments (fewer episodes, fewer seeds,
shorter training) for a quick end-to-end smoke pass; the closed-form
exhibits are identical either way.
"""

import argparse
import sys

from racbox.experiments import (DEFAULT_SEED, REGISTRY, ExperimentConfig,
                                run_experiment)

FAST_PARAMS = {
    "capacity-sanity": {"episodes": 20_000},
    "ablations": {"params": {"seeds": 2, "steps": 3000}},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--skip-training", action="store_true")
    args = parser.parse_args(argv)

    all_ok = True
    for name in sorted(REGISTRY):
        if args.skip_training and name == "ablations":
            print(f"{name:<16} skipped (--skip-training)")
            continue
        episodes = None
        params = {}
        if args.fast and name in FAST_PARAMS:
            episodes = FAST_PARAMS[name].get("episodes")
            params = dict(FAST_PARAMS[name].get("params", {}))
        config = ExperimentConfig(experiment=name, seed=args.seed, episodes=episodes,
                                  workers=args.workers, params=params)
        manifest = run_experiment(config, out_root=args.out)
        passed = sum(v["passed"] for v in manifest["verdicts"])
        total = len(manifest["verdicts"])
        ok = manifest["all_passed"]
        all_ok = all_ok and ok
        print(f"{name:<16} {'PASS' if ok else 'FAIL'}  verdicts {passed}/{total}  "
              f"wall {manifest['wall_clock_s']:.2f}s")
    print("SUMMARY:", "ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

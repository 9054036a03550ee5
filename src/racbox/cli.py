"""Command-line reproduction harness.

    racbox list
    racbox run <experiment> [--seed S] [--episodes T] [--out DIR] [...]
    racbox verify [--rebuild] <manifest.json>

``run`` writes plot-ready CSVs plus a manifest with checksums and pass/fail
verdicts; ``verify`` rechecks both, and with ``--rebuild`` also re-runs the
manifest's config and compares the new CSVs' checksums with the recorded
ones.  Defaults can be kept in an INI config file (one section per
experiment); command-line flags override the file.  A parameter the
experiment cannot run, one it does not read, a non-integral value for an
integer parameter (``--grid ms=1.5``) or a value below the parameter's
declared least one (``--grid points=1``) stops ``run`` with a one-line
``error: ...`` and exit status 1, as does a malformed ``--grid`` item or a
config file that cannot be read or parsed; keys of the shared ``[defaults]`` section
that the experiment does not read are dropped instead.  In the same way a
run flag the experiment does not read (``--episodes`` on ``table1``) is
echoed in the manifest but enters the config hash at its default.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from .estimation import INTERVAL_METHODS
from .experiments import (OUTPUT_ROOT_ENV, REGISTRY, RUN_FIELDS, ExperimentConfig, output_root,
                          parse_scalar, rebuild_manifest, run_experiment, verify_manifest)

INTERVAL_SHORTHANDS = {"cp": "clopper_pearson"}  # accepted by --interval and the INI file


def _parse_grid_item(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ValueError(f"grid items look like key=v1,v2 (got {item!r})")
    key, _, raw = item.partition("=")
    values = [parse_scalar(v) for v in raw.split(",") if v != ""]
    if not values:
        raise ValueError(f"grid item {item!r} has no values")
    return key.strip().replace("-", "_"), values if len(values) > 1 else values[0]


def _load_config_file(path: str, experiment: str) -> dict:
    # [defaults] is shared by every experiment, so a key there that this
    # experiment does not read is dropped; its own section is taken whole.
    shared = {*RUN_FIELDS, "workers", *REGISTRY[experiment].params}
    parser = configparser.ConfigParser()
    merged: dict = {}
    try:
        with open(path) as fh:
            parser.read_file(fh)
        for section in ("defaults", experiment):
            if parser.has_section(section):
                for key, raw in parser.items(section):
                    key, value = _parse_grid_item(f"{key}={raw}")
                    if section == experiment or key in shared:
                        merged[key] = value
    except (OSError, configparser.Error, ValueError) as exc:  # one line naming the file
        reason = getattr(exc, "strerror", None) or str(exc).replace("\n", " ")
        raise ValueError(f"cannot read config {path}: {reason}") from None
    return merged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="racbox",
                                     description="reproduction experiments for "
                                                 "one-bit random-access coding")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write CSV + manifest")
    run.add_argument("experiment", choices=sorted(REGISTRY))
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--episodes", type=int, default=None,
                     help="episode count for stochastic experiments")
    run.add_argument("--out", default=None,
                     help=f"output root (default ${OUTPUT_ROOT_ENV} or ./results)")
    run.add_argument("--interval", choices=[*INTERVAL_METHODS, *INTERVAL_SHORTHANDS],
                     default=None)
    run.add_argument("--level", type=float, default=None, help="confidence level")
    run.add_argument("--workers", type=int, default=None,
                     help="worker pool size (default: CPU count)")
    run.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2",
                     help="override an experiment parameter; repeatable")
    run.add_argument("--n-max", type=int, default=None,
                     help="shorthand for --grid n_max=<value>")
    run.add_argument("--config", default=None, help="INI file with per-experiment defaults")

    ver = sub.add_parser("verify", help="recheck a manifest's files and verdicts")
    ver.add_argument("manifest")
    ver.add_argument("--rebuild", action="store_true",
                     help="also re-run the config in a temporary directory and "
                          "compare CSV checksums")

    sub.add_parser("list", help="list experiments and the exhibit each reproduces")
    return parser


def _assemble_config(args) -> ExperimentConfig:
    # A run field that neither a flag nor the file gives keeps ExperimentConfig's
    # default; workers defaults to the CPU count here.
    params = _load_config_file(args.config, args.experiment) if args.config else {}
    run = {"workers": os.cpu_count() or 1}
    for name in (*RUN_FIELDS, "workers"):
        if name in params:
            run[name] = params.pop(name)  # remaining file keys are experiment parameters
        if getattr(args, name) is not None:
            run[name] = getattr(args, name)
    if isinstance(run.get("interval"), str):
        run["interval"] = INTERVAL_SHORTHANDS.get(run["interval"], run["interval"])
    if args.n_max is not None:
        params["n_max"] = args.n_max
    for item in args.grid:
        key, value = _parse_grid_item(item)
        params[key] = value
    return ExperimentConfig(experiment=args.experiment, params=params, **run)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in REGISTRY)
        for name in sorted(REGISTRY):
            print(f"{name:<{width}}  {REGISTRY[name].exhibit}")
        return 0

    if args.command == "verify":
        try:
            ok, messages = verify_manifest(args.manifest)
        except ValueError as exc:  # a file that is not a readable manifest
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.rebuild:
            try:
                rebuilt_ok, rebuilt_messages = rebuild_manifest(args.manifest)
            except ValueError as exc:  # e.g. a parameter no experiment reads any more
                rebuilt_ok, rebuilt_messages = False, [f"REBUILD FAILED {exc}"]
            ok = ok and rebuilt_ok
            messages += rebuilt_messages
        for msg in messages:
            print(msg)
        print("VERIFY:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    try:
        config = _assemble_config(args)
        manifest = run_experiment(config, out_root=output_root(args.out))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in manifest["verdicts"]:
        status = "PASS" if v["passed"] else "FAIL"
        measured = "" if v["measured"] is None else f"  measured={v['measured']:.6g}"
        expected = f"  expected={v['expected']}" if v["expected"] else ""
        print(f"{status}  {v['name']}{measured}{expected}")
    where = os.path.join(output_root(args.out), config.experiment)
    print(f"wrote {', '.join(sorted(manifest['outputs']))} and manifest.json to {where}")
    outcome = ("ALL PASS" if manifest["all_passed"] else
               "FAILURES PRESENT" if manifest["verdicts"] else "NO VERDICT APPLIED")
    print(f"config={manifest['config_hash']}  wall={manifest['wall_clock_s']:.2f}s  {outcome}")
    return 0 if manifest["all_passed"] else 2


if __name__ == "__main__":
    sys.exit(main())

"""racbox benchmark runner.

    python3 perfbench/run.py --workload {ablation-train,suite-cp,pyramid-mc,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload process is fresh
(``worker.py``), single-threaded in BLAS and started after the previous
one ends: at least two, then more while they fit in ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` traced and untraced processes
alternate and the JSON holds the per-layer metrics.  The human-readable
lines above it give every metric with its unit, the checks and an
environment fingerprint.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ablation-train", "suite-cp", "pyramid-mc")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0  # a run must end within 180 s, set-up probes included
POLL_S = 0.005


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # One BLAS thread: the default pool made ablation-train swing by 15%.
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(workload: str, seed: int, tmp: str, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion; returns its result plus
    ``setup_s`` and ``peak_rss_mb`` measured from outside."""
    out = tempfile.mkdtemp(dir=tmp)
    log_path = os.path.join(out, "worker.log")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--out", out]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    try:
        # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would report
        # the largest peak of every child reaped so far.
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"{workload} process exceeded the run's time budget")
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, errors="replace") as fh:
            tail = fh.read()[-4000:]
        raise BenchError(f"{workload} process exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("ready") - started
    result["process_s"] = time.monotonic() - started
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    result["out"] = out
    return result


def fingerprint(seed: int) -> dict:
    import numpy as np

    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    package = os.path.join(SRC, "racbox")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "threads": {var: child_env()[var] for var in THREAD_VARS},
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "seed": seed, "master_seed": workloads.master_seed(seed)}


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    spawn(workload, seed, tmp, deadline, setup_only=True)  # warm-up: fills the page cache
    runs = []
    begin = time.monotonic()
    # At least two processes (a median, a rerun to compare against, and in
    # a traced run one process of each kind); then start another only if
    # it should end within --seconds, so that a run's length is predictable.
    setups = []
    while len(runs) < 2 or (time.monotonic() - begin
                            + statistics.median(r["process_s"] for r in runs) <= seconds):
        runs.append(spawn(workload, seed, tmp, deadline, trace=trace and len(runs) % 2 == 0))
        setups.append(runs[-1]["setup_s"])
        # Set-up-only processes between workload processes spread the set-up
        # samples over the run, because the machine's speed drifts within it.
        expected_runs = max(1.0, seconds / runs[0]["process_s"])
        for _ in range(max(1, math.ceil(MIN_SETUP_SAMPLES / expected_runs) - 1)):
            setups.append(spawn(workload, seed, tmp, deadline, setup_only=True)["setup_s"])
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, seed, tmp, deadline, setup_only=True)["setup_s"])

    checks = [tuple(c) for r in runs for c in r["checks"]]
    checks += [(f"process {i}: outputs byte-identical to process 0",
                r["digest"] == runs[0]["digest"]) for i, r in enumerate(runs[1:], 1)]
    plain = [r for r in runs if "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    end_to_end = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                  "setup_s": statistics.median(setups)}
    layers = {}
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - end_to_end["wall_s"])
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        shutil.copy(os.path.join(traced[0]["out"], "spans.jsonl"),
                    os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.jsonl"))
    return {"runs": runs, "setups": setups, "checks": checks,
            "end_to_end": end_to_end, "layers": layers}


def report(workload: str, seed: int, trace: bool, m: dict, spec: dict, env: dict):
    failed = [name for name, passed in m["checks"] if not passed]
    attempted = len(m["checks"])
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in m["runs"] if "layers" not in r)
    print(f"workload {workload}  seed {seed}  processes {len(m['runs'])}"
          f"  set-up samples {len(m['setups'])}  traced {'yes' if trace else 'no'}")
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name, value in m["end_to_end"].items():
        print(f"  {name:<14} {value:12.4f} {units[name]}")
    print(f"  {'fail_share':<14} {len(failed) / attempted:12.4f}"
          f"  ({len(failed)} of {attempted} checks failed)")
    print(f"  untraced wall_s per process: {walls}")
    for name in failed:
        print(f"  FAILED CHECK {name}")
    for name, value in m["layers"].items():
        print(f"  {name:<36} {value:16.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = m["layers"] if trace else m["end_to_end"]
    if {e["name"] for e in wanted} != set(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted}
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "racbox", "__init__.py")):
        print(f"racbox sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # Compile bytecode first so that no timed set-up pays a .pyc compile.
    if not all(compileall.compile_dir(d, quiet=1) for d in (SRC, HERE)):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = fingerprint(args.seed)

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
        try:
            m = measure(name, args.seed, args.seconds, bool(args.trace), tmp)
            report(name, args.seed, bool(args.trace), m, spec, env)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

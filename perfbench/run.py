"""sphlie certification benchmark.

    python3 perfbench/run.py [--workload catalog|ladder|probe|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; sphlie is imported from ./src.
Each workload runs in its own single-threaded worker process (worker.py)
as a closed loop of whole passes over its items, for ``--seconds``
seconds (at least one pass).  Set-up is measured SETUP_SAMPLES times, in
fresh processes, and reported as the median.

With ``--trace 0`` the end-to-end metrics are printed by name with their
units; with ``--trace 1`` the per-layer metrics of the outside-in trace
are.  Every result is stamped with the environment and also written to
.perfbench_out/results/.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Seed 1 is the
development seed; seed 7 is held out for confirming claims (README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, PRINTED  # noqa: E402

WORKLOADS = ("catalog", "ladder", "probe")
SETUP_SAMPLES = 3
# A workload's processes must finish within this many seconds.
WORKLOAD_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def source_digest() -> str:
    """sha256 over the package sources, which identifies the measured code
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sphlie").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, trace: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "traced": bool(trace),
    }


def run_worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("workload deadline passed before a worker started")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {WORKLOAD_DEADLINE_S:.0f} s "
                         f"workload deadline") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 env: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        base = ["--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--workdir", workdir]
        setups = [run_worker(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        extra = ["--trace", str(trace)]
        if trace:
            spans = OUT / "traces" / f"{name}-seed{seed}-{stamp}.jsonl.gz"
            extra += ["--spans", str(spans)]
        result = run_worker(base + extra, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    e2e = {"setup_s": statistics.median(setups),
           **result["end_to_end"],
           "peak_rss_mb": result["peak_rss_mb"],
           "ref_slice_s": result["ref_slice_s"],
           "fail_ratio": result["failed"] / result["attempted"]}
    result["metrics"] = ({k: result["per_layer"][k] for k in PER_LAYER}
                         if trace else {k: e2e[k] for k in END_TO_END})
    result["printed"] = {k: e2e[k] for k in PRINTED}
    result["correct"] = (result["failed"] == 0
                         and not result.get("self_time_violations"))
    result["environment"] = env
    result["workload"] = name
    (OUT / "results").mkdir(exist_ok=True)
    path = OUT / "results" / f"{name}-seed{seed}-trace{trace}-{stamp}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def report(name: str, result: dict, trace: int) -> None:
    units = PER_LAYER if trace else END_TO_END
    print(f"{name}: {result['passes']} untraced + {result['traced_passes']} "
          f"traced passes x {len(result['items'])} items; "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for label, why in result["failures"]:
        print(f"{name}: FAILED {label}: {why}")
    for item, s, wall in result.get("self_time_violations", []):
        print(f"{name}: item {item}: stage self times {s:.6f} s exceed "
              f"its wall time {wall:.6f} s")
    for key, value in result["metrics"].items():
        print(f"{name} {key:48s} {value:.6g} {units[key]}")
    if not trace:
        for key, value in result["printed"].items():
            print(f"{name} {key:48s} {value:.6g} {PRINTED[key]}"
                  f"  (not bounded)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sphlie certification benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sphlie" / "__init__.py").is_file():
        print(f"error: no sphlie sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed, args.trace)
    print("environment: " + json.dumps(env, sort_keys=True))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, env)
            report(name, results[name], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

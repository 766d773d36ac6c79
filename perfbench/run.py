#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload explore-exhaustive --seed 1 \
        --seconds 50 --trace 0

It configures and builds perfbench/ (the repository's libraries plus the
bsr_perfbench program, Release) under $CARGO_TARGET_DIR or .bench_build,
runs the workload's set-up several times in fresh processes for setup_s,
runs the workload once, checks its metrics against BENCHMARK.json, and
prints the result as the last line of standard output. Build output and
diagnostics go to standard error. Any failure exits non-zero without a
result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("explore-exhaustive", "serve-mixed")
SETUP_REPEATS = 10  # fresh-process set-ups behind setup_s, plus the run's own
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", "perfbench", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bsr_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """sha256 over the paths and bytes of every file under src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(cmd, env):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if out.returncode != 0:
        fail("exit %d: %s" % (out.returncode, " ".join(cmd)))
    lines = out.stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line from: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env.pop("BSR_EXPLORE_THREADS", None)  # every exploration stays serial

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--root", ".", "--scratch", scratch]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                _, res = run_binary(base + ["--seconds", "1", "--trace", "0",
                                            "--setup-only", "1"], env)
                setups.append(res["metrics"]["setup_s"]["value"])
        lines, res = run_binary(
            base + ["--seconds", repr(args.seconds), "--trace", str(args.trace),
                    "--git-sha", git_sha(), "--source-digest", source_digest()],
            env)
        # Keep a traced run's spans beside the build.
        for name in os.listdir(scratch):
            if name.startswith("spans-"):
                os.replace(os.path.join(scratch, name),
                           os.path.join(build_dir, name))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = res["metrics"]
    if args.trace:
        # A layer the workload bypasses reads 0: nothing ran there.
        for name, unit in wanted.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
        extra = {k: metrics.pop(k) for k in list(metrics) if k not in wanted}
        lines.append("record-extra " + json.dumps(extra, sort_keys=True))
    else:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        lines.append("record-setup " + json.dumps({"setup_s_samples": setups}))
    if set(metrics) != set(wanted):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(wanted) - set(metrics)), sorted(set(metrics) - set(wanted))))
    for name, m in metrics.items():
        if m["unit"] != wanted[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (name, m["unit"], wanted[name]))

    for line in lines:
        print(line)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds the `perfbench`
binary and the `squality-backend-worker` binary in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`). Every run writes scratch data
under `.bench_work/` and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

`--self-test` runs every workload at a tiny scale, traced and untraced, and
checks that each metric named in BENCHMARK.json is emitted with its unit.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["study_cold", "study_warm", "study_subprocess"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Build both binaries; cargo's output goes to stderr."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for extra in (["--bin", "perfbench"], ["-p", "squality-backend", "--bin", "squality-backend-worker"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release")


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run(bin_dir, args):
    """Run the benchmark binary; returns (exit code, stdout)."""
    env = dict(os.environ)
    env["SQUALITY_BACKEND_WORKER"] = os.path.join(bin_dir, "squality-backend-worker")
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_REVISION"] = revision()
    cmd = [os.path.join(bin_dir, "perfbench"), "--work-dir", os.path.join(ROOT, ".bench_work")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    return proc.returncode, out


def self_test(bin_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if names != WORKLOADS:
        fail(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    tiny = ["--scale", "0.03", "--seconds", "0", "--min-iters", "1"]
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(bin_dir, ["--workload", workload, "--seed", "7", "--trace", trace] + tiny)
            if code != 0:
                fail(f"{workload} --trace {trace} exited {code}")
            result = json.loads(out.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} --trace {trace}: metrics {got} != BENCHMARK.json {want}")
            print(f"self-test {workload} --trace {trace}: {len(got)} metrics ok, "
                  f"{result['attempted']} checks passed")
    print("self-test passed")


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")) or not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"{ROOT} is not a checkout of the repository (no crates/ or Cargo.toml)")
    bin_dir = build()
    if sys.argv[1:] == ["--self-test"]:
        self_test(bin_dir)
        return
    code, out = run(bin_dir, sys.argv[1:])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the PFPL benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is built from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. The last line of stdout is the result JSON object.
Exit status is non-zero, with no result printed, when the sources are missing,
the build or the run fails, or the run's metrics are not exactly those
BENCHMARK.json names for the mode (end_to_end for --trace 0, per_layer for
--trace 1).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("codec_serial", "codec_omp", "served", "ingest")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(repo):
    """sha256 over the paths and bytes of every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((repo / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(repo)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha(repo):
    try:
        r = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def build(bench_dir, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited with {r.returncode}")


def manifest_metrics(repo, trace):
    """{name: unit} of the metrics BENCHMARK.json asks for in this mode."""
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    repo = bench_dir.parent
    if not (repo / "src" / "CMakeLists.txt").is_file():
        fail(f"PFPL sources not found under {repo / 'src'}")
    try:
        want = manifest_metrics(repo, args.trace)
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metrics of BENCHMARK.json: {e}")
    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = out_root / "perfbench"
    build(bench_dir, build_dir)

    tmp_dir = out_root / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmp-dir", str(tmp_dir), "--git-sha", git_sha(repo),
           "--source-digest", source_digest(repo)]
    if args.trace == "1":
        traces = out_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"benchmark exited with {r.returncode}")
    try:
        result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError:
        sys.stderr.write(r.stdout)
        fail("benchmark printed no result line")
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    if got != want:
        sys.stderr.write(r.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {sorted(n for n in got if n in want and got[n] != want[n])}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the emsplit benchmark.

    python3 emsbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 emsbench/run.py --selftest

Run from the root of an emsplit checkout.  The first call configures and
builds emsbench/ (CMake, Release) into .bench_build/emsbench; later calls
reuse that build.  The benchmark binary writes its scratch files under
.bench_build/ and removes them when it ends.  The last line of stdout is the
run's JSON result; progress and diagnostics go to stderr.  Exits non-zero,
without a result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"emsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    # CARGO_TARGET_DIR names the checkout's build area when it is set.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then bring the build up to date; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no emsplit sources under {ROOT / 'src'}", 2)
    out = build_root() / "emsbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail(f"build failed: {exc}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    binary = out / "emsbench"
    if not binary.is_file():
        fail("build produced no emsbench binary")
    return binary


def run(cmd, scratch, timeout_s):
    """Run in its own process group; on timeout kill the whole group.  The
    scratch directory goes either way."""
    proc = subprocess.Popen(cmd + ["--dir", scratch], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {timeout_s} s")
    finally:
        shutil.rmtree(ROOT / scratch, ignore_errors=True)
    return proc.returncode, out.decode()


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line of output is not JSON")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}")
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("nothing was attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    scratch = os.path.relpath(build_root() / f"run-{os.getpid()}", ROOT)
    if args.selftest:
        code, out = run([str(binary), "--selftest"], scratch, RUN_TIMEOUT_S)
        sys.stdout.write(out)
        sys.exit(code)

    code, out = run([str(binary), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], scratch, RUN_TIMEOUT_S)
    if code != 0:
        fail(f"benchmark exited with code {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()

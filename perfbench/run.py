#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload paper-fields|cli-checkpoint|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which pulls
in the repository sources) into .bench_build/, then runs the benchmark
binary, whose last stdout line is the JSON result.  Build output goes to
stderr.  Traced runs write their spans to .bench_build/trace/.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper-fields", "cli-checkpoint", "serve-mixed")
BUILD = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(os.cpu_count() or 1)
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", here, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "szx_cli", "szx_serve_daemon"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--cli", os.path.join(BUILD, "szx", "tools", "szx_cli"),
           "--serve", os.path.join(BUILD, "szx", "tools", "szx_serve"),
           "--work", work]
    if a.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            BUILD, "trace", f"{a.workload}-seed{a.seed}.spans.json")]
    # Own process group, so a hung run takes its children down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

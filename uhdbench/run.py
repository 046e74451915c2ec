#!/usr/bin/env python3
"""Build and run the uHD benchmark.

    python3 uhdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary is built from source
with CMake into $CARGO_TARGET_DIR (default .bench_build) on the first run
and rebuilt incrementally afterwards; build output goes to stderr. The
binary's standard output is passed through, so the last line printed is
its JSON result. A traced run (--trace 1) also writes its spans to
<build dir>/trace-<workload>-<seed>.jsonl.
"""
import argparse
import os
import subprocess
import sys


def build(bench_dir, build_dir):
    """Configure (once) and build the benchmark binary; returns its path or
    None. The build step reconfigures by itself when a CMake file changed."""
    generated = [os.path.join(build_dir, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    make = ["cmake", "--build", build_dir, "--target", "uhdbench", "-j", "4"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "uhdbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "uhdbench")
    binary = build(bench_dir, build_dir)
    if binary is None:
        print("uhdbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_root, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

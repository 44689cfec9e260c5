#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The build goes to $CARGO_TARGET_DIR, or
.bench_build when it is unset; build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.  Traced runs write their Chrome
trace-event JSON to <build>/traces/<workload>-seed<n>.json.  --self-test
builds and runs the test showing that each output check can fail.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "perfbench", "perfbench_checks_test"],
                   stdout=sys.stderr, check=True)


def main(argv):
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_checks_test")]).returncode

    # The sockets engine binds its Unix-domain rendezvous sockets under
    # TMPDIR; a short relative path keeps them inside the checkout and under
    # the socket path length limit.
    tmp = os.path.join(build_dir, "tmp")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    args = list(argv)
    opts = dict(zip(args[0::2], args[1::2]))
    if opts.get("--trace") == "1" and "--trace-out" not in opts:
        name = f"{opts.get('--workload', 'unknown')}-seed{opts.get('--seed', '1')}.json"
        args += ["--trace-out", os.path.join(traces, name)]
    env = dict(os.environ, TMPDIR=tmp)
    return subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the Urbane serving benchmark.

Run from the repository root:

    python3 urbench/run.py --workload session --seed 1 --seconds 20 --trace 0

Builds the repository's libraries and the benchmark program (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, writes the detailed
report to .bench_out/<workload>-s<seed>-t<trace>.json and prints, as the
last line of standard output, the result object
{"correct", "attempted", "failed", "metrics"}. The line before it is the
run's environment stamp. Build logs go to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("session", "crowd", "live")


def fail(message, code=2):
    print("urbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    """Configures once, then builds the benchmark program incrementally."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed", 1)
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", build_dir, "--target",
                             "urbench", "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "urbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    # The benchmark builds the program from this checkout's sources; without
    # them there is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under " + os.path.join(ROOT, "src"))

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(
        out_dir, "%s-s%d-t%s.json" % (args.workload, args.seed, args.trace))
    work_dir = os.path.join(ROOT, ".bench_work",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scale", repr(args.scale), "--work-dir", work_dir,
               "--report", report]
    started = time.monotonic()
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail("benchmark exited with code %d" % run.returncode, 1)

    stamp = {"git_commit": git_commit(), "source_sha256": source_digest(),
             "run_wall_s": round(time.monotonic() - started, 3)}
    try:
        with open(report) as handle:
            document = json.load(handle)
        stamp = dict(document.get("stamp", {}), **stamp)
        document["stamp"] = stamp
        with open(report, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    except (OSError, ValueError) as error:
        fail("cannot stamp the report: %s" % error, 1)

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

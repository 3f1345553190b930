#!/usr/bin/env python3
"""Build confail from source and run one cfbench workload.

    python3 cfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
cfbench/ (the library, the `confail` tool and the runner) into the build
directory: $CARGO_TARGET_DIR if set, else .bench_build.  Later calls reuse
it.  The runner's report goes to stdout; its last line is the result JSON.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("explore_ff_t5", "ingest_jsonl", "campaign_serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"cfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout is not
    necessarily a git repository, so this stands in for a revision)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "cmake", "cfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "cfbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "cfbench", "confail"])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see " + log_path + ")")
    return (os.path.join(cmake_dir, "cfbench"),
            os.path.join(cmake_dir, "confail_tools", "confail"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src", "tools", "cmake"):
        if not os.path.isdir(os.path.join(root, needed)):
            fail(f"no {needed}/ next to cfbench/: not a confail checkout")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    runner, confail = build(root, build_dir)

    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(build_dir, "out")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", out_dir, "--confail-bin", confail,
           "--revision", git_revision(root), "--source-digest", source_digest(root)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"runner exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        fail("reported metrics differ from those BENCHMARK.json declares")
    print("\n".join(lines[:-1]))
    print(f"wall: {time.monotonic() - t0:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

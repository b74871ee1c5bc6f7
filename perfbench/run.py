#!/usr/bin/env python3
"""Build and run the EDC store benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fin1_store --seed 42 --seconds 10 --trace 0

Workloads: fin1_store, fin2_store, zipf_ring, fin1_sim. `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
The benchmark package (perfbench/) is built from source against the
repository's crates into $CARGO_TARGET_DIR (default `.bench_build`). The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the full report, with the host
fingerprint and per-workload sizes, goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("fin1_store", "fin2_store", "zipf_ring", "fin1_sim")
DEFAULT_SEED = 42  # perfbench/src/main.rs holds the same value and the held-out seed
RUN_TIMEOUT_S = 170


def source_digest(root):
    """SHA-256 over the sources the benchmark builds: the repository's
    crates and manifests plus the benchmark package itself."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "results"))
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for f in ("Cargo.toml", "Cargo.lock", os.path.join("perfbench", "Cargo.toml")):
        files.append(os.path.join(root, f))
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir(os.path.join(root, "crates")):
        print("perfbench: run from the repository root (perfbench/ and crates/ needed)", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join("perfbench", "out"),
        "--source", source_digest(root),
    ]
    # Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
    # rises after large frees, so a later store's device image may come
    # from the heap zeroed (all of it resident) instead of fresh zero
    # pages: peak RSS and set-up time would depend on the order of frees.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        run = subprocess.run(cmd, env=run_env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(run.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return run.returncode or 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

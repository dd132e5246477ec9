#!/usr/bin/env python3
"""Build the benchmark binary from source if needed, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-cifar-rfedavgplus --seed 1 --seconds 30 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory: the Go build cache, the binary and its source stamp, and
the per-round model snapshots of the wire workloads. The exit code is the
benchmark's own; a failed build exits non-zero without printing a result.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = os.path.join(BUILD, "perfbench.stamp")


def source_digest():
    """Hash every Go source and module file the binary is built from."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name.endswith(".s") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def ensure_binary():
    if not os.path.isfile(os.path.join(BENCH_DIR, "go.mod")):
        sys.exit("perfbench: run from the repository root (perfbench/go.mod not found)")
    os.makedirs(BUILD, exist_ok=True)
    digest = source_digest()
    if os.path.isfile(BINARY) and os.path.isfile(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR,
                          env=build_env(), stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed with exit code %d" % proc.returncode)
    with open(STAMP, "w") as f:
        f.write(digest + "\n")


def main():
    ensure_binary()
    workdir = os.path.join(BUILD, "tmp")
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run([BINARY, "-workdir", workdir] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

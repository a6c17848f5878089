#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig1_field --seed 1 --seconds 20 --trace 0

The benchmark is the Rust package next to this file. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), then run from the repository root with the same
arguments plus the run's identity: the rustc version and the source
revision (the git commit when there is one, and always a digest of the
sources). Build output goes to stderr; the benchmark's last stdout line
is its JSON result. The exit code is the build's on a failed build,
else the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must finish well inside the three minutes a run gets.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 900


def source_digest():
    """SHA-256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for d, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            for f in sorted(files):
                paths.append(os.path.relpath(os.path.join(d, f), ROOT))
    for p in paths:
        full = os.path.join(ROOT, p)
        if os.path.isfile(full):
            h.update(p.encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd, **kw):
    """First line of a command's stdout, or "unknown" if it fails."""
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=True, **kw
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.strip().splitlines()[0] if out.strip() else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # Look only at this directory's own repository, never an enclosing one.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    stamps = {
        "rustc": command_output(["rustc", "-V"]).replace(" ", "_"),
        "git_rev": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env),
        "src_digest": source_digest(),
    }
    args = sys.argv[1:]
    for k, v in stamps.items():
        args += ["--stamp", f"{k}={v}"]
    exe = os.path.join(target, "release", "iiot-perfbench")
    try:
        run = subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the daemon and the benchmark, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload session_small --seed 1 --seconds 20 --trace 0

Builds `oblisched-server` from the repository workspace and the benchmark
package next to it (both offline, release profile, into CARGO_TARGET_DIR,
default `.bench_build`), records host and build facts, and hands every
argument to the benchmark binary. The last line of stdout is the JSON
result; build output goes to stderr.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def cargo_build(manifest):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    if manifest == os.path.join(ROOT, "Cargo.toml"):
        cmd += ["-p", "oblisched_server", "--bin", "oblisched-server"]
    return subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the sources that build the daemon and the benchmark."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(BENCH, "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository sources are missing", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    os.environ["CARGO_TARGET_DIR"] = target
    for manifest in (root_manifest, bench_manifest):
        code = cargo_build(manifest)
        if code != 0:
            print(f"perfbench: building {manifest} failed ({code})", file=sys.stderr)
            return code
    env = dict(os.environ)
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "--short=12", "HEAD"])
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "oblisched-server")
    args = [binary, "--server", server, "--out", os.path.join(ROOT, ".bench_out")]
    return subprocess.call(args + sys.argv[1:], cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())

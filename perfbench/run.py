#!/usr/bin/env python3
"""Build `matchd` and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read-mix|edit|cold-start|churn|all \
        --seed N --seconds S --trace 0|1

Both binaries build in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the checkout root). The benchmark writes its snapshot
directories and trace files under `.bench_work/`. Build output goes to
stderr; the benchmark's report goes to stdout and ends with one JSON line.
The exit code is the benchmark's: non-zero when the build fails or an
output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail("build failed: cargo " + " ".join(args))


def commit():
    """The checkout's commit when it is a git repository, else 'unknown'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    for needed in ["Cargo.toml", "crates/serve/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    os.environ["CARGO_TARGET_DIR"] = target

    build(["-p", "wiki-serve", "--bin", "matchd"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])

    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    command = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--matchd",
        os.path.join(target, "release", "matchd"),
        "--work",
        os.path.join(ROOT, ".bench_work"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()

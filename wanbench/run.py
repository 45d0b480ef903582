#!/usr/bin/env python3
"""Build and run the wanplace benchmark (see wanbench/README.md).

    python3 wanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds the
wanplace libraries and the benchmark binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only confirm the build is current. Build output
goes to stderr, so stdout ends with the binary's result line. Traced runs
write their spans under .bench_out/. Exits non-zero, printing no result,
when the build fails (for instance without the wanplace sources).
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def source_digest(root):
    """SHA-256 over the library sources and the benchmark: identifies the
    code a result came from when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (root / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(top.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    """The checked-out commit, read from .git without running git: a loose
    ref, else its line in packed-refs; "unknown" without a .git."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and fields[1] == name:
                return fields[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
    if cache.exists() and home not in cache.read_text():
        shutil.rmtree(build_dir)  # configured from another checkout
    # Compiler scratch files stay inside the build tree too.
    scratch = build_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "wanbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return build_dir / "wanbench"


def main():
    root = Path.cwd()
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    try:
        binary = build(build_root / "wanbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"wanbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [str(binary), *sys.argv[1:],
               "--out-dir", str(root / ".bench_out"),
               "--commit", git_commit(root),
               "--source-digest", source_digest(root)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wanbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

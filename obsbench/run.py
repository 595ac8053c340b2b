#!/usr/bin/env python3
"""Build and run the observatory benchmark.

Run from the repository root:

    python3 obsbench/run.py --workload estate-fanin --seed 1 --seconds 15 --trace 0

The Go program in this directory is built from the repository's source
into the build directory (CARGO_TARGET_DIR if set, else .bench_build),
with the Go build cache kept there too, so the benchmark reads and
writes nothing outside the checkout. The build is skipped when no Go
source or module file changed since the last one. All arguments are
passed to the benchmark binary, which prints the result as its last
line of standard output.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_stamp(root, build_dir):
    """Hash the path, size and mtime of every file the build reads."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and os.path.join(dirpath, d) != build_dir
        )
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                st = os.stat(path)
                h.update(f"{path}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("obsbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build_dir, "obsbench", "obsbench")
    stamp_file = binary + ".stamp"
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    stamp = source_stamp(root, build_dir)
    current = None
    if os.path.exists(binary) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            current = f.read().strip()
    if current != stamp:
        os.makedirs(os.path.dirname(binary), exist_ok=True)
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
        if build.returncode != 0:
            print("obsbench: build failed", file=sys.stderr)
            return 2
        with open(stamp_file, "w") as f:
            f.write(stamp + "\n")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

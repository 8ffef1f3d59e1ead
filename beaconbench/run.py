#!/usr/bin/env python3
"""Build and run the beacon-to-verdict benchmark.

    python3 beaconbench/run.py --workload highway|jam|fanin --seed N \
        --seconds S --trace 0|1
    python3 beaconbench/run.py --selftest

Run from the root of a checkout. The benchmark and the libraries under
src/ are built from source into .bench_build/beaconbench (build output goes
to stderr), then the driver runs and its standard output passes through
unchanged: the last line is the JSON result, printed only when every
correctness gate passed. --selftest builds and runs the benchmark's own
tests instead.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "beaconbench")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def call(args):
    # Build chatter goes to stderr so stdout carries only the benchmark.
    result = subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(args)}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        call(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        call(["cmake", "--build", BUILD, "--target", target, "-j", jobs])


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "beaconbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def fixed_layout():
    """Gives the child (before exec) the same memory layout on every run.

    Randomised heap and stack placement and transparent huge pages each
    moved the set-up time by up to 35% from one process to the next; with
    both off it repeats within 3%.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
        libc.prctl(41, 1, 0, 0, 0)  # PR_SET_THP_DISABLE
    except (OSError, AttributeError):
        pass


def main(argv):
    if argv == ["--selftest"]:
        build(["beaconbench", "beaconbench_tests"])
        return subprocess.run(["ctest", "--output-on-failure"], cwd=BUILD).returncode

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= args.keys():
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    build(["beaconbench"])
    command = [os.path.join(BUILD, "beaconbench"), *argv, "--commit", source_id()]
    if args["--trace"] == "1":
        ledger = f"ledger-{args['--workload']}-{args['--seed']}.jsonl"
        command += ["--ledger-out", os.path.join(BUILD, ledger)]
    sys.stdout.flush()
    return subprocess.run(command, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

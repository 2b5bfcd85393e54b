#!/usr/bin/env python3
"""Mutant kill check: every one-line mutant here must fail a non-golden test.

Each `*.patch` in this directory breaks one rule of the receive path that
a test is meant to pin (see README.md). The driver copies the source tree
to a work directory, configures it once (Release, tests only), and for
each patch: applies it, rebuilds the test binaries, runs ctest without the
golden suites, and reverts the patch. A mutant is *killed* when a test
fails and *survived* when every test passes. The golden suites compare
against recorded outputs, so they detect any change; a mutant only they
catch is not pinned by a check of the rule it breaks.

Usage: run_mutants.py [--work DIR] [--jobs N] [PATCH ...]
(default: every *.patch next to this script; the work directory defaults to
a fresh temporary one and is removed afterwards unless --work is given).

Exit status: 0 all killed, 1 a mutant survived, 2 usage error, a patch
that does not apply, or a mutant that does not build.
"""

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Suites that compare against recorded outputs (tables, footers, traces,
# metrics series) rather than checking a rule.
GOLDEN = ("test_engine_trace", "test_obs_metrics", "test_timing_footer",
          "test_trace_format")
COPY_IGNORE = shutil.ignore_patterns(".git", "build", "build-*",
                                     ".bench_build", "__pycache__")


def run(cmd, cwd, quiet=True):
    out = subprocess.DEVNULL if quiet else None
    return subprocess.run(cmd, cwd=cwd, stdout=out, stderr=out).returncode


def check_mutants(work, patches, jobs):
    src = work / "src"
    shutil.copytree(ROOT, src, ignore=COPY_IGNORE)
    build = work / "build"
    if run(["cmake", "-B", str(build), "-S", str(src), "-G", "Ninja",
            "-DCMAKE_BUILD_TYPE=Release", "-DFTGCS_BUILD_BENCH=OFF",
            "-DFTGCS_BUILD_EXAMPLES=OFF"], src) != 0:
        print("run_mutants: configure failed", file=sys.stderr)
        return 2
    exclude = "^(" + "|".join(GOLDEN) + ")$"
    survived = 0
    for patch in patches:
        if run(["patch", "-p1", "--dry-run", "-i", str(patch)], src) != 0:
            print(f"run_mutants: {patch.name} does not apply", file=sys.stderr)
            return 2
        run(["patch", "-p1", "-i", str(patch)], src)
        try:
            if run(["cmake", "--build", str(build), "-j", str(jobs)],
                   src) != 0:
                print(f"run_mutants: {patch.name} does not build",
                      file=sys.stderr)
                return 2
            passed = run(["ctest", "--test-dir", str(build), "-j", str(jobs),
                          "-E", exclude], src) == 0
        finally:
            run(["patch", "-p1", "-R", "-i", str(patch)], src)
        verdict = "survived" if passed else "killed"
        survived += passed
        print(f"{patch.stem}: {verdict}", flush=True)
    return 1 if survived else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, help="work directory (kept)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("patches", nargs="*", type=Path)
    args = parser.parse_args()
    patches = [p.resolve() for p in args.patches] or sorted(
        HERE.glob("*.patch"))
    if not patches or any(not p.is_file() for p in patches):
        print("run_mutants: no such patch", file=sys.stderr)
        return 2
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=False)
        return check_mutants(args.work.resolve(), patches, args.jobs)
    with tempfile.TemporaryDirectory(prefix="ftgcs-mutants-") as work:
        return check_mutants(Path(work), patches, args.jobs)


if __name__ == "__main__":
    sys.exit(main())

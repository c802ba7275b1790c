"""Compare the benchmark of the work tree with that of a parent revision, in
alternating pairs of runs.

    python3 tools/bench_pairs.py --parent REV [--pairs N] [--seconds S]
        [--workload W ...]

Unpacks REV (from `git archive`) and copies the work tree (the tracked
files and the untracked ones git does not ignore, as they are on disk)
into two sibling temporary directories, `parent` and `change`: their paths
have equal length and hold no `__pycache__`, and the runs set
PYTHONDONTWRITEBYTECODE=1, so none is written.  For each workload (default:
every workload of BENCHMARK.json) it makes N pairs (default 10) of runs of
each side's `mtcbench/run.py --trace 0 --seed 1 --seconds S` (default 30),
alternating which side runs first, and reads each run's last JSON line.
It then prints, per workload and end-to-end metric of BENCHMARK.json, the
median and quartiles of each side and the number of pairs in which the
change was better.  A run that fails stops the comparison with its exit
code and the tail of its stderr.  The temporary directories are removed at
the end.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True,
                          capture_output=True).stdout


def unpack_revision(rev, dest):
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) \
            as tar:
        tar.extractall(dest)


def copy_work_tree(dest):
    """The tracked files and the untracked files that git does not ignore,
    as they are in the work tree; a deleted tracked file is left out."""
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def bench_run(root, workload, seconds):
    """The metrics of the last JSON line of one run of root's run.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "mtcbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py in %s on %s failed (exit %d): %s" % (
            root, workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])["metrics"]


def summary(values):
    """'median [q1-q3]' of the values."""
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else values * 2)
    return "%.6g [%.6g-%.6g]" % (statistics.median(values), q1, q3)


def report(workload, runs, metrics):
    pairs = len(runs["parent"])
    print("%s: %d pairs, parent -> change, median [q1-q3]" % (workload, pairs))
    for name, unit, better in metrics:
        old, new = ([r[name]["value"] for r in runs[s]] for s in SIDES)
        won = sum(1 for a, b in zip(old, new)
                  if (b < a if better == "lower" else b > a))
        print("  %-12s %s -> %s %s; change better in %d of %d" % (
            name, summary(old), summary(new), unit, won, pairs))
    sys.stdout.flush()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    base = tempfile.mkdtemp(prefix="bench_pairs_")
    dirs = {side: os.path.join(base, side) for side in SIDES}
    try:
        unpack_revision(args.parent, dirs["parent"])
        copy_work_tree(dirs["change"])
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for k in range(args.pairs):
                for side in SIDES[::1 if k % 2 == 0 else -1]:
                    print("%s pair %d: %s" % (workload, k + 1, side),
                          file=sys.stderr, flush=True)
                    runs[side].append(bench_run(dirs[side], workload,
                                                args.seconds))
            report(workload, runs, metrics)
    finally:
        shutil.rmtree(base)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
change was better, and each side's tracemalloc peak of one in-process run
of `mtc.cli.main` on the workload's argv from `mtcbench/workloads.prepare`
(mtc imported before tracing starts, so the peak leaves out the import and
the compiling of the modules that `peak_rss_mb` includes).  A run that
fails stops the comparison with its exit code and the tail of its stderr.
The temporary directories are removed at the end.
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
    return json.loads(child(root, [
        os.path.join(root, "mtcbench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]))[
            "metrics"]


# one run of mtc.cli.main on argv (JSON), traced from after the import
TRACED_MAIN = """
import contextlib, io, json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import mtc.cli
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    mtc.cli.main(json.loads(sys.argv[2]))
print(tracemalloc.get_traced_memory()[1])
"""


def child(root, args):
    """The last stdout line of a Python child run in root without writing
    bytecode; a failure stops the comparison."""
    proc = subprocess.run([sys.executable] + args, cwd=root,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s in %s failed (exit %d): %s" % (
            args[0], root, proc.returncode, proc.stderr[-2000:]))
    return lines[-1]


def traced_peak_mb(root, workload, workdir):
    """The tracemalloc peak in MB of one run of root's mtc.cli.main on the
    workload, whose input root's worker.py prepares in workdir in a
    process of its own, so that nothing it caches reaches the run."""
    argv = json.loads(child(root, [
        os.path.join(root, "mtcbench", "worker.py"), "prepare", workload,
        str(SEED), workdir]))["argv"]
    return int(child(root, ["-c", TRACED_MAIN, os.path.join(root, "src"),
                            json.dumps(argv)])) / 2 ** 20


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
            peaks = [traced_peak_mb(dirs[side], workload,
                                    tempfile.mkdtemp(dir=base))
                     for side in SIDES]
            print("  tracemalloc peak of mtc.cli.main, one run: "
                  "%.3f -> %.3f MB" % tuple(peaks))
            sys.stdout.flush()
    finally:
        shutil.rmtree(base)
    return 0


if __name__ == "__main__":
    sys.exit(main())

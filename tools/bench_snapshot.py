"""Record one benchmark snapshot: every workload at --trace 0 and --trace 1.

    python3 tools/bench_snapshot.py [--label LABEL]

Runs `mtcbench/run.py` of this checkout on each workload that
BENCHMARK.json lists, with seed 1, once untraced for 10 s and once traced,
and writes BENCH_<label>.json at the repository root.  The file holds the
last JSON line of each run, with the git HEAD, whether tracked files
differ from it, the Python version and the CPU count of the machine.  The
label defaults to the short HEAD.  A run that fails is recorded with its
exit code and the tail of its stderr, and makes this script exit 1 after
the file is written.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SECONDS = 10.0


def git(*args):
    try:
        return subprocess.run(["git"] + list(args), cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "mtcbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    head = git("rev-parse", "HEAD")
    # tracked files edited since HEAD: the snapshot is of the work tree
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    label = args.label or (head[:7] if head else "nohead")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        workloads = [w["name"] for w in json.load(fp)["workloads"]]
    runs = {}
    for name in workloads:
        for trace in (0, 1):
            key = "%s/trace%d" % (name, trace)
            print("running %s" % key, file=sys.stderr, flush=True)
            runs[key] = bench_run(name, SEED, SECONDS, trace)
    snapshot = {"label": label, "git_head": head, "git_dirty": dirty,
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(), "seed": SEED,
                "seconds": SECONDS, "runs": runs}
    path = os.path.join(ROOT, "BENCH_%s.json" % label)
    with open(path, "w") as fp:
        json.dump(snapshot, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(path)
    return 1 if any("exit" in r for r in runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

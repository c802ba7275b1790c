"""Benchmark of the mtc command: time to a verdict, one operation at a time.

    python3 mtcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client, as for a single user of an
exact CAS: each operation is one `mtc` command with `--format json`, run in
a fresh worker process with MTC_THREADS removed from its environment, and
the next starts when it has ended.  Set-up writes the workload's algebra
with its basis permuted by the seed and checks its Hopf axioms.  Each
worker times its own `import mtc.cli`, the set-up every CLI call pays.
Every output is scored against the mathematics (workloads.py).

With --trace 0 the run repeats the operation for S seconds and reports the
end-to-end metrics.  With --trace 1 it runs the operation once untraced
and twice traced, checks that the two traced runs made identical counts,
and reports the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".mtcbench_work")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, score  # noqa: E402

RUN_LIMIT_S = 170.0   # a run must end within 180 s

# `mtc verify` stage timer -> metric cli.stage.<key>_s
STAGES = {"axioms": "axioms", "simples": "simples",
          "category structure": "category_structure", "coend": "coend",
          "integrals": "integrals", "S/T": "s_t", "characters": "characters",
          "cutting": "cutting", "cardy": "cardy"}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
              ("agree_share", "ratio")]


class WorkerError(RuntimeError):
    pass


def worker(args, deadline):
    """Run worker.py with args; return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "MTC_THREADS"}
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker %s exceeded the run's time limit" % args[0])
    if proc.returncode != 0:
        raise WorkerError("worker %s failed (exit %d): %s" % (
            args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_probe():
    """A fixed pure-Python loop: a diagnostic of host speed, never used to
    correct a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200000):
        x += i * i
    return time.perf_counter() - t0


def steal_ticks():
    """Steal ticks of all CPUs from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as fp:
            return int(fp.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(values) * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    s = sorted(values)
    return best, s[max(0, math.ceil(len(s) * best / 100) - 1)]


def describe(name, values, unit):
    lo, hi = quartiles(values)
    t = tail(values)
    return "%-16s median %.6g %s  n=%d  q1 %.6g  q3 %.6g  %s" % (
        name, statistics.median(values), unit, len(values), lo, hi,
        "p%g %.6g" % t if t else "no tail percentile (n < 20)")


class Run:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.ops = []

    def op(self, argv, spans_path=None):
        """One operation, scored; prints its record line."""
        probe = speed_probe()
        s0 = steal_ticks()
        args = ["op", json.dumps(argv)] + ([spans_path] if spans_path else [])
        r = worker(args, self.deadline)
        s1 = steal_ticks()
        sc = score(self.workload, r["exit"], r["stdout"], r["stderr"])
        wrong = list(sc.wrong)
        first = self.ops[0]["digest"] if self.ops else r["digest"]
        if r["digest"] != first:
            wrong.append("output digest %s differs from the run's first (%s)"
                         % (r["digest"], first))
        r.update(score=sc, wrong=wrong, probe_s=probe, traced=bool(spans_path),
                 steal=(s1 - s0) if s0 is not None and s1 is not None else None)
        self.ops.append(r)
        print("op %d workload=%s seed=%d traced=%d exit=%d ok=%s "
              "import_s=%.4f wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f "
              "agree=%d/%d known_defects=%d digest=%s probe_ms=%.2f "
              "steal_ticks=%s" % (
                  len(self.ops), self.workload, self.seed, r["traced"],
                  r["exit"], "no" if wrong else "yes", r["import_s"],
                  r["wall_s"], r["cpu_s"], r["peak_rss_mb"], sc.agree,
                  sc.scored, len(sc.known), r["digest"], probe * 1e3,
                  r["steal"]), flush=True)
        for w in wrong:
            print("  wrong: %s" % w, flush=True)
        return r

    @property
    def failed(self):
        return sum(1 for r in self.ops if r["wrong"])


def end_to_end(run):
    ops = run.ops
    scored = sum(r["score"].scored for r in ops)
    agree = sum(r["score"].agree for r in ops)
    values = {
        "setup_s": [r["import_s"] for r in ops],
        "wall_s": [r["wall_s"] for r in ops],
        "cpu_s": [r["cpu_s"] for r in ops],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ops],
    }
    units = dict(END_TO_END)
    for name, vals in values.items():
        print(describe(name, vals, units[name]) + "  seed=%d" % run.seed)
    failed_share = run.failed / len(ops)
    print("failed_share     %.6g (%d of %d operations wrong)  seed=%d"
          % (failed_share, run.failed, len(ops), run.seed))
    print("defect_share     %.6g (%d of %d checks differ from the mathematics,"
          " %d of them known defects)  seed=%d"
          % ((scored - agree) / scored if scored else 0.0, scored - agree,
             scored, sum(len(r["score"].known) for r in ops), run.seed))
    probes = [r["probe_s"] * 1e3 for r in ops]
    steals = [r["steal"] for r in ops if r["steal"] is not None]
    print("machine probe    median %.3f ms (min %.3f, max %.3f), steal ticks "
          "%s (diagnostic only)" % (statistics.median(probes), min(probes),
                                    max(probes), sum(steals) if steals else "n/a"))
    metrics = {name: statistics.median(vals) for name, vals in values.items()}
    metrics["ok_share"] = 1.0 - failed_share
    metrics["agree_share"] = agree / scored if scored else 0.0
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(run):
    base = run.ops[0]
    traced = [r for r in run.ops if r["traced"]]
    if traced[0]["counts"] != traced[1]["counts"]:
        diff = sorted(k for k in traced[0]["counts"]
                      if traced[0]["counts"][k] != traced[1]["counts"].get(k))
        traced[1]["wrong"].append("traced counts differ between two "
                                  "operations: %s" % ", ".join(diff[:10]))
        print("  wrong: %s" % traced[1]["wrong"][-1])
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(r["layers"][name][0] for r in traced),
                         unit)
    stage_s = dict.fromkeys(STAGES.values(), 0.0)
    timed = 0.0
    for name, dt in base["stages"]:
        timed += dt
        if name in STAGES:
            stage_s[STAGES[name]] += dt
        else:
            print("cli stage %r (not a benchmark metric) %.6g s" % (name, dt))
    for key, dt in stage_s.items():
        metrics["cli.stage.%s_s" % key] = (dt, "s")
    metrics["cli.untimed_s"] = (base["wall_s"] - timed, "s")
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced) / base["wall_s"],
        "ratio")
    for name, (value, unit) in metrics.items():
        note = "" if value else "  (zero: not reached by this command)"
        print("%-40s %.6g %s%s  seed=%d" % (name, value, unit, note, run.seed))
    print("trace base: untraced wall_s %.4f; spans written to %s"
          % (base["wall_s"], os.path.relpath(WORK, ROOT)))
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "mtc", "cli.py")):
        print("error: %s has no src/mtc to benchmark" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run = Run(args.workload, args.seed, start + RUN_LIMIT_S)
    try:
        argv = worker(["prepare", args.workload, str(args.seed), WORK],
                      run.deadline)["argv"]
        print("setup workload=%s seed=%d argv=%s took %.2f s" % (
            args.workload, args.seed, " ".join(argv),
            time.perf_counter() - start), flush=True)
        if args.trace:
            run.op(argv)
            for k in (1, 2):
                run.op(argv, os.path.join(
                    WORK, "spans_%s_%d.json" % (args.workload, k)))
            metrics = per_layer(run)
        else:
            t0 = time.perf_counter()
            while not run.ops or time.perf_counter() - t0 < args.seconds:
                run.op(argv)
            metrics = end_to_end(run)
    except WorkerError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    result = {"correct": run.failed == 0, "attempted": len(run.ops),
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark step in a fresh process, so that nothing cached inside mtc
carries over from one operation to the next.

    python3 worker.py prepare NAME SEED DIR
                                          write the seeded algebra file
    python3 worker.py op ARGV_JSON [SPANS_PATH]
                                          time `import mtc.cli`, then run
                                          mtc.cli.main(argv) once, traced
                                          when SPANS_PATH is given

Each prints one JSON object on its last stdout line.  mtc is imported from
the src/ directory next to this benchmark, never from site-packages.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_cli():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mtc.cli
    dt = time.perf_counter() - t0
    if not os.path.abspath(mtc.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("mtc imported from %s, not %s"
                         % (mtc.cli.__file__, SRC))
    return mtc.cli, dt


def run_op(argv, spans_path=None):
    cli, import_s = _import_cli()
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer().install()
    # The stage timers live on the verify report; keep it to read them.
    reports = []
    run_suite = cli.run_suite

    def keep_report(config):
        rep = run_suite(config)
        reports.append(rep)
        return rep
    cli.run_suite = keep_report

    out, err = io.StringIO(), io.StringIO()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            # A crash is a wrong operation, scored by run.py.
            code = -1
            traceback.print_exc()
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cli.run_suite = run_suite
    result = {
        "exit": code,
        "import_s": import_s,
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "digest": hashlib.sha256(
            ("%d\0%s\0%s" % (code, out.getvalue(), err.getvalue())).encode()
        ).hexdigest()[:16],
        "stages": [[name, dt] for rep in reports for name, dt in rep.timings],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["counts"] = tracer.counts_only()
        tracer.write_spans(spans_path)
    return result


def main(args):
    mode = args[0]
    if mode == "prepare":
        _import_cli()
        from workloads import prepare
        result = {"argv": prepare(args[1], int(args[2]), args[3])}
    elif mode == "op":
        result = run_op(json.loads(args[1]), args[2] if len(args) > 2 else None)
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

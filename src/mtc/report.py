"""Check reports: named pass/fail/skip entries with optional witness data,
in deterministic order."""

import time


PASS, FAIL, SKIP = "pass", "fail", "skip"


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []  # (name, status, witness)
        self.timings = []  # (name, seconds) kept apart from the data payload

    def add(self, name, ok, witness=None):
        self.checks.append((name, PASS if ok else FAIL, witness))
        return ok

    def skip(self, name, witness=None):
        self.checks.append((name, SKIP, witness))

    def merge(self, other):
        self.checks.extend(other.checks)
        self.timings.extend(other.timings)

    def timed(self, name):
        return _Timer(self, name)

    @property
    def ok(self):
        return all(st != FAIL for _, st, _ in self.checks)

    def failures(self):
        return [(n, w) for n, st, w in self.checks if st == FAIL]

    def __str__(self):
        lines = []
        for n, st, w in self.checks:
            line = "%-4s %s" % (st.upper(), n)
            if w is not None and st == FAIL:
                line += "  [%s]" % w
            lines.append(line)
        return "\n".join(lines)


class _Timer:
    def __init__(self, report, name):
        self.report = report
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.timings.append((self.name, time.perf_counter() - self.t0))
        return False

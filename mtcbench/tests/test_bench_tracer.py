"""Guards of the benchmark's tracer and scorer.

    python3 -m pytest mtcbench/tests -q
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

import mtc  # noqa: E402
import mtc.cli  # noqa: E402
from mtc import linalg, repcat  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402

DZ2_VERIFY = ["verify", "--builtin", "double_z2", "--ribbon", "3",
              "--format", "json"]
ORIGINAL_KRON = linalg.kron


@pytest.fixture
def tracer():
    t = Tracer().install()
    yield t
    t.uninstall()


def test_every_binding_is_patched(tracer):
    kron = linalg.kron
    assert repcat.kron is kron and mtc.kron is kron
    assert kron is not ORIGINAL_KRON
    f = mtc.CycField(1)
    m = linalg.Matrix.identity(f, 2)
    repcat.kron(m, m)
    mtc.kron(m, m)
    assert sum(1 for rec in tracer.spans if rec[0] == "linalg.kron") == 2


def test_uninstall_restores_originals():
    before = (linalg.kron, repcat.kron, linalg.Matrix.__mul__,
              mtc.scalars.Scalar.__init__)
    t = Tracer().install()
    assert linalg.kron is not before[0]
    t.uninstall()
    assert (linalg.kron, repcat.kron, linalg.Matrix.__mul__,
            mtc.scalars.Scalar.__init__) == before


def test_missed_binding_fails_loudly():
    # A container holding the original is a binding install cannot patch.
    extra = types.ModuleType("mtc._hidden_binding")
    extra.TABLE = (linalg.kron,)
    sys.modules[extra.__name__] = extra
    try:
        with pytest.raises(TracerError, match="mtc._hidden_binding.TABLE"):
            Tracer().install()
    finally:
        del sys.modules[extra.__name__]
    assert linalg.kron is extra.TABLE[0]  # install rolled back


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.delattr(repcat, "generating_indices")
    with pytest.raises(TracerError, match="repcat.generating_indices"):
        Tracer().install()


def test_one_span_stack_per_thread(tracer):
    # verify runs the snake checks in a ThreadPoolExecutor worker.
    with contextlib.redirect_stdout(io.StringIO()):
        assert mtc.cli.main(DZ2_VERIFY) == 0
    main = threading.get_ident()
    threads = {rec[4] for rec in tracer.spans}
    assert main in threads and len(threads) > 1
    for rec in tracer.spans:
        parent = rec[3]
        assert parent is None or parent[4] == rec[4]
        assert parent is None or parent[1] <= rec[1] <= rec[2] <= parent[2]
    roots = [rec[0] for rec in tracer.spans if rec[3] is None and rec[4] == main]
    assert roots == ["cli.main"]


def test_two_traced_operations_give_identical_counts(tmp_path):
    counts = []
    for k in range(2):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), "op",
             json.dumps(DZ2_VERIFY), str(tmp_path / ("spans%d.json" % k))],
            capture_output=True, text=True, check=True, cwd=tmp_path)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["exit"] == 0
        counts.append(result["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["scalars.Scalar.__init__"] > 0


def test_self_time_excludes_children(tracer):
    f = mtc.CycField(1)
    a = linalg.Matrix.identity(f, 3)
    linalg.solve_right(a, a)
    summary = tracer.summary()
    total = sum(rec[2] - rec[1] for rec in tracer.spans if rec[3] is None)
    assert summary["linalg.self_s"][0] == pytest.approx(total, rel=1e-9)
    assert summary["linalg.elim.calls"][0] == 1
    assert summary["linalg.elim.pivot_ratio"][0] == 1.0


def test_incremental_span_counts_as_elimination(tracer):
    f = mtc.CycField(1)
    span = linalg.IncrementalSpan(f, 3)
    col = linalg.Matrix.from_rows(f, [[f.one()], [f.one()], [f.zero()]])
    assert span.add(col)
    assert span.contains(col)
    summary = tracer.summary()
    # two vectors entered, one pivot found; the second reduced against one
    # held row: cells (0 + 1) * 3 + (1 + 1) * 3, nnz 2 + (2 + 2)
    assert summary["linalg.elim.calls"][0] == 2
    assert summary["linalg.elim.cells"][0] == 9
    assert summary["linalg.elim.nnz"][0] == 6
    assert summary["linalg.elim.max_cells"][0] == 6
    assert summary["linalg.elim.pivot_ratio"][0] == 0.5
    assert summary["linalg.elim.self_s"][0] > 0


def test_subtraction_counts_as_addition(tracer):
    f = mtc.CycField(1)
    a, b = f.one(), f.from_rational(2)
    before = tracer.summary()["scalars.add"][0]
    a - b
    -a
    0 + a
    assert tracer.summary()["scalars.add"][0] - before == 2 + 1 + 1


# -- scoring -------------------------------------------------------------

def _verify_payload(statuses):
    return json.dumps({"checks": [{"name": n, "status": s}
                                  for n, s in statuses.items()]})


def test_known_defect_is_not_wrong():
    got = dict(workloads.DZ3_CHECKS)
    got["cardy certificates"] = "fail"
    s = workloads.score("dz3_verify", 1, _verify_payload(got), "")
    assert s.ok and s.known == ["cardy certificates"]
    assert (s.agree, s.scored) == (36, 37)


def test_unknown_defect_is_wrong():
    got = dict(workloads.DZ3_CHECKS)
    got["snake identities"] = "fail"
    assert not workloads.score("dz3_verify", 1, _verify_payload(got), "").ok


def test_fixed_defect_counts_as_agreement():
    s = workloads.score("dz3_verify", 0,
                        _verify_payload(workloads.DZ3_CHECKS), "")
    assert s.ok and (s.agree, s.scored) == (37, 37)


def test_missing_ribbon_is_the_mathematics():
    s = workloads.score("dsweedler_verify", 1,
                        _verify_payload(workloads.DSWEEDLER_CHECKS), "")
    assert s.ok and s.agree == s.scored == 25
    got = dict(workloads.DSWEEDLER_CHECKS, **{"ribbon element": "pass"})
    assert not workloads.score("dsweedler_verify", 0,
                               _verify_payload(got), "").ok


def _modular_payload(t_diag):
    def diag(entry):
        return {"rows": 16, "cols": 16,
                "entries": [[i, i, entry] for i in range(16)]}
    unit = {"rows": 16, "cols": 1, "entries": [[0, 0, "1"]]}
    return json.dumps({"modular": True, "S": diag("1"), "T": diag(t_diag),
                       "lambda": unit, "Lambda": unit,
                       "sl2z_scalars": {"st3_vs_s2": "1", "s4_vs_id": "1"}})


def test_modular_data_payload_is_checked_exactly():
    s = workloads.score("dz4_modular_data", 0, _modular_payload("z"), "")
    assert s.ok and s.agree == s.scored == 5
    s = workloads.score("dz4_modular_data", 0, _modular_payload("2"), "")
    assert s.wrong == ["T^4 = id: fail, expected pass"]


def test_modular_data_exit_3_is_scored_line_by_line():
    report = ("internal inconsistency: S/T verification failed:\n"
              "PASS S_transform invertible\n"
              "FAIL (S T)^3 proportional to S^2 on Hom(L,1)  [no scalar]\n")
    s = workloads.score("dz4_modular_data", 3, "", report)
    assert s.ok and (s.agree, s.scored) == (1, 2)
    s = workloads.score("dz4_modular_data", 3, "",
                        report.replace("PASS S_", "FAIL S_"))
    assert not s.ok


def test_permuted_spec_is_a_hopf_algebra(tmp_path):
    argv = workloads.prepare("dz4_modular_data", 5, str(tmp_path))
    h = mtc.load_algebra(argv[argv.index("--algebra") + 1])
    assert mtc.verify_hopf_axioms(h).ok
    assert argv[-2] == "--ribbon"
    assert workloads.permutation(16, 5) != list(range(16))


def test_seed_gives_the_inputs(tmp_path):
    texts = []
    for run, seed in (("a", 7), ("b", 7), ("c", 8)):
        os.mkdir(tmp_path / run)
        a = workloads.prepare("dz3_verify", seed, str(tmp_path / run))
        texts.append(open(a[a.index("--algebra") + 1]).read())
    assert texts[0] == texts[1] != texts[2]


def test_exact_field():
    assert exact.cyclotomic(4) == [1, 0, 1]
    assert exact.cyclotomic(6) == [1, -1, 1]
    f = exact.Field(4)
    assert f.parse("z^2") == f.parse("-1")
    assert f.mul(f.parse("z"), f.parse("-z")) == f.one
    assert f.parse("1/2*z^3-2") == f.parse("-2-1/2*z")

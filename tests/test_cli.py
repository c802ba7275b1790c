import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from mtc import hopf, repcat
from mtc.cli import (main, emit, UsageError, EXIT_OK, EXIT_CHECK_FAILED,
                     EXIT_USAGE, _structural_checks)
from mtc.coend import CoendError
from mtc.report import Report
from oracles import structural_checks_oracle


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_modular_passes(capsys):
    code, out, err = run_cli(["verify", "--builtin", "double_z2",
                              "--ribbon", "3", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["status"] != "fail" for c in payload["checks"])


def test_verify_nonmodular_fails_and_skips(capsys):
    code, out, err = run_cli(["verify", "--builtin", "group_algebra",
                              "--param", "orders=2", "--format", "json"], capsys)
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    stat = {c["name"]: c["status"] for c in payload["checks"]}
    assert stat["modularity (omega non-degenerate)"] == "fail"
    assert stat["cardy certificates"] == "skip"


def test_verify_nonmodular_still_normalizes_the_integrals(capsys):
    """k[Z/3] with the trivial R-matrix is not modular; its integrals are
    solved and normalized all the same."""
    code, out, err = run_cli(["verify", "--builtin", "group_algebra",
                              "--param", "orders=3", "--format", "json"], capsys)
    assert code == EXIT_CHECK_FAILED
    stat = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert stat["modularity (omega non-degenerate)"] == "fail"
    assert stat["integrals normalized (lambda Lambda = 1)"] == "pass"


def _raise_coend_error(*args):
    raise CoendError("injected")


@pytest.mark.parametrize("stage, failed, skipped", [
    ("solve_structure_morphisms", "structure solve",
     ["integrals", "modularity", "S/T transforms", "characters", "cutting",
      "cardy certificates"]),
    ("s_t_transforms", "S/T transforms",
     ["characters", "cutting", "cardy certificates"]),
])
def test_verify_lists_the_stages_after_a_coend_error(stage, failed, skipped,
                                                      capsys, monkeypatch):
    """A CoendError in the structure solve or in the S/T transforms fails
    that stage and reports every later stage as skipped."""
    monkeypatch.setattr("mtc.coend." + stage, _raise_coend_error)
    code, out, err = run_cli(["verify", "--builtin", "double_z2",
                              "--ribbon", "3", "--format", "json"], capsys)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    checks = json.loads(out)["checks"]
    names = [c["name"] for c in checks]
    tail = checks[names.index(failed):]
    assert [(c["name"], c["status"], c["witness"]) for c in tail] == \
        [(failed, "fail", "injected")] + \
        [(name, "skip", failed + " failed") for name in skipped]


@pytest.mark.parametrize("ribbon", [["--ribbon", "9"], []])
def test_verify_bad_ribbon_choice_is_usage_error(ribbon, capsys):
    """D(Z/2) has four ribbon elements: an index out of range, or none
    picked, is a usage error for verify as for modular-data."""
    code, out, err = run_cli(["verify", "--builtin", "double_z2"] + ribbon +
                             ["--format", "json"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ribbon" in err


def test_verify_trivial_algebra(capsys):
    code, out, err = run_cli(["verify", "--builtin", "trivial",
                              "--format", "json"], capsys)
    assert code == EXIT_OK


def test_verify_checks_the_hopf_axioms_once(capsys, monkeypatch):
    calls = []
    verify = hopf.verify_hopf_axioms
    monkeypatch.setattr(hopf, "verify_hopf_axioms",
                        lambda h: calls.append(h) or verify(h))
    code, out, err = run_cli(["verify", "--builtin", "double_sweedler",
                              "--format", "json"], capsys)
    assert code == EXIT_CHECK_FAILED  # D(Sweedler) has no ribbon element
    assert len(calls) == 1
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names[:8] == [name for name, _, _ in hopf.HOPF_AXIOMS] + \
        ["rmatrix present"]


def test_usage_errors(capsys):
    code, out, err = run_cli(["verify"], capsys)
    assert code == EXIT_USAGE
    code, out, err = run_cli(["verify", "--builtin", "double_z2",
                              "--algebra", "x.json"], capsys)
    assert code == EXIT_USAGE
    # several ribbon elements, none picked
    code, out, err = run_cli(["modular-data", "--builtin", "double_z2"], capsys)
    assert code == EXIT_USAGE
    assert "ribbon" in err
    code, out, err = run_cli(["modular-data", "--builtin", "double_z2",
                              "--ribbon", "99"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("builtin, param, valid_range", [
    ("taft", "n=abc", "integer n >= 2"),
    ("taft", "n=1", "integer n >= 2"),
    ("taft", "n=0", "integer n >= 2"),
    ("double_group_algebra", "orders=0", "integers >= 1"),
    ("group_algebra", "orders=-2", "integers >= 1"),
    ("group_algebra", "orders=2,abc", "integers >= 1"),
    # a key the builtin does not read
    ("taft", "m=5", "unread key m (taft takes only n)"),
    ("taft", "orders=5", "unread key orders (taft takes only n)"),
    ("double_group_algebra", "n=3", "double_group_algebra takes only orders"),
    ("sweedler", "n=7", "unread key n (sweedler takes no parameter)"),
])
def test_bad_param_is_usage_error(builtin, param, valid_range, capsys):
    code, out, err = run_cli(["verify", "--builtin", builtin,
                              "--param", param, "--format", "json"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: bad --param for %s: " % builtin)
    assert valid_range in err


@pytest.mark.parametrize("command", ["cartan", "verify"])
def test_unknown_builtin_is_usage_error(command, capsys):
    code, out, err = run_cli([command, "--builtin", "nope", "--format",
                              "json"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: unknown builtin 'nope': expected one of ")
    assert all(name in err for name in hopf.BUILTIN_NAMES)


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cardy_sf_needs_a_pair_before_loading(n, capsys, monkeypatch):
    monkeypatch.setattr(hopf, "builtin", lambda *a: pytest.fail("loaded"))
    code, out, err = run_cli(["cardy", "sf", "--N", n, "--builtin",
                              "double_z2", "--ribbon", "3"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: --N must be >= 1, got %s\n" % n)


def test_cardy_sf_reads_no_algebra(capsys, monkeypatch):
    """The symplectic-fermion algebra depends on N alone, so an algebra
    with no ribbon element gives the same payload as the trivial one."""
    monkeypatch.setattr(hopf, "builtin", lambda *a: pytest.fail("loaded"))
    outs = []
    for name in ["trivial", "double_sweedler"]:
        code, out, err = run_cli(["cardy", "sf", "--N", "2", "--builtin", name,
                                  "--format", "json"], capsys)
        assert (code, err) == (EXIT_OK, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["N"] == 2


@pytest.mark.parametrize("spec", [None, {"dim": "x"}])
def test_verify_on_an_unreadable_or_malformed_spec_is_usage_error(
        spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    code, out, err = run_cli(["verify", "--algebra", str(path),
                              "--format", "json"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_no_ribbon_is_check_failure(capsys):
    code, out, err = run_cli(["modular-data", "--builtin", "double_sweedler"],
                             capsys)
    assert code == EXIT_CHECK_FAILED
    assert "no ribbon element" in err


def test_missing_rmatrix_is_check_failure(capsys):
    code, out, err = run_cli(["verify", "--builtin", "taft", "--param", "n=3",
                              "--format", "json"], capsys)
    assert code == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["ribbon element"]["status"] == "fail"
    assert "no R-matrix" in checks["ribbon element"]["witness"]
    assert checks["cardy certificates"]["status"] == "skip"
    for cmd in (["modular-data"], ["cardy", "torus"]):
        code, out, err = run_cli(cmd + ["--builtin", "taft", "--param", "n=3"],
                                 capsys)
        assert code == EXIT_CHECK_FAILED
        assert "taft(3) has no R-matrix" in err


def test_bad_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ definitely not json")
    code, out, err = run_cli(["simples", "--algebra", str(p)], capsys)
    assert code == EXIT_USAGE
    d = hopf.to_json_dict(hopf.sweedler())
    del d["comult"]
    p.write_text(json.dumps(d))
    code, out, err = run_cli(["simples", "--algebra", str(p)], capsys)
    assert code == EXIT_USAGE
    assert "comult" in err


@pytest.mark.parametrize("args", [
    ["modular-data", "--builtin", "group_algebra", "--param", "orders=2"],
    ["modular-data", "--builtin", "sweedler"],
])
def test_non_modular_input_is_check_failure(args, capsys):
    code, out, err = run_cli(args + ["--format", "json"], capsys)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    assert json.loads(out)["modular"] is False
    code, out, err = run_cli(["cardy", "defect", "--all-pairs"] + args[1:],
                             capsys)
    assert (code, out) == (EXIT_CHECK_FAILED, "")
    assert err.startswith("error: the Hopf pairing omega") \
        and err.count("\n") == 1


@pytest.mark.parametrize("args, cartan", [
    (["--builtin", "double_z2", "--ribbon", "3"], None),
    (["--builtin", "sweedler"], [[1, 1], [1, 1]]),
    (["--builtin", "group_algebra", "--param", "orders=2"], [[1, 0], [0, 1]]),
])
def test_cardy_torus_builds_only_the_carrier(args, cartan, capsys,
                                             monkeypatch):
    """The torus certificate reads the coend's carrier and iota alone, so
    it runs without build_full and also on a non-modular input."""
    def no_build(h):
        raise AssertionError("build_full was called")
    monkeypatch.setattr("mtc.coend.build_full", no_build)
    code, out, err = run_cli(["cardy", "torus"] + args + ["--format", "json"],
                             capsys)
    assert (code, err) == (EXIT_OK, "")
    if cartan is None:
        assert out == (GOLDEN / "cardy-torus_double_z2_ribbon3.json").read_text()
    payload = json.loads(out)
    assert cartan is None or payload["cartan"] == cartan
    checks = {c["name"]: c["status"] for c in payload["certificate"]}
    assert checks["coend carrier cocharacter computed"] == "pass"
    assert set(checks.values()) == {"pass"}


def _spec_file(tmp_path, d):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.mark.parametrize("builtin, params, failed", [
    ("group_algebra", [3], "eps(v) = 1"),      # e_0 = 1
    ("double_z2", None, "v invertible"),       # e_0 = delta_1 (x) 1, idempotent
])
def test_declared_ribbon_element_is_checked(builtin, params, failed, tmp_path,
                                            capsys):
    """A declared v = 2 e_0 is no ribbon element: "ribbon element" fails
    with the failed identities, and the ribbon stages are skipped."""
    d = hopf.to_json_dict(hopf.builtin(builtin, params))
    d["ribbon"] = [[0, "2"]]
    path = _spec_file(tmp_path, d)
    code, out, err = run_cli(["verify", "--algebra", path, "--format", "json"],
                             capsys)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["ribbon element"]["status"] == "fail"
    assert checks["ribbon element"]["witness"].startswith(
        "declared ribbon element fails:")
    assert failed in checks["ribbon element"]["witness"]
    assert "twist of a product" not in checks
    assert checks["coend build"]["status"] == "skip"
    code, out, err = run_cli(["modular-data", "--algebra", path], capsys)
    assert (code, out) == (EXIT_CHECK_FAILED, "")
    assert err.startswith("error: declared ribbon element fails:")


# cyclotomic orders that are not integers >= 1: they used to reach an
# assert (exit 3 with an empty message) or be truncated and accepted, as
# fractional indices were
BAD_ORDERS = {"cyclotomic order 0": 0, "negative cyclotomic order": -3,
              "fractional cyclotomic order": 2.5}


def _malformed_case(case, tmp_path):
    """The argv of one malformed-input case."""
    none = str(tmp_path / "none.json")
    spec = hopf.to_json_dict(hopf.builtin("double_z2"))
    if case == "missing algebra file":
        return ["cartan", "--algebra", none]
    if case == "dim not an integer":
        spec["dim"] = "x"
        return ["cartan", "--algebra", _spec_file(tmp_path, spec)]
    if case == "bad scalar literal":
        spec["mult"][0][-1] = "1+"
        return ["cartan", "--algebra", _spec_file(tmp_path, spec)]
    if case in BAD_ORDERS:
        spec["scalar"]["cyclotomic_order"] = BAD_ORDERS[case]
        return ["cartan", "--algebra", _spec_file(tmp_path, spec)]
    if case == "fractional index":
        spec["mult"][1][0] = 0.5
        return ["cartan", "--algebra", _spec_file(tmp_path, spec)]
    if case == "dim 0":
        spec.update(dim=0, basis=[], mult=[], unit=[], comult=[], counit=[],
                    antipode=[], rmatrix=[])
        return ["cartan", "--algebra", _spec_file(tmp_path, spec)]
    module = repcat.module_to_json_dict(
        repcat.trivial_module(hopf.builtin("double_z2")))
    bind = ["diagram", "eval", "--builtin", "double_z2", "--expr", "id(X)",
            "--bind"]
    if case == "missing module file":
        return bind + ["X=" + none]
    if case == "negative module dim":
        module.update(dim=-1, action=[])
    elif case == "fractional action index":
        module["action"][0][1] = 0.5
    else:
        assert case == "action index out of range"
        module["action"].append([99, 0, 0, "1"])
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    return bind + ["X=%s" % path]


@pytest.mark.parametrize("case", [
    "missing algebra file", "dim not an integer", "bad scalar literal",
    "missing module file", "action index out of range", *BAD_ORDERS,
    "dim 0", "negative module dim", "fractional index",
    "fractional action index"])
def test_malformed_file_is_one_usage_error_line(case, tmp_path, capsys):
    code, out, err = run_cli(_malformed_case(case, tmp_path), capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deterministic_output(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, out, err = run_cli(["modular-data", "--builtin", "double_z2",
                                  "--ribbon", "3", "--format", "json"], capsys)
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_formats(tmp_path, capsys):
    code, out, err = run_cli(["cartan", "--builtin", "sweedler",
                              "--format", "json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["cartan"] == [[1, 1], [1, 1]]
    code, out, err = run_cli(["cartan", "--builtin", "sweedler",
                              "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert "cartan" in out and "\r\n" in out
    code, out, err = run_cli(["cartan", "--builtin", "sweedler",
                              "--format", "text"], capsys)
    assert code == EXIT_OK
    path = tmp_path / "out.json"
    code, _, _ = run_cli(["cartan", "--builtin", "sweedler", "--format",
                          "json", "--out", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(path.read_text())["cartan"] == [[1, 1], [1, 1]]


def test_simples_and_fusion(capsys):
    code, out, err = run_cli(["simples", "--builtin", "double_sweedler",
                              "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["simple_dims"] == [1, 1, 2, 2]
    assert payload["projective_dims"] == [4, 4, 2, 2]
    code, out, err = run_cli(["fusion", "--builtin", "double_z2",
                              "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["basis"]) == 4


def test_modular_data_payload(capsys):
    code, out, err = run_cli(["modular-data", "--builtin", "double_z2",
                              "--ribbon", "3", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["modular"] is True
    assert payload["zeta"] == "1"
    assert payload["S"]["rows"] == 4


def test_diagram_eval_cli(tmp_path, capsys):
    h = hopf.drinfeld_double(hopf.group_algebra([2]))
    sd = repcat.simples_data(h)
    mpath = tmp_path / "s1.json"
    repcat.save_module(sd.simples[1], str(mpath))
    code, out, err = run_cli(
        ["diagram", "eval", "--builtin", "double_z2",
         "--bind", "X=%s" % mpath,
         "--expr", "(coev(X) * id(X)) ; (id(X) * ev(X))",
         "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["matrix"]["entries"] == [[0, 0, "1"]]
    code, out, err = run_cli(
        ["diagram", "eval", "--builtin", "double_z2",
         "--bind", "X=%s" % mpath, "--expr", "ev(X) ; ev(X)"], capsys)
    assert code == EXIT_USAGE
    # a braiding needs an R-matrix, and taft(3) has none
    tpath = tmp_path / "one.json"
    repcat.save_module(repcat.trivial_module(hopf.taft(3)), str(tpath))
    code, out, err = run_cli(
        ["diagram", "eval", "--builtin", "taft", "--param", "n=3",
         "--bind", "X=%s" % tpath, "--expr", "br(X, X)"], capsys)
    assert code == EXIT_USAGE and "br needs an R-matrix" in err
    # the ribbon element is chosen from the parsed word, whatever its spacing
    outs = []
    for expr in ["tw(X)", "tw (X)", " twinv\n(X)", "evt (X)", "coevt ( X )"]:
        code, out, err = run_cli(
            ["diagram", "eval", "--builtin", "double_z2", "--ribbon", "3",
             "--bind", "X=%s" % mpath, "--expr", expr, "--format", "json"],
            capsys)
        assert (code, err) == (EXIT_OK, ""), expr
        outs.append(json.loads(out)["matrix"])
    assert outs[1] == outs[0]


def test_unknown_object_is_usage_error(capsys):
    base = ["--builtin", "double_z2", "--ribbon", "3", "--format", "json"]
    for name in ["S99", "Sx", "P4", "-1"]:
        code, out, err = run_cli(["cardy", "boundary-state", "--object", name,
                                  "--direction", "out"] + base, capsys)
        assert code == EXIT_USAGE, name
        assert "S0..S3, P0..P3" in err and "Traceback" not in err
    code, out, err = run_cli(["cardy", "annulus", "--m", "S0", "--n", "S4"]
                             + base, capsys)
    assert code == EXIT_USAGE and "'S4'" in err


def test_unknown_object_is_rejected_before_the_coend(capsys, monkeypatch):
    """On D(Z/3) the coend build raises on the known (S T)^3 defect (exit
    3), so exit 2 shows that the name is resolved first."""
    def no_build(h):
        raise AssertionError("the coend was built")
    monkeypatch.setattr("mtc.coend.build_full", no_build)
    base = ["--builtin", "double_group_algebra", "--param", "orders=3",
            "--format", "json"]
    for sub in [["boundary-state", "--object", "S99", "--direction", "out"],
                ["defect", "--object", "S99"],
                ["annulus", "--m", "S0", "--n", "S99"]]:
        code, out, err = run_cli(["cardy"] + sub + base, capsys)
        assert (code, out) == (EXIT_USAGE, ""), sub
        assert "'S99'" in err and "S0..S8" in err


@pytest.mark.parametrize("flags, message", [
    ([], "needs --object or --all-pairs"),
    (["--object", "S0", "--all-pairs"],
     "needs --object or --all-pairs, not both"),
])
def test_cardy_defect_needs_one_target(flags, message, capsys, monkeypatch):
    """cardy defect takes exactly one of --object and --all-pairs; the
    check comes before the algebra is loaded."""
    monkeypatch.setattr(hopf, "builtin", lambda *a: pytest.fail("loaded"))
    code, out, err = run_cli(["cardy", "defect", "--builtin", "double_z2",
                              "--ribbon", "3"] + flags, capsys)
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: cardy defect %s\n" % message)


def test_cardy_cli(capsys):
    base = ["--builtin", "double_z2", "--ribbon", "3", "--format", "json"]
    code, out, err = run_cli(["cardy", "boundary-state", "--object", "S0",
                              "--direction", "out"] + base, capsys)
    assert code == EXIT_OK
    code, out, err = run_cli(["cardy", "annulus", "--m", "S0", "--n", "S1"]
                             + base, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert "open_channel" in payload and "closed_channel" in payload
    code, out, err = run_cli(["cardy", "torus"] + base, capsys)
    assert code == EXIT_OK
    assert json.loads(out)["cartan"] == [[1 if i == j else 0 for j in range(4)]
                                         for i in range(4)]
    code, out, err = run_cli(["cardy", "defect", "--all-pairs"] + base, capsys)
    assert code == EXIT_OK
    code, out, err = run_cli(["cardy", "sf", "--N", "2"] + base, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["trace_form_radical_dim"] > 0


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "mtc.cli", "cartan",
                           "--builtin", "sweedler", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cartan"] == [[1, 1], [1, 1]]


def test_run_path_needs_only_the_standard_library():
    # python -S leaves site-packages, and with it sympy, off the path
    code = ("import sys; from mtc.cli import main; "
            "rc = main(['verify', '--builtin', 'double_z2', '--ribbon', '3', "
            "'--format', 'json']); "
            "assert 'sympy' not in sys.modules; sys.exit(rc)")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_csv_cartan_rows(capsys):
    code, out, err = run_cli(["cartan", "--builtin", "double_sweedler",
                              "--format", "csv"], capsys)
    assert code == EXIT_OK
    rows = [r for r in out.split("\r\n") if r.startswith("cartan")]
    assert len(rows) == 4  # number of simples of D(sweedler)


def test_structural_checks_on_the_sum_match_the_loops(dz3, dsw):
    """The hexagon and twist words, checked once on the sum of the simples,
    give the verdicts of the per-triple and per-pair loops: on D(Z/3) and
    D(Sweedler), where both pass, and on two mutants of D(Z/3), one R
    coefficient bumped and the ribbon element doubled, where the hexagon
    and the twist fail."""
    f = dz3.field
    rmatrix = dict(dz3.rmatrix)
    rmatrix[(1, 3)] = rmatrix[(1, 3)] + f.one()
    bumped_r = hopf.HopfAlgebraData(
        f, dz3.dim, dz3.basis_labels, dz3.mult, dz3.unit, dz3.comult,
        dz3.counit, dz3.antipode, rmatrix, dz3.ribbon, dz3.name)
    doubled_v = dz3.with_ribbon(dz3.ribbon.scale(f.from_rational(2)))
    cases = [(dz3, True, True, True), (dsw, False, True, None),
             (bumped_r, False, False, None), (doubled_v, True, True, False)]
    for h, have_ribbon, hexagon, twist in cases:
        sd = repcat.simples_data(h)
        rep = Report()
        _structural_checks(h, sd, rep, have_ribbon)
        on_sum = {n: st == "pass" for n, st, _ in rep.checks
                  if n != "snake identities"}
        want = {"hexagon on simples": hexagon}
        if twist is not None:
            want["twist of a product"] = twist
        assert on_sum == structural_checks_oracle(h, sd, have_ribbon) == want


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the path is checked before any algebra is loaded, with the line that
    # writing the output would print
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    cases = [(tmp_path / "missing" / "x.json", "No such file or directory"),
             (tmp_path, "Is a directory"),
             (blocker / "x.json", "Not a directory")]
    with monkeypatch.context() as m:
        m.setattr(hopf, "builtin", lambda *a: pytest.fail("loaded"))
        for path, reason in cases:
            code, out, err = run_cli(["simples", "--builtin", "sweedler",
                                      "--out", str(path)], capsys)
            line = "error: cannot write --out %s: %s\n" % (path, reason)
            assert (code, out, err) == (EXIT_USAGE, "", line)
            with pytest.raises(UsageError) as late:
                emit({}, "json", str(path))
            assert "error: %s\n" % late.value == line
    # a usage error found after loading neither creates nor truncates --out
    fresh = tmp_path / "fresh.json"
    for path in (blocker, fresh):
        code, out, err = run_cli(["modular-data", "--builtin", "double_z2",
                                  "--ribbon", "9", "--out", str(path)],
                                 capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: --ribbon 9 out of range")
    assert blocker.read_text() == "kept" and not fresh.exists()


GOLDEN = pathlib.Path(__file__).parent / "golden"
# a word with every generator but box (the CLI binds no boxes), on the sum
# of two simples of D(Z/3) with twists zeta and zeta^2
DIAGRAM_WORD = ("(coevt(X) * br(X, X)) ; "
                "(id(X.dual) * tw(X) * twinv(X) * id(X)) ; "
                "(id(X.dual) * brinv(X, X) * id(X)) ; "
                "(ev(X) * id(X) * id(X) * coev(X)) ; (id(X) * id(X) * evt(X))")
# D(Z/3) has twists of order 3 and simples that are not self-dual; two of
# its checks fail (the (S T)^3 relation and the Cardy certificates)
GOLDEN_EXIT = {"verify_double_group_algebra_orders3": EXIT_CHECK_FAILED}


@pytest.mark.parametrize("name, args", [
    ("simples_double_sweedler", ["simples", "--builtin", "double_sweedler"]),
    ("cartan_double_sweedler", ["cartan", "--builtin", "double_sweedler"]),
    ("fusion_double_sweedler", ["fusion", "--builtin", "double_sweedler"]),
    ("verify_double_z2_ribbon3",
     ["verify", "--builtin", "double_z2", "--ribbon", "3"]),
    ("modular-data_double_z2_ribbon3",
     ["modular-data", "--builtin", "double_z2", "--ribbon", "3"]),
    ("cardy-torus_double_z2_ribbon3",
     ["cardy", "torus", "--builtin", "double_z2", "--ribbon", "3"]),
    ("verify_double_group_algebra_orders3",
     ["verify", "--builtin", "double_group_algebra", "--param", "orders=3"]),
    ("diagram-eval_double_group_algebra_orders3",
     ["diagram", "eval", "--builtin", "double_group_algebra", "--param",
      "orders=3", "--bind", "X={module}", "--expr", DIAGRAM_WORD]),
    ("cardy-boundary-state-in_double_z2_ribbon3",
     ["cardy", "boundary-state", "--builtin", "double_z2", "--ribbon", "3",
      "--object", "S1", "--direction", "in"]),
    ("cardy-boundary-state-out_double_z2_ribbon3",
     ["cardy", "boundary-state", "--builtin", "double_z2", "--ribbon", "3",
      "--object", "S1", "--direction", "out"]),
    ("cardy-annulus_double_z2_ribbon3",
     ["cardy", "annulus", "--builtin", "double_z2", "--ribbon", "3",
      "--m", "S1", "--n", "S2"]),
    ("cardy-defect-all-pairs_double_z2_ribbon3",
     ["cardy", "defect", "--builtin", "double_z2", "--ribbon", "3",
      "--all-pairs"]),
    ("cardy-defect-S0_double_z2_ribbon3",
     ["cardy", "defect", "--builtin", "double_z2", "--ribbon", "3",
      "--object", "S0"]),
    ("cardy-defect-S2_double_z2_ribbon3",
     ["cardy", "defect", "--builtin", "double_z2", "--ribbon", "3",
      "--object", "S2"]),
])
def test_golden_json_output(name, args, tmp_path, capsys):
    """The JSON bytes and exit codes of cheap commands stay as recorded in
    tests/golden."""
    module = tmp_path / "x.json"
    if "X={module}" in args:
        sd = repcat.simples_data(hopf.builtin("double_group_algebra", [3]))
        repcat.save_module(repcat.direct_sum(sd.simples[0], sd.simples[1]),
                           str(module))
    args = [a.replace("{module}", str(module)) for a in args]
    code, out, err = run_cli(args + ["--format", "json"], capsys)
    assert (code, err) == (GOLDEN_EXIT.get(name, EXIT_OK), "")
    assert out == (GOLDEN / (name + ".json")).read_text()


@pytest.mark.slow
def test_golden_cartan_double_taft_slow(capsys):
    """The Cartan matrix of D(Taft_3) (dim 81; simples of dims 1, 2 and 3,
    so its semisimple quotient is not commutative), as recorded in
    tests/golden, within a 60 s budget."""
    start = time.perf_counter()
    code, out, err = run_cli(["cartan", "--builtin", "double_taft", "--param",
                              "n=3", "--format", "json"], capsys)
    assert time.perf_counter() - start < 60
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN / "cartan_double_taft_n3.json").read_text()


@pytest.mark.slow
def test_golden_simples_double_taft_slow(capsys):
    """The simples of D(Taft_3) (blocks of dimension 2 and 3 in its
    semisimple quotient, where another choice of idempotents would show),
    as recorded in tests/golden, within a 60 s budget."""
    start = time.perf_counter()
    code, out, err = run_cli(["simples", "--builtin", "double_taft",
                              "--param", "n=3", "--format", "json"], capsys)
    assert time.perf_counter() - start < 60
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN / "simples_double_taft_n3.json").read_text()


@pytest.mark.slow
def test_golden_verify_double_z6_slow(capsys):
    """The report of verify on D(Z/6) with --ribbon 0 (dim 36 and 36
    simples, so the hexagon word runs on a sum of dimension 36), as
    recorded in tests/golden, within a 60 s budget."""
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "--builtin", "double_group_algebra",
                              "--param", "orders=6", "--ribbon", "0",
                              "--format", "json"], capsys)
    assert time.perf_counter() - start < 60
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    assert out == (GOLDEN / "verify_double_group_algebra_orders6_ribbon0.json"
                   ).read_text()


# D(Z/3) spec files with the coefficient of one structure-constant entry
# changed: (golden name, spec section, entry index, new coefficient,
# command).  The golden holds the exit code, stdout and stderr.
MALFORMED = [
    ("malformed-mult_verify", "mult", 5, "2", "verify"),
    ("malformed-mult_cartan", "mult", 5, "2", "cartan"),
    ("malformed-unit_verify", "unit", 1, "2", "verify"),
    ("malformed-comult_verify", "comult", 4, "2", "verify"),
    ("malformed-counit_verify", "counit", 1, "2", "verify"),
    ("malformed-antipode_verify", "antipode", 3, "2", "verify"),
    ("malformed-rmatrix_verify", "rmatrix", 1, "2", "verify"),
    ("malformed-rmatrix-singular_verify", "rmatrix", 1, "0", "verify"),
]


def bumped_dz3_spec(section, entry, value):
    d = hopf.to_json_dict(hopf.builtin("double_group_algebra", [3]))
    d[section][entry][-1] = value
    return d


@pytest.mark.parametrize("name, section, entry, value, command", MALFORMED)
def test_golden_malformed_input(name, section, entry, value, command,
                                tmp_path, capsys):
    """A spec file that breaks one axiom gives the recorded exit code,
    witnesses and error text."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bumped_dz3_spec(section, entry, value)))
    code, out, err = run_cli([command, "--algebra", str(path),
                              "--format", "json"], capsys)
    got = {"exit": code, "stdout": out, "stderr": err}
    want = json.loads((GOLDEN / (name + ".json")).read_text())
    assert got == want

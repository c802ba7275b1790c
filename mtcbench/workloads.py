"""The benchmark's workloads: what each runs, how its input is made from the
seed, and how its output is scored against the mathematics.

Scoring never compares with an earlier output of the program.  Each
workload lists the verdict the mathematics gives for every check; a check
whose verdict differs is a defect.  KNOWN_DEFECTS records the defects the
program has today: they lower the agreement share but do not make an
operation wrong.  A fix that brings a verdict in line with the mathematics
is scored correct.
"""

import json
import os
import random

from exact import Field, dense, is_identity, matmul

# Checks whose verdict differs from the mathematics at the time the
# benchmark was defined.  Keys are check names as the program prints them.
KNOWN_DEFECTS = {
    "(S T)^3 proportional to S^2 on Hom(L,1)":
        "the stored T_transform has the inverse convention: the relation "
        "holds with T^{-1}",
    "cardy certificates":
        "the two defect-operator formulas disagree although "
        "eps . S_transform = lambda holds",
}

_AXIOMS = ["associativity", "unit", "coassociativity", "counit",
           "comultiplication is an algebra map", "counit is an algebra map",
           "antipode", "rmatrix present", "R invertible",
           "hexagon (Delta x id)R = R13 R23",
           "hexagon (id x Delta)R = R13 R12", "Delta^op(a) R = R Delta(a)",
           "(eps x id)R = 1 = (id x eps)R"]

# D(Z/3) is a modular category with a unique ribbon element: every check
# of the verification suite states a theorem about it, so all must pass.
DZ3_CHECKS = {name: "pass" for name in _AXIOMS + [
    "ribbon element", "simples and projective covers", "snake identities",
    "hexagon on simples", "twist of a product", "coend build",
    "structure solve + dinaturality certificate",
    "modularity (omega non-degenerate)",
    "integrals normalized (lambda Lambda = 1, zeta = D+ D-)",
    "S_transform invertible", "S^2 = zeta S_L^{-1}", "kappa(S x id) = omega",
    "kappa(id x S) = omega", "S^4 = zeta^2 S_L^{-2}",
    "(S T)^3 proportional to S^2 on Hom(L,1)",
    "S^4 proportional to id on Hom(L,1)", "chi = omega(chk x id)",
    "cocharacters of simples linearly independent",
    "cutting decompositions exist", "carrier bimodule is a T-module",
    "composition multiplicities equal the Cartan matrix",
    "dimension bookkeeping", "coend carrier cocharacter computed",
    "cardy certificates"]}

# D(Sweedler) is quasitriangular but has no ribbon element (Kauffman-Radford
# parity obstruction), so "ribbon element" must fail and the eight
# ribbon-dependent stages must be skipped.
DSWEEDLER_CHECKS = dict(
    {name: "pass" for name in _AXIOMS + [
        "simples and projective covers", "snake identities",
        "hexagon on simples"]},
    **{"ribbon element": "fail"},
    **{name: "skip" for name in [
        "coend build", "structure solve", "integrals", "modularity",
        "S/T transforms", "characters", "cutting", "cardy certificates"]})

# Why each workload was chosen is in BENCHMARK.json and README.md.  Each
# run makes one seeded algebra.  On D(Z/3) the basis order decides whether
# 3, 4 or 5 generators are picked, which moves the work per operation by up
# to 16% from seed to seed; on the other workloads by about 1.5%.
WORKLOADS = {
    "dz3_verify": {"builtin": "double_group_algebra", "params": [3],
                   "command": ["verify"], "ribbon": None},
    "dsweedler_verify": {"builtin": "double_sweedler", "params": None,
                         "command": ["verify"], "ribbon": None},
    "dz4_modular_data": {"builtin": "double_group_algebra", "params": [4],
                         "command": ["modular-data"], "ribbon": 0},
    # The ROADMAP target, dim 81.  Not in BENCHMARK.json: one operation
    # takes longer than a run's share of the benchmark's time budget.
    "dtaft3_cartan": {"builtin": "double_taft", "params": [3],
                      "command": ["cartan"], "ribbon": None},
}


# ---------------------------------------------------------------------------
# seeded inputs (runs in a worker, with mtc importable)

def permutation(dim, seed):
    """perm[new] = old: the seeded basis order."""
    perm = list(range(dim))
    random.Random(seed).shuffle(perm)
    return perm


def permute_spec(d, perm):
    """A spec-file dict with basis vector perm[i] moved to position i."""
    q = {old: new for new, old in enumerate(perm)}
    out = dict(d)
    out["basis"] = [d["basis"][old] for old in perm]
    out["mult"] = sorted([q[i], q[j], q[k], c] for i, j, k, c in d["mult"])
    out["comult"] = sorted([q[i], q[j], q[k], c] for i, j, k, c in d["comult"])
    out["rmatrix"] = sorted([q[i], q[j], c] for i, j, c in d["rmatrix"])
    out["antipode"] = sorted([q[j], q[i], c] for j, i, c in d["antipode"])
    for key in ("unit", "counit", "ribbon"):
        if key in d:
            out[key] = sorted([q[i], c] for i, c in d[key])
    return out


def prepare(name, seed, workdir):
    """Write the workload's seeded algebra file into workdir, check its Hopf
    axioms and return the mtc argv that runs the workload on it."""
    from mtc import hopf
    from mtc.scalars import format_scalar
    spec = WORKLOADS[name]
    h = hopf.builtin(spec["builtin"], spec["params"])
    perm = permutation(h.dim, seed)
    path = os.path.join(workdir, "%s_seed%d.json" % (name, seed))
    with open(path, "w") as fp:
        json.dump(permute_spec(hopf.to_json_dict(h), perm), fp, indent=1,
                  sort_keys=True)
    hp = hopf.load_algebra(path)
    rep = hopf.verify_hopf_axioms(hp)
    if not rep.ok:
        raise RuntimeError("seeded algebra fails the Hopf axioms: %s"
                           % rep.failures())
    argv = spec["command"] + ["--algebra", path, "--format", "json"]
    if spec["ribbon"] is not None:
        # Pin the builtin's ribbon element: find its image in the solve list
        # of the permuted algebra, whose order depends on the basis.
        v = hopf.solve_ribbon(h)[spec["ribbon"]]
        want = [format_scalar(v.data[old]) for old in perm]
        found = [k for k, w in enumerate(hopf.solve_ribbon(hp))
                 if [format_scalar(x) for x in w.data] == want]
        if len(found) != 1:
            raise RuntimeError("ribbon element not found in %s" % path)
        argv += ["--ribbon", str(found[0])]
    return argv


# ---------------------------------------------------------------------------
# scoring (runs in run.py, without mtc)

class Score:
    """Verdicts of one operation: checks scored, checks agreeing with the
    mathematics, known defects seen, and the reasons it is wrong if any."""

    def __init__(self):
        self.scored = 0
        self.agree = 0
        self.known = []
        self.wrong = []

    def check(self, name, expected, got):
        self.scored += 1
        if got == expected:
            self.agree += 1
        elif name in KNOWN_DEFECTS and expected == "pass" and got == "fail":
            self.known.append(name)
        else:
            self.wrong.append("%s: %s, expected %s" % (name, got, expected))

    @property
    def ok(self):
        return not self.wrong


def score(name, exit_code, stdout, stderr):
    return {"dz3_verify": lambda *a: _score_verify(DZ3_CHECKS, *a),
            "dsweedler_verify": lambda *a: _score_verify(DSWEEDLER_CHECKS, *a),
            "dz4_modular_data": _score_modular_data,
            "dtaft3_cartan": _score_cartan}[name](exit_code, stdout, stderr)


def _score_verify(expected, exit_code, stdout, stderr):
    s = Score()
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        s.wrong.append("exit %d, no verify payload: %s"
                       % (exit_code, stderr.strip()[-200:]))
        return s
    names = [c["name"] for c in checks]
    if sorted(names) != sorted(expected):
        s.wrong.append("check list differs: missing %s, extra %s" % (
            sorted(set(expected) - set(names)),
            sorted(set(names) - set(expected))))
    for c in checks:
        if c["name"] in expected:
            s.check(c["name"], expected[c["name"]], c["status"])
    failed = any(c["status"] == "fail" for c in checks)
    if exit_code != (1 if failed else 0):
        s.wrong.append("exit %d with%s failed checks"
                       % (exit_code, "" if failed else " no"))
    return s


def _score_modular_data(exit_code, stdout, stderr):
    s = Score()
    if exit_code == 3:
        # Internal inconsistency: the S/T report is printed on stderr.  Each
        # of its lines states a theorem, so each must read PASS.
        lines = stderr.splitlines()
        if not lines or "S/T verification failed" not in lines[0]:
            s.wrong.append("exit 3: %s" % stderr.strip()[-200:])
            return s
        for line in lines[1:]:
            status, _, rest = line.partition(" ")
            check = rest.strip().split("  [")[0]
            s.check(check, "pass", status.strip().lower())
        if not s.scored:
            s.wrong.append("exit 3 without an S/T report")
        return s
    if exit_code != 0:
        s.wrong.append("exit %d: %s" % (exit_code, stderr.strip()[-200:]))
        return s
    try:
        p = json.loads(stdout)
        fld = Field(4)
        S, T = dense(fld, p["S"]), dense(fld, p["T"])
        lam, Lam = dense(fld, p["lambda"]), dense(fld, p["Lambda"])
    except (ValueError, KeyError, TypeError) as e:
        s.wrong.append("exit 0 with an unreadable payload: %s" % e)
        return s
    # D(Z/4) is factorizable, so modular; its coend has dimension 16; the
    # twists are fourth roots of unity, so T^4 = id; lambda . Lambda = 1 is
    # the documented normalization; the projective SL(2,Z) relations hold.
    t2 = matmul(fld, T, T)
    inner = [fld.zero]
    for a, b in zip(lam, Lam):
        inner[0] = fld.add(inner[0], fld.mul(a[0], b[0]))
    facts = [
        ("modular", p.get("modular") is True),
        ("S and T are 16x16", len(S) == len(T) == 16 and
         len(S[0]) == len(T[0]) == 16),
        ("T^4 = id", is_identity(fld, matmul(fld, t2, t2))),
        ("lambda . Lambda = 1", inner[0] == fld.one),
        ("SL(2,Z) scalars measured", all(
            v is not None for v in p.get("sl2z_scalars", {None: None}).values())),
    ]
    for check, holds in facts:
        s.check(check, "pass", "pass" if holds else "fail")
    return s


def _score_cartan(exit_code, stdout, stderr):
    s = Score()
    s.check("exit status", 0, exit_code)
    try:
        c = json.loads(stdout)["cartan"]
    except (ValueError, KeyError, TypeError):
        s.wrong.append("no cartan payload: %s" % stderr.strip()[-200:])
        return s
    # D(Taft_3) has nine simple modules; a Cartan matrix of a Drinfeld
    # double is symmetric, with non-negative integer entries.
    square = len(c) == 9 and all(len(r) == 9 for r in c)
    s.check("9x9", True, square)
    s.check("symmetric", True,
            square and all(c[i][j] == c[j][i] for i in range(9) for j in range(9)))
    s.check("non-negative integers", True, square and all(
        isinstance(x, int) and x >= 0 for r in c for x in r))
    return s

"""Command-line interface: load algebra specs, run the verification suites,
and emit machine- and human-readable reports.

    mtc <subcommand> (--algebra FILE | --builtin NAME [--param K=V]...)
        [--ribbon IDX] [--format json|csv|text] [--out PATH]

Subcommands: verify, simples, cartan, fusion, modular-data, diagram eval,
cardy <boundary-state|annulus|torus|defect|sf>.  The structural checks of
`verify` (snake, hexagon, twist of a product) are equalities of diagram
words, and `diagram eval` runs the same evaluator as the coend.  Exit
codes: 0 all pass, 1 check failure, 2 usage/parse error, 3 internal
inconsistency.
"""

import argparse
import errno
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .scalars import format_scalar
from .linalg import Matrix, kron, rank
from . import hopf as hopf_mod
from . import repcat, coend as coend_mod, cardy as cardy_mod, diagrams
from .hopf import AlgebraFormatError, HopfError
from .coend import CoendError, NotModularError
from .cardy import CardyError
from .etale import NonSplitError
from .report import Report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration / loading

class RunConfig:
    def __init__(self, algebra=None, builtin=None, params=None, ribbon=None,
                 fmt="text", out=None):
        if (algebra is None) == (builtin is None):
            raise UsageError("exactly one of --algebra and --builtin is required")
        self.algebra = algebra
        self.builtin = builtin
        self.params = params or {}
        self.ribbon = ribbon
        self.fmt = fmt
        self.out = out
        if out:
            _check_out(out)


def _check_out(path):
    """Raise the error that writing --out would raise, before any work and
    without creating or truncating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not (os.access(path, os.W_OK) if os.path.exists(path)
              else os.access(parent, os.W_OK | os.X_OK)):
        err = errno.EACCES
    else:
        return
    raise UsageError("cannot write --out %s: %s" % (path, os.strerror(err)))


def _read_algebra(config):
    """The algebra named by the config, not yet verified."""
    name = config.builtin
    if name is None:
        return hopf_mod.load_algebra(config.algebra)
    if name not in hopf_mod.BUILTINS:
        raise UsageError("unknown builtin %r: expected one of %s"
                         % (name, ", ".join(hopf_mod.BUILTIN_NAMES)))
    key = hopf_mod.BUILTINS[name][0]
    unread = sorted(set(config.params) - {key})
    if unread:
        raise UsageError("bad --param for %s: unread key %s (%s takes %s)"
                         % (name, ", ".join(unread), name,
                            "only " + key if key else "no parameter"))
    params = config.params.get(key)
    if key == "n" and params is not None:
        params = [params]
    try:
        return hopf_mod.builtin(name, params)
    except ValueError as e:
        raise UsageError("bad --param for %s: %s" % (name, e))


def _failures(rep):
    """The failed checks of rep with their witnesses, on one line."""
    return "; ".join(n if w is None else "%s [%s]" % (n, w)
                     for n, w in rep.failures())


def _require_axioms(rep):
    """Raise AlgebraFormatError naming the failed Hopf axioms of rep."""
    if not rep.ok:
        raise AlgebraFormatError(
            "algebra failed verification: %s" % _failures(rep))


def load_algebra(config):
    """Load and verify the algebra named by the config."""
    h = _read_algebra(config)
    _require_axioms(hopf_mod.verify_hopf_axioms(h))
    return h


def choose_ribbon(h, index):
    """The algebra with a ribbon element selected: the declared one, the
    unique solution, or the --ribbon index into the solve_ribbon list.  A
    declared element that fails the ribbon identities raises HopfError
    naming them."""
    if h.ribbon is not None and index is None:
        rep = hopf_mod.verify_ribbon(h)
        if not rep.ok:
            raise HopfError("declared ribbon element fails: %s"
                            % _failures(rep))
        return h
    vs = hopf_mod.solve_ribbon(h)
    if not vs:
        raise HopfError("no ribbon element exists for %s" % h.name)
    if index is None:
        if len(vs) == 1:
            return h.with_ribbon(vs[0])
        raise UsageError(
            "%s has %d ribbon elements; pick one with --ribbon IDX"
            % (h.name, len(vs)))
    if not 0 <= index < len(vs):
        raise UsageError("--ribbon %d out of range (0..%d)"
                         % (index, len(vs) - 1))
    return h.with_ribbon(vs[index])


# ---------------------------------------------------------------------------
# the verification suite

# The stages after the category structure, in order: a stage that cannot
# run skips itself and every stage after it
LATER_STAGES = ("coend build", "structure solve", "integrals", "modularity",
                "S/T transforms", "characters", "cutting",
                "cardy certificates")


def _skip_from(rep, stage, reason):
    for name in LATER_STAGES[LATER_STAGES.index(stage):]:
        rep.skip(name, reason)


def run_suite(config):
    """Dependency-ordered pipeline with skip-propagation."""
    rep = Report("verification suite")
    # an unreadable or malformed spec is a usage error; the Hopf axioms are
    # checked once, and a failure fails the load
    h = _read_algebra(config)
    try:
        with rep.timed("axioms"):
            axioms = hopf_mod.verify_hopf_axioms(h)
            _require_axioms(axioms)
            if h.rmatrix is not None:
                axioms.merge(hopf_mod.verify_quasitriangular(h))
    except (AlgebraFormatError, HopfError) as e:
        rep.add("load algebra", False, str(e))
        return rep
    rep.merge(axioms)
    if not rep.ok:
        rep.skip("remaining stages", "axiom failure")
        return rep

    try:
        h = choose_ribbon(h, config.ribbon)
        have_ribbon = True
        rep.add("ribbon element", True)
    except HopfError as e:
        rep.add("ribbon element", False, str(e))
        have_ribbon = False

    with rep.timed("simples"):
        try:
            sd = repcat.simples_data(h)
            rep.add("simples and projective covers", True)
        except NonSplitError as e:
            rep.add("simples and projective covers", False, str(e))
            rep.skip("remaining stages", "non-split algebra")
            return rep

    with rep.timed("category structure"):
        _structural_checks(h, sd, rep, have_ribbon)

    if not have_ribbon:
        _skip_from(rep, "coend build", "no ribbon element")
        return rep

    with rep.timed("coend"):
        try:
            cd = coend_mod.build_coend(h)
            rep.add("coend build", True)
            coend_mod.solve_structure_morphisms(cd)
            rep.add("structure solve + dinaturality certificate", True)
        except CoendError as e:
            rep.add("structure solve", False, str(e))
            _skip_from(rep, "integrals", "structure solve failed")
            return rep

    modular = coend_mod.modularity_test(cd)
    rep.add("modularity (omega non-degenerate)", modular)
    if not modular:
        try:
            coend_mod.solve_integrals(cd)
            rep.add("integrals normalized (lambda Lambda = 1)", True)
        except CoendError as e:
            rep.add("integrals", False, str(e))
        rep.skip("zeta normalization", "not modular")
        _skip_from(rep, "S/T transforms", "not modular")
        return rep

    with rep.timed("integrals"):
        try:
            coend_mod.integrals_and_zeta(cd)
            rep.add("integrals normalized (lambda Lambda = 1, zeta = D+ D-)", True)
        except CoendError as e:
            rep.add("integrals", False, str(e))
            _skip_from(rep, "S/T transforms", "integral normalization failed")
            return rep

    with rep.timed("S/T"):
        try:
            coend_mod.radford_pairing(cd)
            strep, scalars = coend_mod.s_t_transforms(cd)
            rep.merge(strep)
            cd.sl2z_scalars = scalars
        except CoendError as e:
            rep.add("S/T transforms", False, str(e))
            _skip_from(rep, "characters", "S/T transforms failed")
            return rep

    with rep.timed("characters"):
        _character_checks(h, sd, cd, rep)

    with rep.timed("cutting"):
        try:
            one = repcat.trivial_module(h)
            for x in [one] + list(sd.simples):
                coend_mod.cutting_decomposition(cd, x)
            rep.add("cutting decompositions exist", True)
        except CoendError as e:
            rep.add("cutting decompositions exist", False, str(e))

    with rep.timed("cardy"):
        try:
            _, trep = cardy_mod.torus_partition(h, with_coend=cd)
            rep.merge(trep)
            _, darep, _ = cardy_mod.defect_algebra(cd)
            rep.merge(darep)
        except (CardyError, CoendError) as e:
            rep.add("cardy certificates", False, str(e))
    return rep


# The structural identities of the category, as diagram words: all the
# words of an entry must evaluate to the same matrix.  The snake words
# range over the simples and projective covers; the hexagon and the twist
# words are checked once, on the direct sum of the simples.
SNAKE_WORDS = (
    ("(coev(X) * id(X)) ; (id(X) * ev(X))", "id(X)"),
    ("(id(X.dual) * coev(X)) ; (ev(X) * id(X.dual))", "id(X.dual)"),
)
RIBBON_SNAKE_WORDS = (
    ("(id(X) * coevt(X)) ; (evt(X) * id(X))", "id(X)"),
    ("(coevt(X) * id(X.dual)) ; (id(X.dual) * evt(X))", "id(X.dual)"),
)
HEXAGON_WORDS = ("br(X x Y, Z)", "(id(X) * br(Y, Z)) ; (br(X, Z) * id(Y))")
TWIST_WORDS = ("tw(X x Y)", "(tw(X) * tw(Y)) ; br(X, Y) ; br(Y, X)")


def _structural_checks(h, sd, rep, have_ribbon):
    snakes = SNAKE_WORDS + (RIBBON_SNAKE_WORDS if have_ribbon else ())

    def holds(entries, **objects):
        env = diagrams.Env(h)
        for name, x in objects.items():
            env.bind_object(name, x)
        return all(diagrams.words_agree(env, words) for words in entries)

    # one worker: the benchmark harness's tests pin the span stack of a
    # worker thread, and only a change to the benchmark may drop the pool
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = list(pool.map(lambda x: holds(snakes, X=x),
                                list(sd.simples) + list(sd.projectives)))
    rep.add("snake identities", all(results))

    # H acts on a tensor product through Delta and the braiding is tau R
    # there, both natural and additive in each factor: on the sum S of the
    # simples a word is the direct sum of its values on the triples (pairs)
    # of simples, so it holds on S exactly when it holds on each of them.
    s = repcat.direct_sum(*sd.simples)
    if h.rmatrix is not None:
        rep.add("hexagon on simples", holds([HEXAGON_WORDS], X=s, Y=s, Z=s))
    if have_ribbon:
        rep.add("twist of a product", holds([TWIST_WORDS], X=s, Y=s))


def _character_checks(h, sd, cd, rep):
    eye = Matrix.identity(h.field, h.dim)
    ok = True
    cochars = []
    for s in list(sd.simples) + list(sd.projectives):
        chi, chk = coend_mod.characters(cd, s)
        ok = ok and chi.matrix == cd.omega * kron(chk.matrix, eye)
        cochars.append(chk.matrix)
    rep.add("chi = omega(chk x id)", ok)
    rep.add("cocharacters of simples linearly independent",
            rank(cochars[0].hstack(*cochars[1:sd.count])) == sd.count)


# ---------------------------------------------------------------------------
# output

def matrix_payload(m):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": sorted([i, j, format_scalar(m[i, j])]
                          for i in range(m.rows) for j in range(m.cols)
                          if not m[i, j].is_zero()),
    }


def _csv_quote(s):
    s = str(s)
    if any(c in s for c in ',"\n\r'):
        return '"' + s.replace('"', '""') + '"'
    return s


def emit(payload, fmt, out=None):
    """Bit-stable rendering of a payload (dict with optional 'timings')."""
    data = {k: v for k, v in payload.items() if k != "timings"}
    if fmt == "json":
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _emit_csv(data)
    elif fmt == "text":
        text = _emit_text(data)
        if payload.get("timings"):
            text += "\n# timings (seconds)\n"
            for name, dt in payload["timings"]:
                text += "# %-24s %.3f\n" % (name, dt)
    else:
        raise UsageError("unknown format %r" % fmt)
    if out:
        try:
            with open(out, "w") as fp:
                fp.write(text)
        except OSError as e:
            raise UsageError("cannot write --out %s: %s"
                             % (out, e.strerror or e))
    else:
        sys.stdout.write(text)


def _emit_csv(data):
    buf = io.StringIO()

    def walk(obj, path):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], path + [str(k)])
        elif isinstance(obj, list):
            if obj and all(isinstance(r, list) for r in obj):
                for row in obj:
                    buf.write(",".join(_csv_quote(x) for x in [".".join(path)] + row))
                    buf.write("\r\n")
            else:
                for i, v in enumerate(obj):
                    walk(v, path + [str(i)])
        else:
            buf.write(",".join(_csv_quote(x) for x in [".".join(path), obj]))
            buf.write("\r\n")

    walk(data, [])
    return buf.getvalue()


def _emit_text(data):
    lines = []

    def walk(obj, pad, key=None):
        head = " " * pad + (key + ":" if key else "")
        if isinstance(obj, dict):
            if key:
                lines.append(head)
            for k in sorted(obj):
                walk(obj[k], pad + (2 if key else 0), k)
        elif isinstance(obj, list):
            if obj and all(isinstance(r, list) for r in obj) and key == "table":
                widths = [max(len(str(r[c])) for r in obj) for c in range(len(obj[0]))]
                if key:
                    lines.append(head)
                for r in obj:
                    lines.append(" " * (pad + 2) + "  ".join(
                        str(x).rjust(w) for x, w in zip(r, widths)))
            else:
                lines.append(head + " " + json.dumps(obj, sort_keys=True))
        else:
            lines.append(head + " " + str(obj))

    walk(data, 0)
    return "\n".join(lines) + "\n"


def report_payload(rep):
    return {
        "checks": [
            {"name": n, "status": st, **({"witness": str(w)} if w is not None else {})}
            for n, st, w in rep.checks
        ],
        "ok": rep.ok,
        "timings": rep.timings,
    }


# ---------------------------------------------------------------------------
# subcommand handlers

def _resolve_object(h, sd, name):
    """The object named 1 (or one, trivial), H (or regular), Sk or Pk (the
    k-th simple or projective cover), or a bare simple index k."""
    if name in ("1", "one", "trivial"):
        return repcat.trivial_module(h)
    if name in ("H", "regular"):
        return repcat.regular_module(h)
    objs, idx = ((sd.projectives, name[1:]) if name.startswith("P") else
                 (sd.simples, name[1:] if name.startswith("S") else name))
    if not (idx.isdigit() and int(idx) < len(objs)):
        raise UsageError("unknown object %r: expected 1, H, S0..S%d, P0..P%d "
                         "or a simple index 0..%d"
                         % ((name,) + (sd.count - 1,) * 3))
    return objs[int(idx)]


def cmd_verify(config):
    rep = run_suite(config)
    emit(report_payload(rep), config.fmt, config.out)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def cmd_simples(config):
    h = load_algebra(config)
    sd = repcat.simples_data(h)
    payload = {
        "algebra": h.name,
        "simple_dims": [s.dim for s in sd.simples],
        "projective_dims": [p.dim for p in sd.projectives],
        "table": [["simple", "dim", "projective_cover_dim"]] + [
            [s.name, s.dim, p.dim] for s, p in zip(sd.simples, sd.projectives)],
    }
    emit(payload, config.fmt, config.out)
    return EXIT_OK


def cmd_cartan(config):
    h = load_algebra(config)
    sd = repcat.simples_data(h)
    payload = {"algebra": h.name, "cartan": sd.cartan,
               "table": [[""] + [s.name for s in sd.simples]] + [
                   [sd.simples[u].name] + sd.cartan[u] for u in range(sd.count)]}
    emit(payload, config.fmt, config.out)
    return EXIT_OK


def cmd_fusion(config):
    h = load_algebra(config)
    sd = repcat.simples_data(h)
    gr = repcat.grothendieck_ring(h)
    payload = {
        "algebra": h.name,
        "basis": [s.name for s in sd.simples],
        "structure_constants": sorted(
            [i, j, k, gr[i][j][k]]
            for i in range(sd.count) for j in range(sd.count)
            for k in range(sd.count) if gr[i][j][k]),
    }
    emit(payload, config.fmt, config.out)
    return EXIT_OK


def cmd_modular_data(config):
    h = choose_ribbon(load_algebra(config), config.ribbon)
    try:
        cd = coend_mod.build_full(h)
    except NotModularError:
        emit({"algebra": h.name, "modular": False}, config.fmt, config.out)
        return EXIT_CHECK_FAILED
    payload = {
        "algebra": h.name,
        "modular": True,
        "zeta": format_scalar(cd.zeta),
        "Delta_plus": format_scalar(cd.Delta_plus),
        "Delta_minus": format_scalar(cd.Delta_minus),
        "D": format_scalar(cd.D),
        "D_extends_field": cd.D_field.extended,
        "S": matrix_payload(cd.S_transform),
        "T": matrix_payload(cd.T_transform),
        "omega": matrix_payload(cd.omega_gram()),
        "Lambda": matrix_payload(cd.Lambda),
        "lambda": matrix_payload(cd.lambda_.transpose()),
        "sl2z_scalars": {k: (format_scalar(v) if v is not None else None)
                         for k, v in cd.sl2z_scalars.items()},
    }
    emit(payload, config.fmt, config.out)
    return EXIT_OK


def cmd_diagram_eval(config, binds, expr):
    h = load_algebra(config)
    if _needs_ribbon(diagrams.parse(expr)):
        h = choose_ribbon(h, config.ribbon)
    env = diagrams.Env(h)
    for spec in binds:
        if "=" not in spec:
            raise UsageError("--bind expects NAME=module.json")
        name, path = spec.split("=", 1)
        env.bind_object(name, repcat.load_module(h, path))
    m = diagrams.word_matrix(env, expr)
    payload = {
        "expr": expr,
        "dom_dim": m.cols,
        "cod_dim": m.rows,
        "matrix": matrix_payload(m),
    }
    emit(payload, config.fmt, config.out)
    return EXIT_OK


def _needs_ribbon(ast):
    """Whether a parsed word has a generator that reads the ribbon element."""
    if isinstance(ast, diagrams.Gen):
        return ast.kind in ("tw", "twinv", "evt", "coevt")
    return any(_needs_ribbon(p) for p in ast.parts)


def cmd_cardy(config, sub, args):
    if sub == "sf" and args.N < 1:
        raise UsageError("--N must be >= 1, got %d" % args.N)
    if sub == "sf":
        # the symplectic-fermion fusion algebra depends on N alone
        fa = cardy_mod.sf_fusion_algebra(args.N)
        payload = {
            "N": args.N,
            "basis": fa.basis_labels,
            "structure_constants": sorted(
                [i, j, k, format_scalar(c)] for i in range(fa.dim)
                for j in range(fa.dim) for k, c in fa.mult[i][j].items()),
            "trace_form_radical_dim": len(repcat.radical_basis(fa)),
        }
        emit(payload, config.fmt, config.out)
        return EXIT_OK
    h = choose_ribbon(load_algebra(config), config.ribbon)
    if sub == "torus":
        # the certificate reads only the carrier, so it needs no build_full
        cartan, rep = cardy_mod.torus_partition(h, coend_mod.build_coend(h))
        payload = {"algebra": h.name, "cartan": cartan,
                   "certificate": report_payload(rep)["checks"]}
        emit(payload, config.fmt, config.out)
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED
    sd = repcat.simples_data(h)
    # resolve the object names before the coend build, so that a bad name
    # is a usage error and costs nothing
    if sub == "annulus":
        m = _resolve_object(h, sd, args.m)
        n_ = _resolve_object(h, sd, args.n)
    elif sub == "boundary-state" or (sub == "defect" and not args.all_pairs):
        x = _resolve_object(h, sd, args.object)
    cd = coend_mod.build_full(h)
    if sub == "boundary-state":
        mor = cardy_mod.boundary_state(cd, x, args.direction)
        payload = {"object": x.name, "direction": args.direction,
                   "state": matrix_payload(mor.matrix)}
        emit(payload, config.fmt, config.out)
        return EXIT_OK
    if sub == "annulus":
        amp = cardy_mod.annulus_amplitude(cd, m, n_)
        closed = cardy_mod.annulus_closed_channel(cd, m, n_)
        payload = {"m": m.name, "n": n_.name,
                   "open_channel": matrix_payload(amp.matrix),
                   "closed_channel": matrix_payload(closed.matrix)}
        emit(payload, config.fmt, config.out)
        return EXIT_OK
    if sub == "defect":
        if args.all_pairs:
            fa, rep, ops = cardy_mod.defect_algebra(cd)
            payload = {
                "algebra": h.name,
                "operators": {s.name: matrix_payload(op)
                              for s, op in zip(sd.simples, ops)},
                "checks": report_payload(rep)["checks"],
            }
            emit(payload, config.fmt, config.out)
            return EXIT_OK if rep.ok else EXIT_CHECK_FAILED
        payload = {"object": x.name, "matrix": matrix_payload(
            cardy_mod.defect_operator(cd, x))}
        emit(payload, config.fmt, config.out)
        return EXIT_OK
    raise UsageError("unknown cardy subcommand %r" % sub)


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    p.add_argument("--algebra", help="algebra spec file (JSON syntax)")
    p.add_argument("--builtin", help="builtin algebra name: %s"
                   % ", ".join(hopf_mod.BUILTIN_NAMES))
    p.add_argument("--param", action="append", default=[],
                   help="builtin parameter K=V (e.g. n=3, orders=2,2)")
    p.add_argument("--ribbon", type=int, default=None,
                   help="index into the deterministic ribbon element list")
    p.add_argument("--format", dest="fmt", choices=["json", "csv", "text"],
                   default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _parse_params(items):
    params = {}
    for item in items:
        if "=" not in item:
            raise UsageError("--param expects K=V, got %r" % item)
        k, v = item.split("=", 1)
        vals = [_int_or_str(x) for x in v.split(",")]
        params[k] = vals if k == "orders" or len(vals) > 1 else vals[0]
    return params


def _int_or_str(text):
    """An integer, or the text itself for the builtin to reject with its
    valid range."""
    try:
        return int(text)
    except ValueError:
        return text


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mtc",
        description="exact modular-tensor-category computations from ribbon "
                    "Hopf algebra presentations")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ["verify", "simples", "cartan", "fusion", "modular-data"]:
        p = sub.add_parser(name)
        _add_common(p)
    p = sub.add_parser("diagram")
    dsub = p.add_subparsers(dest="diagram_command", required=True)
    pe = dsub.add_parser("eval")
    _add_common(pe)
    pe.add_argument("--bind", action="append", default=[],
                    help="object binding NAME=module.json")
    pe.add_argument("--expr", required=True, help="diagram expression")
    p = sub.add_parser("cardy")
    csub = p.add_subparsers(dest="cardy_command", required=True)
    pb = csub.add_parser("boundary-state")
    _add_common(pb)
    pb.add_argument("--object", required=True)
    pb.add_argument("--direction", choices=["out", "in"], required=True)
    pa = csub.add_parser("annulus")
    _add_common(pa)
    pa.add_argument("--m", required=True)
    pa.add_argument("--n", required=True)
    pt = csub.add_parser("torus")
    _add_common(pt)
    pd = csub.add_parser("defect")
    _add_common(pd)
    pd.add_argument("--object")
    pd.add_argument("--all-pairs", action="store_true")
    ps = csub.add_parser("sf")
    _add_common(ps)
    ps.add_argument("--N", type=int, required=True)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        config = RunConfig(algebra=args.algebra, builtin=args.builtin,
                           params=_parse_params(args.param),
                           ribbon=args.ribbon, fmt=args.fmt, out=args.out)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "simples":
            return cmd_simples(config)
        if args.command == "cartan":
            return cmd_cartan(config)
        if args.command == "fusion":
            return cmd_fusion(config)
        if args.command == "modular-data":
            return cmd_modular_data(config)
        if args.command == "diagram":
            return cmd_diagram_eval(config, args.bind, args.expr)
        if args.command == "cardy":
            if args.cardy_command == "defect" and \
                    args.all_pairs == (args.object is not None):
                raise UsageError("cardy defect needs --object or --all-pairs"
                                 + (", not both" if args.all_pairs else ""))
            return cmd_cardy(config, args.cardy_command, args)
        raise UsageError("unknown command %r" % args.command)
    except (UsageError, AlgebraFormatError, repcat.ModuleFormatError,
            diagrams.DiagramError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (HopfError, NotModularError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (CoendError, CardyError, NonSplitError, AssertionError) as e:
        print("internal inconsistency: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

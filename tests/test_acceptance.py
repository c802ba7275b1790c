"""The acceptance suite: one criterion per test, each printing a pass/fail
line (run with -s to see them).

Parts that require a ribbon structure on D(Sweedler) are mathematically
unattainable: D(Sweedler) admits no ribbon element (Kauffman-Radford parity;
verified here by complete enumeration plus an independent sympy solve of the
quadratic system).  Those parts are strict xfails carrying the obstruction.
No test runs the same checks on a non-semisimple modular example yet: the
odd-Taft double D(Taft_3) is tested only under `pytest -m slow`, for its
ribbon elements and its Cartan matrix."""

import random

import pytest

from mtc import hopf, repcat, coend, cardy
from mtc.linalg import Matrix, kron, rank, invert
from mtc.repcat import trivial_module, tensor_obj, hom_basis, simples_data
from oracles import brute_ribbon_elements, word_matrix_on

DSW_OBSTRUCTION = ("unattainable: D(Sweedler) has no ribbon element "
                   "(Kauffman-Radford: Taft doubles are ribbon iff the order "
                   "is odd); verified by enumeration and the sympy oracle")


def _line(tag, ok, note=""):
    print("ACCEPTANCE %-28s %s%s" % (tag, "PASS" if ok else "FAIL",
                                     " (%s)" % note if note else ""))
    return ok


def structural_builtins():
    z2 = hopf.group_algebra([2])
    sw = hopf.sweedler()
    dz2 = hopf.drinfeld_double(z2)
    dsw = hopf.drinfeld_double(sw)
    return [("k[Z/2]", z2), ("sweedler", sw), ("D(k[Z/2])", dz2),
            ("D(sweedler)", dsw)]


def test_criterion_1_structural_suite():
    """Hopf/quasitriangular/ribbon axioms, snake identities, hexagons and
    the twist relation, exactly (zero tolerance)."""
    ok = True
    for name, h in structural_builtins():
        rep = hopf.verify_hopf_axioms(h)
        rep.merge(hopf.verify_quasitriangular(h))
        ok &= _line("1 axioms %s" % name, rep.ok)
        if h.ribbon is None:
            vs = hopf.solve_ribbon(h)
            if vs:
                h = h.with_ribbon(vs[-1])
        if h.ribbon is not None:
            ok &= _line("1 ribbon axioms %s" % name,
                        hopf.verify_ribbon(h).ok)
        f = h.field
        sd = simples_data(h)
        snake_ok = True
        hex_ok = True
        twist_ok = True
        def braiding(x, y):
            return word_matrix_on(h, "br(X, Y)", X=x, Y=y)

        def twist(x):
            return word_matrix_on(h, "tw(X)", X=x)

        for x in list(sd.simples) + list(sd.projectives):
            eye = Matrix.identity(f, x.dim)
            ev = word_matrix_on(h, "ev(X)", X=x)
            coev = word_matrix_on(h, "coev(X)", X=x)
            snake_ok &= kron(eye, ev) * kron(coev, eye) == eye
            snake_ok &= kron(ev, eye) * kron(eye, coev) == eye
            if h.ribbon is not None:
                evt = word_matrix_on(h, "evt(X)", X=x)
                coevt = word_matrix_on(h, "coevt(X)", X=x)
                snake_ok &= kron(evt, eye) * kron(eye, coevt) == eye
                snake_ok &= kron(eye, evt) * kron(coevt, eye) == eye
        for x in sd.simples:
            for y in sd.simples:
                for z in sd.simples[:2]:
                    lhs = braiding(tensor_obj(x, y), z)
                    rhs = kron(braiding(x, z), Matrix.identity(f, y.dim)) * \
                        kron(Matrix.identity(f, x.dim), braiding(y, z))
                    hex_ok &= lhs == rhs
                if h.ribbon is not None:
                    lhs = twist(tensor_obj(x, y))
                    rhs = braiding(y, x) * braiding(x, y) * \
                        kron(twist(x), twist(y))
                    twist_ok &= lhs == rhs
        ok &= _line("1 snakes %s" % name, snake_ok)
        ok &= _line("1 hexagons %s" % name, hex_ok)
        if h.ribbon is not None:
            ok &= _line("1 twist relation %s" % name, twist_ok)
    assert ok


@pytest.mark.xfail(strict=True, reason=DSW_OBSTRUCTION)
def test_criterion_1_dsweedler_ribbon_axioms():
    dsw = hopf.drinfeld_double(hopf.sweedler())
    vs = hopf.solve_ribbon(dsw)
    _line("1 ribbon axioms D(sweedler)", bool(vs), DSW_OBSTRUCTION)
    assert vs, "no ribbon element exists on D(Sweedler)"


def _coend_suite_on(h, tag):
    cd = coend.build_full(h)
    f = cd.field
    n = h.dim
    eye = Matrix.identity(f, n)
    ok = _line("2 lambda(Lambda)=1 %s" % tag,
               (cd.lambda_ * cd.Lambda).data[0].is_one())
    ok &= _line("2 omega(id x Lambda)=zeta lambda %s" % tag,
                cd.omega * kron(eye, cd.Lambda) == cd.lambda_.scale(cd.zeta))
    ok &= _line("2 zeta = D+ D- %s" % tag,
                cd.Delta_plus * cd.Delta_minus == cd.zeta)
    ok &= _line("2 S^2 = zeta S_L^{-1} %s" % tag,
                cd.S_transform * cd.S_transform ==
                invert(cd.antipode_L).scale(cd.zeta))
    ok &= _line("2 kappa(S x id)=omega %s" % tag,
                cd.kappa * kron(cd.S_transform, eye) == cd.omega and
                cd.kappa * kron(eye, cd.S_transform) == cd.omega)
    ok &= _line("2 omega(S x id)=omegabar %s" % tag,
                cd.omega * kron(cd.antipode_L, eye) == cd.omega_bar and
                cd.omega * kron(eye, cd.antipode_L) == cd.omega_bar)
    ok &= _line("2 modularity %s" % tag, coend.modularity_test(cd))
    return cd, ok


def test_criterion_2_coend_suite(dz2_ribbon):
    cd, ok = _coend_suite_on(dz2_ribbon, "D(k[Z/2])")
    # kZ2 with the trivial R-matrix is not modular
    z2 = hopf.group_algebra([2])
    cdz = coend.build_coend(z2)
    coend.solve_structure_morphisms(cdz)
    ok &= _line("2 non-modularity k[Z/2]", not coend.modularity_test(cdz))
    assert ok


@pytest.mark.xfail(strict=True, reason=DSW_OBSTRUCTION)
def test_criterion_2_coend_suite_dsweedler():
    dsw = hopf.drinfeld_double(hopf.sweedler())
    vs = hopf.solve_ribbon(dsw)
    _line("2 coend suite D(sweedler)", bool(vs), DSW_OBSTRUCTION)
    assert vs, "coend needs a ribbon element; none exists on D(Sweedler)"
    _coend_suite_on(dsw.with_ribbon(vs[0]), "D(sweedler)")


def test_criterion_3_characters(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    f = h.field
    n = h.dim
    ok = True
    for x in list(dz2_simples.simples) + list(dz2_simples.projectives):
        chi, chk = coend.characters(cd, x)
        rhs = Matrix.zeros(f, 1, n)
        for c in range(n):
            acc = f.zero()
            for p in range(n):
                acc = acc + chk.matrix.data[p] * cd.omega.data[p * n + c]
            rhs.data[c] = acc
        ok &= chi.matrix == rhs
    _line("3 chi = omega(chk x id)", ok)
    stack = None
    for s in dz2_simples.simples:
        v = coend.cocharacter(cd, s).matrix
        stack = v if stack is None else stack.hstack(v)
    ok &= _line("3 cocharacters independent", rank(stack) == dz2_simples.count)
    cut_ok = True
    for x in [trivial_module(h)] + list(dz2_simples.simples) + \
            list(dz2_simples.projectives):
        coend.cutting_decomposition(cd, x)
    ok &= _line("3 cutting decompositions exist", cut_ok)
    m, _, _ = coend.cutting_decomposition(cd, trivial_module(h))
    ok &= _line("3 m = 1 for unit on D(k[Z/2])", m == 1)
    assert ok


@pytest.mark.xfail(strict=True, reason=DSW_OBSTRUCTION)
def test_criterion_3_maschke_dsweedler():
    dsw = hopf.drinfeld_double(hopf.sweedler())
    vs = hopf.solve_ribbon(dsw)
    _line("3 m = 0 for unit on D(sweedler)", bool(vs), DSW_OBSTRUCTION)
    assert vs, "cutting on D(Sweedler) needs its (nonexistent) coend"


def test_criterion_4_cardy_suite(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    f = h.field
    sd = dz2_simples
    fa, rep, ops = cardy.defect_algebra(cd)
    one_idx = sd.trivial_index()
    ok = _line("4 O_1 = id", ops[one_idx] == Matrix.identity(f, h.dim))
    stat = {name: status for name, status, _ in rep.checks}
    ok &= _line("4 composition law", stat["O_E . O_D = O_{E x D} on all simple pairs"] == "pass")
    formulas_ok = True
    for s in sd.simples:
        cardy.defect_operator(cd, s)  # raises on formula mismatch
    ok &= _line("4 two defect formulas agree", formulas_ok)
    ok &= _line("4 span dim = #simples",
                stat["span{O_S} has dimension = number of simples"] == "pass")
    ok &= _line("4 constants = Grothendieck ring",
                stat["structure constants match the Grothendieck ring"] == "pass")
    ok &= _line("4 semisimple for D(k[Z/2])", repcat.radical_basis(fa) == [])
    assert ok


@pytest.mark.xfail(strict=True, reason=DSW_OBSTRUCTION)
def test_criterion_4_nondiagonalizable_dsweedler():
    dsw = hopf.drinfeld_double(hopf.sweedler())
    vs = hopf.solve_ribbon(dsw)
    _line("4 non-diagonalizable defect on D(sweedler)", bool(vs),
          DSW_OBSTRUCTION)
    assert vs, "defect operators on D(Sweedler) need its (nonexistent) coend"


def test_criterion_5_torus_certificates(dz2_ribbon, dz2_coend):
    cartan, rep = cardy.torus_partition(dz2_ribbon, with_coend=dz2_coend)
    ok = _line("5 certificate D(k[Z/2])", rep.ok)
    ok &= _line("5 C = I4 for D(k[Z/2])",
                cartan == [[1 if i == j else 0 for j in range(4)]
                           for i in range(4)])
    sw = hopf.sweedler()
    cartan_sw, rep_sw = cardy.torus_partition(sw)
    ok &= _line("5 certificate sweedler", rep_sw.ok)
    ok &= _line("5 C = [[1,1],[1,1]] for sweedler", cartan_sw == [[1, 1], [1, 1]])
    dsw = hopf.drinfeld_double(hopf.sweedler())
    cartan_dsw, rep_dsw = cardy.torus_partition(dsw)
    ok &= _line("5 certificate D(sweedler)", rep_dsw.ok)
    assert ok


def test_criterion_6_symplectic_fermions():
    ok = True
    for npairs in [1, 2, 3]:
        fa = cardy.sf_fusion_algebra(npairs)
        f = fa.field
        I1, P1, T, PT = range(4)
        c = f.from_rational(2 ** (2 * npairs - 1))
        good = fa.mult[P1][P1] == {I1: f.one()}
        good &= fa.mult[P1][T] == {PT: f.one()}
        good &= fa.mult[T][T] == {I1: c, P1: c}
        good &= fa.mult[T][PT] == {I1: c, P1: c}
        nvec = fa.basis_vec(T) - fa.basis_vec(PT)
        good &= fa.mul_vec(nvec, nvec).is_zero()
        good &= len(repcat.radical_basis(fa)) > 0
        ok &= _line("6 SF(%d) relations" % npairs, good)
    assert ok


def test_criterion_7_two_point_square(dz2_coend, dz2_simples):
    cd = dz2_coend
    sd = dz2_simples
    f = cd.field
    rng = random.Random(2024)
    count = 0
    while count < 20:
        xa, xb, ya, yb, k = (rng.choice(sd.simples) for _ in range(5))
        fs = hom_basis(tensor_obj(xa, xb), k)
        gs = hom_basis(k, tensor_obj(ya, yb))
        if not fs or not gs:
            continue
        fvec = fs[0].matrix.scale(f.from_rational(rng.randint(1, 7)))
        gvec = gs[0].matrix.scale(f.from_rational(rng.randint(1, 7)))
        fm = repcat.Morphism(fs[0].dom, fs[0].cod, fvec)
        gm = repcat.Morphism(gs[0].dom, gs[0].cod, gvec)
        pa, pb, _ = cardy.bulk_two_point(cd, fm, gm, xa, xb, ya, yb, k)
        assert pa == pb
        count += 1
    _line("7 two-point square (20 pairs) D(k[Z/2])", True)


@pytest.mark.xfail(strict=True, reason=DSW_OBSTRUCTION)
def test_criterion_7_two_point_dsweedler():
    dsw = hopf.drinfeld_double(hopf.sweedler())
    vs = hopf.solve_ribbon(dsw)
    _line("7 two-point square D(sweedler)", bool(vs), DSW_OBSTRUCTION)
    assert vs, "two-point correlators on D(Sweedler) need its coend"


def test_criterion_8_oracle_equivalence(dz2, dsw):
    """The stated brute-force oracles are independent code paths; the key
    ones are exercised here (the rest live beside their operations in the
    module test files)."""
    brute = brute_ribbon_elements(dz2)
    mine = hopf.solve_ribbon(dz2)
    key = lambda m: tuple(s.sort_key() for s in m.data)
    ok = _line("8 ribbon oracle D(k[Z/2])",
               sorted(map(key, brute)) == sorted(map(key, mine)))
    ok &= _line("8 ribbon oracle D(sweedler) (both empty)",
                brute_ribbon_elements(dsw) == [] and hopf.solve_ribbon(dsw) == [])
    from oracles import group_double_table_z2
    table = group_double_table_z2()
    one = dz2.field.one()
    good = all(dz2.mult[i][j] == {k: one} for (i, j), k in table.items())
    ok &= _line("8 double table oracle", good)
    assert ok

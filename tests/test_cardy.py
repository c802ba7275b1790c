import copy
import random

import pytest

from mtc import hopf, repcat, coend, cardy, diagrams
from mtc.linalg import Matrix, kron, _matrix_colfn
from mtc.coend import carrier_bimodule
from mtc.repcat import (trivial_module, regular_module, tensor_obj, dual_obj,
                        direct_sum, hom_basis, simples_data,
                        composition_factors, grothendieck_ring)
from mtc.cardy import (CardyError, boundary_state, annulus_amplitude,
                       annulus_closed_channel, torus_partition,
                       defect_operator, defect_algebra, sf_fusion_algebra,
                       bulk_two_point, adjunction_maps, cardy_action,
                       boundary_field_content, bulk_field_content,
                       disorder_field_content,
                       nondiagonalizable_defect, defect_minimal_polynomial)
from oracles import operator_minimal_polynomial_oracle, dense_action


def test_field_content(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    m, n = dz2_simples.simples[0], dz2_simples.simples[1]
    bf = boundary_field_content(m, n)
    assert bf.dim == m.dim * n.dim
    bulk = bulk_field_content(cd)
    assert bulk.module.dim == h.dim
    assert bulk.is_module(cd)
    dis = disorder_field_content(cd, trivial_module(h))
    assert dis.is_module(cd)
    # bulk = disorder(1) under the canonical identification k (x) L = L
    assert dis.module.dim == bulk.module.dim
    assert dis.action == bulk.action
    dis2 = disorder_field_content(cd, dz2_simples.simples[2])
    assert dis2.is_module(cd)
    # one entry bumped off the unit's support breaks associativity alone;
    # e . mu for an idempotent e != 1 of L is associative but does not fix
    # the unit
    a = cd.algebra
    free = next(j for j in range(h.dim) if cd.eta.data[j].is_zero())
    e = next(v for v in map(a.basis_vec, range(a.dim))
             if a.mul_vec(v, v) == v and v != a.unit)
    for lm in (bulk, dis2):
        bumped = lm.action.copy()
        bumped[0, free] = bumped[0, free] + h.field.one()
        eye = Matrix.identity(h.field, lm.module.dim // h.dim)
        not_unital = kron(eye, a.left_mult_matrix(e)) * lm.action
        for action, failing in ((bumped, [1]), (not_unital, [0])):
            assert not cardy.LModule(lm.module, action).is_module(cd)
            assert _failed_module_words(cd, lm.module, action) == failing


def _failed_module_words(cd, module, action):
    """The indices in cardy.MODULE_WORDS of the axioms that the action
    on module fails."""
    env = coend.word_env(cd, {"W": module}, rho=(action, "W x L", "W"))
    return [i for i, words in enumerate(cardy.MODULE_WORDS)
            if not diagrams.words_agree(env, words)]


def test_boundary_states(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    one = trivial_module(h)
    # outgoing state of the trivial boundary condition is eta
    assert boundary_state(cd, one, "out").matrix == cd.eta
    # additivity in direct sums
    x = direct_sum(dz2_simples.simples[0], dz2_simples.simples[1])
    assert boundary_state(cd, x, "out").matrix == \
        boundary_state(cd, dz2_simples.simples[0], "out").matrix + \
        boundary_state(cd, dz2_simples.simples[1], "out").matrix
    assert boundary_state(cd, x, "in").matrix == \
        boundary_state(cd, dz2_simples.simples[0], "in").matrix + \
        boundary_state(cd, dz2_simples.simples[1], "in").matrix
    # in/out compatibility: (chi_m . S) . chk_n equals the kappa-transported
    # annulus datum lambda . chk_{m* x n}   [oracle: both sides as exact
    # 1x1 matrices]
    for m in dz2_simples.simples:
        for n in dz2_simples.simples:
            lhs = boundary_state(cd, m, "in").matrix * \
                boundary_state(cd, n, "out").matrix
            rhs = cd.lambda_ * annulus_amplitude(cd, m, n).matrix
            assert lhs == rhs


def test_annulus(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    one = trivial_module(h)
    assert annulus_amplitude(cd, one, one).matrix == cd.eta
    # closed channel = S . open channel
    m, n = dz2_simples.simples[1], dz2_simples.simples[2]
    assert annulus_closed_channel(cd, m, n).matrix == \
        cd.S_transform * annulus_amplitude(cd, m, n).matrix
    # decomposition into composition factors of m* (x) n
    sd = dz2_simples
    for m in sd.simples:
        for n in sd.simples:
            mult = composition_factors(tensor_obj(dual_obj(m), n), sd)
            expect = Matrix.zeros(h.field, h.dim, 1)
            for k, c in enumerate(mult):
                if c:
                    expect = expect + coend.cocharacter(cd, sd.simples[k]) \
                        .matrix.scale(h.field.from_rational(c))
            assert annulus_amplitude(cd, m, n).matrix == expect
    # annulus symmetry under swapping the boundary conditions:
    # S(annulus(m,n)) = annulus(n,m) via the antipode-side symmetry
    for m in sd.simples:
        for n in sd.simples:
            assert cd.antipode_L * annulus_amplitude(cd, m, n).matrix == \
                annulus_amplitude(cd, n, m).matrix


def test_torus_dz2(dz2_ribbon, dz2_coend):
    cartan, rep = torus_partition(dz2_ribbon, with_coend=dz2_coend)
    assert rep.ok
    assert cartan == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_torus_sweedler(sweedler):
    # the Cartan matrix of the Sweedler module category, with certificate
    cartan, rep = torus_partition(sweedler)
    assert rep.ok
    assert cartan == [[1, 1], [1, 1]]


def test_torus_double_sweedler(dsw):
    cartan, rep = torus_partition(dsw)
    assert rep.ok
    total = sum(cartan[u][v] * simples_data(dsw).simples[u].dim *
                simples_data(dsw).simples[v].dim
                for u in range(4) for v in range(4))
    assert total == dsw.dim


def test_torus_double_z4():
    """D(Z/4) needs no ribbon for the certificate and has simples that are
    not self-dual, so the dual permutation in [L : S_{U*} x S_V] matters."""
    h = hopf.builtin("double_group_algebra", [4])
    cartan, rep = torus_partition(h)
    assert rep.ok, str(rep)
    assert cartan == [[int(i == j) for j in range(16)] for i in range(16)]
    assert simples_data(h).dual_permutation() != list(range(16))


def test_torus_certificate_fails_on_a_bimodule_with_the_wrong_duals(
        dz3, monkeypatch):
    """Without S in the left factor the carrier is still a bimodule, since
    D(Z/3) is commutative, but it holds S_U x S_U where the certificate
    wants S_{U*} x S_U.  Eight of the nine simples are not self-dual, so
    16 of the 81 pairs fail while the factor check passes.  The carrier
    bimodule is cached on its algebra, so the broken one is built on a
    fresh copy of D(Z/3)."""
    h = dz3.with_ribbon(dz3.ribbon)
    left, right = carrier_bimodule(h)
    # S^2 = 1 on D(Z/3), so this cancels the antipode of the left factor
    bad = repcat.ModuleObject(h, h.dim, [
        left.act_colfn(h.antipode * h.basis_vec(a)) for a in range(h.dim)])
    monkeypatch.setattr(coend, "carrier_bimodule", lambda a: (bad, right))
    with pytest.raises(CardyError) as exc:
        torus_partition(h)
    report = str(exc.value).splitlines()
    assert "PASS carrier bimodule is a T-module" in report
    assert "FAIL certificate (U=0,V=0)  [multiplicity of S_{U*} x S_V = 0, " \
        "Cartan = 1]" in report
    assert sum(line.startswith("FAIL certificate (U=") for line in report) \
        == 16


def test_torus_fails_fast_on_a_carrier_that_is_no_module(monkeypatch):
    """With the right factor untransposed, the carrier is not a module over
    H (x) H and its multiplicities mean nothing: the certificate is
    skipped and the factor check fails."""
    h = hopf.sweedler()
    left, right = carrier_bimodule(h)
    bad = repcat.ModuleObject(h, h.dim, [_matrix_colfn(m.transpose())
                                         for m in dense_action(right)])
    monkeypatch.setattr(coend, "carrier_bimodule", lambda a: (left, bad))
    cartan, rep = torus_partition(h)
    assert cartan == [[1, 1], [1, 1]]
    checks = {name: (status, w) for name, status, w in rep.checks}
    assert checks["carrier bimodule is a T-module"] == ("fail", None)
    assert checks["composition multiplicities equal the Cartan matrix"] == \
        ("skip", "carrier is not a T-module")
    assert not rep.ok


def test_carrier_bimodule(dz2, dsw):
    """On D(Z/2) and on the non-commutative D(Sweedler): the factors'
    columns against the transposed multiplication matrices, xi ->
    xi(S(e_a) . ) on the left and xi -> xi( . e_a) on the right."""
    for h in (dz2, dsw):
        left, right = carrier_bimodule(h)
        assert left.validate() and right.validate()
        la, ra = dense_action(left), dense_action(right)
        assert all(a * b == b * a for a in la for b in ra)
        for a in range(h.dim):
            e = h.basis_vec(a)
            assert la[a] == h.left_mult_matrix(h.antipode * e).transpose()
            assert ra[a] == h.right_mult_matrix(e).transpose()


def test_torus_factor_check_fails_on_factors_that_do_not_commute(
        dsw, monkeypatch):
    """D(Sweedler) is not commutative, so a carrier whose right factor is
    its left factor is a module over each factor but not over H (x) H:
    the check on the generators fails, as the check on all pairs of basis
    elements does."""
    h = dsw
    left, _ = carrier_bimodule(h)
    la = dense_action(left)
    assert not all(a * b == b * a for a in la for b in la)
    monkeypatch.setattr(coend, "carrier_bimodule", lambda a: (left, left))
    cartan, rep = torus_partition(h)
    checks = {name: (status, w) for name, status, w in rep.checks}
    assert checks["carrier bimodule is a T-module"] == ("fail", None)
    assert not rep.ok


def test_defect_operators(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    f = h.field
    sd = dz2_simples
    one_idx = sd.trivial_index()
    # O_1 = id (chk_1 = eta and unitality)
    assert defect_operator(cd, sd.simples[one_idx]) == \
        Matrix.identity(f, h.dim)
    # composition law and both formulas on all pairs, via defect_algebra
    fa, rep, ops = defect_algebra(cd)
    assert rep.ok, str(rep)
    # semisimple here
    assert repcat.radical_basis(fa) == []
    # O depends only on composition factors: projective covers decompose
    for i, p in enumerate(sd.projectives):
        mult = composition_factors(p, sd)
        expect = Matrix.zeros(f, h.dim, h.dim)
        for k, c in enumerate(mult):
            if c:
                expect = expect + ops[k].scale(f.from_rational(c))
        assert defect_operator(cd, p, check=False) == expect
    # nonsplit extension vs factor sum: the regular module
    reg = regular_module(h)
    mult = composition_factors(reg, sd)
    expect = Matrix.zeros(f, h.dim, h.dim)
    for k, c in enumerate(mult):
        expect = expect + ops[k].scale(f.from_rational(c))
    assert defect_operator(cd, reg, check=False) == expect


def test_sf_fusion_algebra():
    for npairs in [1, 2, 3]:
        fa = sf_fusion_algebra(npairs)
        f = fa.field
        I1, P1, T, PT = range(4)
        c = f.from_rational(2 ** (2 * npairs - 1))
        # [P1]^2 = [1]
        assert list(fa.mult[P1][P1]) == [I1] and fa.mult[P1][P1][I1].is_one()
        # [P1][T] = [PT]
        assert list(fa.mult[P1][T]) == [PT] and fa.mult[P1][T][PT].is_one()
        # [T][T] = [T][PT] = 2^{2N-1}([1]+[P1])
        for rhs in [fa.mult[T][T], fa.mult[T][PT]]:
            assert rhs == {I1: c, P1: c}
        # ([T]-[PT])^2 = 0 and non-semisimplicity
        n = fa.basis_vec(T) - fa.basis_vec(PT)
        assert fa.mul_vec(n, n).is_zero()
        assert repcat.radical_basis(fa)
        assert regular_module(fa).validate()
    # N = 1: [T][T] = 2([1]+[P1])
    fa = sf_fusion_algebra(1)
    assert fa.mult[2][2][0] == fa.field.from_rational(2)
    with pytest.raises(ValueError, match="N >= 1"):
        sf_fusion_algebra(0)


def test_adjunction_maps(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    f = h.field
    n = h.dim
    sd = dz2_simples
    x, xb = sd.simples[1], sd.simples[2]
    y, yb = x, xb
    # k = the simple class of x (x) xb, so the Hom spaces are nonzero
    mult = composition_factors(tensor_obj(x, xb), sd)
    k = sd.simples[next(i for i, c in enumerate(mult) if c)]
    phi, psi, counit = adjunction_maps(cd, k)
    rho_x = cardy_action(cd, x, xb)
    rho_y = cardy_action(cd, y, yb)
    fs = hom_basis(tensor_obj(x, xb), k)
    gs = hom_basis(k, tensor_obj(y, yb))
    assert fs and gs
    fm, gm = fs[0], gs[0]
    # phi and psi land in L-module intertwiners
    phi_g = phi(gm, rho_y)
    rho_free = kron(Matrix.identity(f, k.dim), cd.mu)
    assert phi_g.matrix * rho_free == \
        rho_y.matrix * kron(phi_g.matrix, Matrix.identity(f, n))
    psi_f = psi(fm, rho_x)
    assert psi_f.matrix * rho_x.matrix.promote(cd.D_field) == \
        rho_free * kron(psi_f.matrix, Matrix.identity(f, n).promote(cd.D_field))
    # counit . psi = D^{-1} f
    assert counit(psi_f).matrix == fm.matrix.promote(cd.D_field).scale(cd.D.inv())
    # triangle identities for (forget -| - x L): (id x lambda) delta^Lambda = id
    for w in [rho_x, rho_y]:
        dl = cardy.delta_lambda_coaction(cd, w)
        d = w.cod.dim
        assert kron(Matrix.identity(f, d), cd.lambda_) * dl.matrix == \
            Matrix.identity(f, d)
    # free-module triangle: ((id x lambda) x id) delta^Lambda_{k x L} = id
    free = cardy.disorder_field_content(cd, k)
    rho_kl = repcat.Morphism(tensor_obj(tensor_obj(k, cd.carrier), cd.carrier),
                             tensor_obj(k, cd.carrier), free.action)
    dl = cardy.delta_lambda_coaction(cd, rho_kl)
    d = k.dim * n
    assert kron(Matrix.identity(f, d), cd.lambda_) * dl.matrix == \
        Matrix.identity(f, d)
    # phi of the unit-induced map is the regular action map
    one = trivial_module(h)
    phi1, _, _ = adjunction_maps(cd, one)
    gs1 = hom_basis(one, tensor_obj(one, one))
    rho_11 = cardy_action(cd, one, one)
    got = phi1(gs1[0], rho_11)
    assert got.matrix == cd.eps


def test_bulk_two_point_randomized(dz2_coend, dz2_simples):
    """Acceptance criterion 7: both evaluation paths agree on >= 20
    randomized (f, g) pairs."""
    cd = dz2_coend
    sd = dz2_simples
    rng = random.Random(42)
    f = cd.field
    count = 0
    tries = 0
    while count < 20 and tries < 400:
        tries += 1
        xa, xb, ya, yb, k = (rng.choice(sd.simples) for _ in range(5))
        fs = hom_basis(tensor_obj(xa, xb), k)
        gs = hom_basis(k, tensor_obj(ya, yb))
        if not fs or not gs:
            continue
        fvec = fs[0].matrix.scale(f.from_rational(rng.randint(1, 5)))
        for extra in fs[1:]:
            fvec = fvec + extra.matrix.scale(f.from_rational(rng.randint(-3, 3)))
        gvec = gs[0].matrix.scale(f.from_rational(rng.randint(1, 5)))
        for extra in gs[1:]:
            gvec = gvec + extra.matrix.scale(f.from_rational(rng.randint(-3, 3)))
        fm = repcat.Morphism(fs[0].dom, fs[0].cod, fvec)
        gm = repcat.Morphism(gs[0].dom, gs[0].cod, gvec)
        pa, pb, m = bulk_two_point(cd, fm, gm, xa, xb, ya, yb, k)
        assert pa == pb
        count += 1
    assert count >= 20


def test_bulk_two_point_identity_square(dz2_coend, dz2_simples):
    cd = dz2_coend
    sd = dz2_simples
    # X = Y, f g identity-induced through k = X (x) Xbar composition factors
    x, xb = sd.simples[1], sd.simples[2]
    w = tensor_obj(x, xb)
    for k in sd.simples:
        fs = hom_basis(w, k)
        gs = hom_basis(k, w)
        for fm in fs:
            for gm in gs:
                pa, pb, m = bulk_two_point(cd, fm, gm, x, xb, x, xb, k)
                assert pa == pb


def test_no_nondiagonalizable_defect_in_semisimple(dz2_coend):
    assert nondiagonalizable_defect(dz2_coend) is None


def test_fusion_algebra_associativity_check_can_fail():
    fa = sf_fusion_algebra(1)
    assert regular_module(fa).validate()
    # [P1][P1] = 2[1] breaks ([P1][P1])[T] = [P1]([P1][T])
    mult = [[dict(cell) for cell in row] for row in fa.mult]
    mult[1][1][0] = mult[1][1][0] + fa.field.one()
    bad = hopf.Algebra(fa.field, fa.dim, fa.basis_labels, mult, fa.unit)
    assert not regular_module(bad).validate()


@pytest.mark.parametrize("coend_name", ["dz2_coend", "dz3_coend"])
def test_coend_algebra_is_mu(coend_name, request):
    """cd.algebra carries the solved mu: its left and right regular
    matrices are mu (e_a x id) and mu (id x e_a), and its unit is eta."""
    cd = request.getfixturevalue(coend_name)
    a = cd.algebra
    eye = Matrix.identity(cd.field, a.dim)
    assert a.unit == cd.eta
    for i in range(a.dim):
        e = a.basis_vec(i)
        assert a.left_mult_matrix(e) == cd.mu * kron(e, eye)
        assert a.right_mult_matrix(e) == cd.mu * kron(eye, e)


@pytest.mark.parametrize("coend_name, simples_name",
                         [("dz2_coend", "dz2_simples"),
                          ("dz3_coend", "dz3_simples")])
def test_defect_minimal_polynomial_matches_operator_powers(
        coend_name, simples_name, request):
    cd = request.getfixturevalue(coend_name)
    sd = request.getfixturevalue(simples_name)
    for d_obj in list(sd.simples) + list(sd.projectives):
        op = defect_operator(cd, d_obj, check=False)
        assert defect_minimal_polynomial(cd, d_obj) == \
            operator_minimal_polynomial_oracle(op), d_obj.name


def test_cardy_layer_builds_no_matrix_over_n_cubed(dz4_coend, monkeypatch):
    """On D(Z/4) (n = 16) the L-module axioms of the bulk field and of a
    disorder field, the Cardy action, the adjunction maps and both paths
    of the two-point pairing build no Matrix of more than n^3 cells: each
    f (x) id is a word step, not a Kronecker product with an identity,
    and the associativity of an action on W is checked on the columns of
    W (x) L (x) L, never as a matrix of n^5 cells."""
    cd = copy.copy(dz4_coend)
    coend.integrals_and_zeta(cd)
    coend.radford_pairing(cd)
    n = cd.h.dim
    sd = simples_data(cd.h)
    x, xb = sd.simples[1], sd.simples[2]
    w = tensor_obj(x, xb)
    k = next(s for s in sd.simples if hom_basis(w, s))
    fm, gm = hom_basis(w, k)[0], hom_basis(k, w)[0]
    cells = []
    init = Matrix.__init__

    def counted(self, field, rows, cols, data):
        cells.append(rows * cols)
        init(self, field, rows, cols, data)
    monkeypatch.setattr(Matrix, "__init__", counted)
    assert bulk_field_content(cd).is_module(cd)
    assert disorder_field_content(cd, sd.simples[3]).is_module(cd)
    rho = cardy_action(cd, x, xb)
    phi, psi, counit = adjunction_maps(cd, k)
    phi(gm, rho)
    counit(psi(fm, rho))
    pa, pb, _ = bulk_two_point(cd, fm, gm, x, xb, x, xb, k)
    monkeypatch.undo()
    assert pa == pb
    assert cells and max(cells) <= n ** 3

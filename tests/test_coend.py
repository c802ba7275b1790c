import copy
import random
import re
import time
from itertools import product

import pytest

import oracles
from mtc import hopf, repcat, coend
from mtc.report import FAIL
from mtc.linalg import (Matrix, kron, rank, solve_right, _matrix_colfn,
                        columns_matrix)
from mtc.repcat import (trivial_module, regular_module, tensor_obj, dual_obj,
                        direct_sum, hom_basis, simples_data)
from mtc.coend import (CoendError, build_coend, solve_integrals,
                       modularity_test, canonical_action, canonical_coaction,
                       characters, cocharacter, cutting_decomposition)
from mtc.cardy import cardy_action, delta_lambda_coaction
from mtc.diagrams import Env, parse, word_matrix


def test_carrier_and_iota(dz2_ribbon):
    cd = build_coend(dz2_ribbon)
    h = dz2_ribbon
    assert cd.carrier.dim == h.dim  # dim L = dim H
    assert cd.carrier.validate()

    def iota(x):
        return repcat.Morphism(tensor_obj(dual_obj(x), x), cd.carrier,
                               columns_matrix(h.field, h.dim, x.dim ** 2,
                                              cd.iota_columns(x)))
    # iota_1 factors through a 1-dim image and equals the counit vector
    assert iota(trivial_module(h)).matrix == h.counit.transpose()
    # iota is an intertwiner on simples
    for s in simples_data(h).simples:
        assert iota(s).is_intertwiner()


@pytest.fixture(scope="module", params=["dz2", "dz3", "sweedler", "dsw"])
def oracle_algebra(request):
    """D(Z/2), D(Z/3), Sweedler and D(Sweedler): the carrier and iota on
    pairs need no ribbon element."""
    return request.getfixturevalue(request.param)


def _iota_pairs_agree(x, y, indices):
    new = coend.CoendData.iota_pair_colfn(x, y)
    old = oracles.iota_pair_oracle(x.algebra, x, y)
    return all(new(idx) == old(idx) for idx in indices)


def _iota_columns_agree(x, indices):
    new = coend.CoendData.iota_columns(x)
    old = _matrix_colfn(oracles.iota_matrix_oracle(x))
    return all(new(j) == old(j) for j in indices)


def test_iota_columns_match_oracle(oracle_algebra):
    """iota_X's column function, read from the action columns, has the
    columns of the matrix that flattens the dense action, rows in order,
    on every simple and projective cover, the regular module, a dual and a
    tensor product."""
    h = oracle_algebra
    sd = simples_data(h)
    p = sd.projectives[-1]
    for x in list(sd.simples) + list(sd.projectives) + [
            regular_module(h), dual_obj(p), tensor_obj(p, sd.simples[-1])]:
        assert _iota_columns_agree(x, range(x.dim * x.dim)), x.name


def test_carrier_matches_coadjoint_oracle(oracle_algebra):
    """L, read off the bimodule F along Delta, equals the contraction of
    S(h_(1)) a h_(2), entry by entry."""
    h = oracle_algebra
    assert oracles.dense_action(coend.coadjoint_module(h)) == \
        oracles.coadjoint_oracle(h)


def test_iota_pair_matches_oracle(oracle_algebra):
    """Every column of iota_{X x Y} as a product in H* equals the
    contraction over Delta, for (H, the faithful witness) and for every
    pair of simples and projective covers."""
    h = oracle_algebra
    sd = simples_data(h)
    pairs = [(regular_module(h), coend._faithful_witness(h)[0])] + \
        list(product(list(sd.simples) + list(sd.projectives), repeat=2))
    for x, y in pairs:
        assert _iota_pairs_agree(x, y, range((x.dim * y.dim) ** 2)), \
            (x.name, y.name)


@pytest.mark.slow
def test_carrier_and_iota_pair_match_oracles_slow():
    """As the tier-1 comparisons, on D(Taft_3) (dim 81): the carrier,
    3000 seeded columns of iota on (H, the faithful witness), and 3000
    seeded columns of iota_H.  Budget: 60 s with the simples and the
    witness."""
    start = time.perf_counter()
    h = hopf.builtin("double_taft", [3])
    assert oracles.dense_action(coend.coadjoint_module(h)) == \
        oracles.coadjoint_oracle(h)
    reg = regular_module(h)
    wit, _ = coend._faithful_witness(h)
    rng = random.Random(0)
    ncols = (reg.dim * wit.dim) ** 2
    assert _iota_pairs_agree(reg, wit,
                             [rng.randrange(ncols) for _ in range(3000)])
    assert _iota_columns_agree(
        reg, [rng.randrange(reg.dim * reg.dim) for _ in range(3000)])
    assert time.perf_counter() - start < 60


def test_dinaturality_of_iota(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    for x in dz2_simples.simples:
        for y in dz2_simples.projectives:
            for fm in hom_basis(x, y):
                lhs = oracles.iota_matrix_oracle(x) * kron(
                    fm.matrix.transpose(), Matrix.identity(h.field, x.dim))
                rhs = oracles.iota_matrix_oracle(y) * kron(
                    Matrix.identity(h.field, y.dim), fm.matrix)
                assert lhs == rhs


def test_symmetric_group_algebra_coend():
    """Closed-form oracle: for k[Z/2] with trivial R the coend is the
    function algebra on Z/2 (pointwise product, antipode fixing the
    characters)."""
    z2 = hopf.group_algebra([2])
    cd = build_coend(z2)
    coend.solve_structure_morphisms(cd)
    f = z2.field
    n = 2
    # mu is commutative
    for i in range(n):
        for j in range(n):
            assert cd.mu.col_list(i * n + j) == cd.mu.col_list(j * n + i)
    # the function algebra on Z/2: e^a e^b = delta_ab e^a in the dual basis
    for a in range(n):
        for b in range(n):
            col = cd.mu.col_list(a * n + b)
            expect = [f.zero()] * n
            if a == b:
                expect[a] = f.one()
            assert col == expect
    # S permutes characters; on Z/2 every character is self-inverse
    assert cd.antipode_L == Matrix.identity(f, n)
    # modularity fails for the symmetric structure
    assert not modularity_test(cd)
    # integrals still normalize
    lam_vec, lam_row = solve_integrals(cd)
    assert (lam_row * lam_vec).data[0].is_one()


def test_structure_relations(dz2_coend):
    cd = dz2_coend
    f = cd.field
    n = cd.h.dim
    eye = Matrix.identity(f, n)
    # eps . eta = 1, mu(eta x id) = id
    assert (cd.eps * cd.eta).data[0].is_one()
    assert cd.mu * kron(cd.eta, eye) == eye
    # integral normalization (paper displayed relations)
    assert (cd.lambda_ * cd.Lambda).data[0].is_one()
    assert cd.omega * kron(eye, cd.Lambda) == cd.lambda_.scale(cd.zeta)
    assert cd.Delta_plus * cd.Delta_minus == cd.zeta
    # zeta and D for the toric-code double
    assert cd.zeta == f.one()
    assert cd.D * cd.D == cd.zeta
    # S^2 = zeta S_L^{-1} and the kappa relations
    from mtc.linalg import invert
    assert cd.S_transform * cd.S_transform == \
        invert(cd.antipode_L).scale(cd.zeta)
    assert cd.kappa * kron(cd.S_transform, eye) == cd.omega
    assert cd.kappa * kron(eye, cd.S_transform) == cd.omega
    assert cd.omega * kron(cd.antipode_L, eye) == cd.omega_bar
    assert cd.omega * kron(eye, cd.antipode_L) == cd.omega_bar
    # Frobenius snake
    assert kron(cd.kappa, eye) * kron(eye, cd.kappa_copair) == eye
    # modularity
    assert modularity_test(cd)
    assert rank(cd.omega_gram()) == n
    # kappa nondegenerate
    kgram = Matrix.zeros(f, n, n)
    for a in range(n):
        for b in range(n):
            kgram.data[a * n + b] = cd.kappa.data[a * n + b]
    assert rank(kgram) == n
    # sl2z proportionality scalars measured and nonzero
    assert cd.sl2z_scalars["st3_vs_s2"] is not None
    assert cd.sl2z_scalars["s4_vs_id"] is not None


def _integrals_or_error(solve, cd):
    try:
        return solve(cd)
    except CoendError as e:
        return str(e)


def test_integrals_match_dense_oracle(any_coend):
    """The integrals solved from sparse intertwining and integral rows equal
    the dense stacks' exactly; on the Sweedler coend, which is not
    unimodular, both fail with one message."""
    got = _integrals_or_error(solve_integrals, any_coend)
    assert got == _integrals_or_error(oracles.integrals_oracle, any_coend)
    if modularity_test(any_coend):
        assert (got[1] * got[0]).data[0].is_one()
    else:
        assert got.startswith("integral space has dimension 0")


@pytest.mark.slow
def test_integrals_match_dense_oracle_slow():
    """As the tier-1 comparison, on D(Z/5) with ribbon element 0.  Budget:
    60 s, for the ribbon solve, the structure solve, the integrals and the
    oracle."""
    start = time.perf_counter()
    h = hopf.builtin("double_group_algebra", [5])
    cd = build_coend(h.with_ribbon(hopf.solve_ribbon(h)[0]))
    coend.solve_structure_morphisms(cd)
    assert solve_integrals(cd) == oracles.integrals_oracle(cd)
    assert time.perf_counter() - start < 60


def test_integrals_rescale_zeta_copairing_and_s_exactly(dz3_coend,
                                                        monkeypatch):
    """zeta, the copairing and S are evaluated once, for the solved
    integrals, and rescaled with the normalization constant c.  c = +-1 on
    every example, so the integrals are patched to (2 Lambda, lambda / 2),
    where c = +-2: everything stored must equal the unpatched run's."""
    cd = dz3_coend
    lam_vec, lam_row = solve_integrals(cd)
    two = cd.field.from_rational(2)
    monkeypatch.setattr(coend, "solve_integrals", lambda _: (
        lam_vec.scale(two), lam_row.scale(two.inv())))
    got = coend.integrals_and_zeta(copy.copy(cd))
    for attr in ("Lambda", "lambda_", "zeta", "Delta_plus", "Delta_minus",
                 "kappa_copair", "S_transform"):
        assert getattr(got, attr) == getattr(cd, attr), attr
    assert str(got.D) == str(cd.D)


def test_kappa_checks_witness_a_bumped_s(dz3_coend):
    """The kappa relations of S are word checks: with one entry of the
    stored S moved, "kappa(S x id) = omega" fails at a basis pair."""
    bumped = copy.copy(dz3_coend)
    s = dz3_coend.S_transform.copy()
    s[0, 0] = s[0, 0] + s.field.one()
    bumped.S_transform = s
    rep, _ = coend.s_t_transforms(bumped)
    failed = {name: w for name, status, w in rep.checks if status == FAIL}
    assert re.fullmatch(r"basis pair \(\d+, \d+\)",
                        failed["kappa(S x id) = omega"])


def test_radford_pairing_rejects_a_scaled_copairing(dz3_coend):
    bad = copy.copy(dz3_coend)
    bad.kappa_copair = dz3_coend.kappa_copair.scale(
        bad.field.from_rational(2))
    with pytest.raises(CoendError, match="Frobenius snake identities fail"):
        coend.radford_pairing(bad)


def test_integral_stage_builds_no_matrix_over_n_cubed(dz4_coend,
                                                      monkeypatch):
    """The integrals, the Radford pairing and the S/T checks build no
    Matrix of more than n^3 cells on D(Z/4) (n = 16): f (x) id is a word
    step, not a Kronecker product with an identity, which has n^4."""
    cd = copy.copy(dz4_coend)
    n = cd.h.dim
    cells = []
    init = Matrix.__init__

    def counted(self, field, rows, cols, data):
        cells.append(rows * cols)
        init(self, field, rows, cols, data)
    monkeypatch.setattr(Matrix, "__init__", counted)
    coend.integrals_and_zeta(cd)
    coend.radford_pairing(cd)
    coend.s_t_transforms(cd)
    monkeypatch.undo()
    assert cells and max(cells) <= n ** 3


def _failed_after_bump(cd, attr, i, j):
    """Names of the coend Hopf checks that fail on a copy of cd whose
    structure morphism `attr` has 1 added at entry (i, j)."""
    bumped = copy.copy(cd)
    m = getattr(cd, attr).copy()
    m[i, j] = m[i, j] + cd.field.one()
    setattr(bumped, attr, m)
    rep = coend.verify_hopf_on_coend(bumped)
    return {name for name, status, _ in rep.checks if status == FAIL}


@pytest.mark.parametrize("attr, must_fail", [
    ("mu", {"associativity", "unit"}),
    ("delta", {"coassociativity", "counit"}),
    ("antipode_L", {"antipode"}),
    ("omega_bar", {"omega(S x id) = omega_bar = omega(id x S)"}),
])
def test_hopf_checks_catch_a_perturbed_structure(dz2_coend, attr, must_fail):
    assert coend.verify_hopf_on_coend(dz2_coend).ok
    assert must_fail <= _failed_after_bump(dz2_coend, attr, 0, 0)
    assert coend.verify_hopf_on_coend(dz2_coend).ok


@pytest.fixture(scope="module")
def sweedler_coend(sweedler):
    """The (non-modular) coend of the Sweedler algebra.  Its carrier is not
    a multiple of the trivial module, unlike those of the abelian doubles,
    on which every matrix is an intertwiner."""
    cd = build_coend(sweedler.with_ribbon(hopf.solve_ribbon(sweedler)[0]))
    coend.solve_structure_morphisms(cd)
    return cd


@pytest.mark.parametrize("attr, must_fail", [
    ("T_transform", "T is an intertwiner"),
    ("mu", "mu is an intertwiner"),
    ("omega", "omega is an intertwiner"),
    ("omega_bar", "omega_bar is an intertwiner"),
    ("delta", "Delta is an intertwiner"),
    ("eta", "eta is an intertwiner"),
    ("eps", "eps is an intertwiner"),
])
def test_intertwiner_checks_catch_a_nonequivariant_entry(sweedler_coend, attr,
                                                         must_fail):
    """Entry (0, 1) is bumped; eta, a column, at its x* coordinate, since
    its 1* and g* coordinates span invariants of L."""
    i, j = (2, 0) if attr == "eta" else (0, 1)
    assert sweedler_coend.h.basis_labels[2] == "x"
    assert must_fail in _failed_after_bump(sweedler_coend, attr, i, j)


@pytest.fixture(scope="module",
                params=["dz2_coend", "dz3_coend", "sweedler_coend"])
def any_coend(request):
    """The coends of D(Z/2), D(Z/3) (twists of order 3, simples that are
    not self-dual) and the Sweedler algebra (non-semisimple)."""
    return request.getfixturevalue(request.param)


def test_structure_matches_regular_witness_oracle(any_coend):
    """Every solved structure morphism equals its solve on the regular
    module alone, on D(Z/2), D(Z/3) and Sweedler."""
    cd = any_coend
    want = oracles.regular_witness_structure(cd)
    assert set(want) == {e.attr for e in coend.STRUCTURE}
    for e in coend.STRUCTURE:
        assert getattr(cd, e.attr) == want[e.attr], e.check


@pytest.mark.slow
@pytest.mark.parametrize("orders", [4, 5])
def test_structure_matches_regular_witness_oracle_slow(orders):
    """As the tier-1 comparison, on D(Z/4) and D(Z/5) with ribbon element
    0.  Budget: 60 s per case, for the ribbon solve, the structure solve
    with its certificates and the oracle."""
    start = time.perf_counter()
    h = hopf.builtin("double_group_algebra", [orders])
    cd = build_coend(h.with_ribbon(hopf.solve_ribbon(h)[0]))
    coend.solve_structure_morphisms(cd)
    want = oracles.regular_witness_structure(cd)
    for e in coend.STRUCTURE:
        assert getattr(cd, e.attr) == want[e.attr], e.check
    assert time.perf_counter() - start < 60


def test_certificate_rederives_omega_bar(dz3_coend):
    """A copy of the D(Z/3) coend with omega_bar set to omega, which
    differs from it there, fails the certificate, and only on omega_bar's
    own word on pairs of simples."""
    cd = dz3_coend
    assert cd.omega_bar != cd.omega
    assert coend.dinaturality_certificate(cd).ok
    swapped = copy.copy(cd)
    swapped.omega_bar = cd.omega
    failed = [name for name, status, _ in
              coend.dinaturality_certificate(swapped).checks
              if status == FAIL]
    assert failed
    assert all(name.startswith("omega_bar . (iota_S") for name in failed)


def _certificates_match_oracles(cd):
    """The two coend certificates report the same checks, in the same
    order and with the same verdicts, as their dense oracles."""
    assert coend.verify_hopf_on_coend(cd).checks == \
        oracles.verify_hopf_on_coend_oracle(cd).checks
    rep = coend.dinaturality_certificate(cd)
    assert rep.checks == oracles.dinaturality_certificate_oracle(cd).checks
    return rep


@pytest.mark.parametrize("name", ["dz2_coend", "dz3_coend", "dz4_coend",
                                  "sweedler_coend"])
def test_certificates_match_dense_oracles(name, request):
    """On D(Z/2), D(Z/3), D(Z/4) and the Sweedler algebra, whose objects
    have dimension 2 and whose covers are not simple."""
    assert _certificates_match_oracles(request.getfixturevalue(name)).ok


@pytest.mark.slow
def test_certificates_match_dense_oracles_slow():
    """As the tier-1 comparison, on D(Z/5) with ribbon element 0.  Budget:
    60 s, for the ribbon solve, the structure solve, both certificates and
    both oracles."""
    start = time.perf_counter()
    h = hopf.builtin("double_group_algebra", [5])
    cd = build_coend(h.with_ribbon(hopf.solve_ribbon(h)[0]))
    coend.solve_structure_morphisms(cd)
    assert _certificates_match_oracles(cd).ok
    assert time.perf_counter() - start < 60


def test_certificate_across_batches(sweedler_coend, monkeypatch):
    """The words are evaluated a batch of blocks at a time; the report is
    the same with batches of at most 5 columns, where the blocks of 4 and
    16 columns of the pairs of covers make batches of their own."""
    monkeypatch.setattr(coend, "CERT_BLOCK", 5)
    assert coend.dinaturality_certificate(sweedler_coend).checks == \
        oracles.dinaturality_certificate_oracle(sweedler_coend).checks


def _failed(rep):
    return {name for name, status, _ in rep.checks if status == FAIL}


def test_certificate_fails_only_the_pair_with_a_bumped_mu(dz3_coend):
    """mu plus e_0 w, with w the functional that is 1 on
    iota_S1 (x) iota_S2 and 0 on the other pairs of simples (they form a
    basis of L (x) L on this semisimple double), fails exactly that
    pair's entry, in the library and in the oracle alike."""
    cd = dz3_coend
    f = cd.field
    simples = simples_data(cd.h).simples
    iotas = [oracles.iota_matrix_oracle(x) for x in simples]
    pairs = [kron(a, b) for a in iotas for b in iotas]
    target = Matrix.zeros(f, len(pairs), 1)
    target[1 * len(simples) + 2, 0] = f.one()
    w = solve_right(pairs[0].hstack(*pairs[1:]).transpose(), target)
    bumped = copy.copy(cd)
    bumped.mu = cd.mu.copy()
    for c in range(w.rows):
        bumped.mu[0, c] = bumped.mu[0, c] + w[c, 0]
    rep = _certificates_match_oracles(bumped)
    assert _failed(rep) == {"mu . (iota_S1 x iota_S2)"}


def test_certificate_catches_a_shifted_block(dz3_coend, monkeypatch):
    """A direct sum whose summands sit one block further on than the
    certificate reads them: each object's entries then read the words on
    the next object, which differ from m . iota_X on the one-object
    words and on the pairs."""
    real = repcat.direct_sum
    monkeypatch.setattr(repcat, "direct_sum",
                        lambda *ms: real(*ms[1:], ms[0]))
    failed = _failed(coend.dinaturality_certificate(dz3_coend))
    assert {"Delta . iota_S0", "S . iota_S0",
            "mu . (iota_S0 x iota_S1)"} <= failed


def test_certificate_catches_a_kap_that_does_not_flip(dz3_coend,
                                                     monkeypatch):
    """The identity in place of the flip Y* (x) X* -> (X (x) Y)* fails the
    words of mu on the pairs of distinct simples, whose blocks in the one
    direct sum it swaps, though each of them has dimension 1."""
    real = coend._pair_env

    def no_flip(cd, x, y):
        env = real(cd, x, y)
        _, dom, cod = env.boxes["kap"]
        one = cd.field.one()
        return env.bind_box("kap", lambda p: [(p, one)], dom, cod)
    monkeypatch.setattr(coend, "_pair_env", no_flip)
    failed = _failed(coend.dinaturality_certificate(dz3_coend))
    assert "mu . (iota_S0 x iota_S1)" in failed
    assert "mu . (iota_S0 x iota_S0)" not in failed


def _objects(cd):
    sd = simples_data(cd.h)
    return list(sd.simples) + list(sd.projectives) + [cd.carrier]


def test_copairing_words_match_index_formulas(any_coend):
    cd = any_coend
    n = cd.h.dim
    if cd.kappa_copair is None:
        # the Sweedler coend has no integral; any copairing will do
        ones = Matrix.column(cd.field, [cd.field.one()] * n)
        cop = kron(cd.antipode_L, Matrix.identity(cd.field, n)) * \
            (cd.delta * ones)
    else:
        cop = cd.kappa_copair
        assert cd.S_transform == oracles.copairing_oracle(cd.omega, cop, n)
        assert coend.frobenius_coproduct(cd) == \
            oracles.frobenius_coproduct_oracle(cd.mu, cop, n)
    assert not cop.is_zero()
    for rho, cod, oracle in ((cd.omega, "1", oracles.copairing_oracle),
                             (cd.mu, "L", oracles.frobenius_coproduct_oracle)):
        env = coend.word_env(cd, {"W": cd.carrier}, rho=(rho, "W x L", cod),
                             copair=(cop, "1", "L x L"))
        assert word_matrix(env, coend.COPAIRING_WORD) == oracle(rho, cop, n)
    # delta^Lambda of each canonical action against the Kronecker formula
    # (rho x id)(id x copairing); the Radford copairings of the abelian
    # doubles are symmetric, the Sweedler cop is not, so it tells the two
    # legs apart
    with_cop = copy.copy(cd)
    with_cop.kappa_copair = cop
    for x in _objects(cd):
        rho = canonical_action(cd, x)
        assert delta_lambda_coaction(with_cop, rho).matrix == \
            kron(rho.matrix, Matrix.identity(cd.field, n)) * \
            kron(Matrix.identity(cd.field, x.dim), cop)


def test_action_words_match_index_formulas(any_coend):
    cd = any_coend
    h = cd.h
    n = h.dim
    objs = _objects(cd)
    for x in objs:
        d = x.dim
        dlt = canonical_coaction(cd, x).matrix
        assert dlt == oracles.coaction_oracle(oracles.iota_matrix_oracle(x),
                                              d, n)
        rho = canonical_action(cd, x).matrix
        assert rho == oracles.action_oracle(dlt, cd.omega, d, n)
        ginv = oracles.dense_act_oracle(x, h.inv_vec(h.pivot()))
        assert characters(cd, x)[0].matrix == \
            oracles.character_oracle(rho, ginv, d, n)
        env = Env(h).bind_object("X", x)
        assert cocharacter(cd, x).matrix == oracles.iota_matrix_oracle(x) * \
            oracles.dense_word_oracle(parse("coevt(X)"), env)
        xbar = objs[1]
        assert cardy_action(cd, x, xbar).matrix == \
            oracles.mirror_action_oracle(
                canonical_action(cd, xbar).matrix, d, xbar.dim, n)


def test_half_braiding_certificate(any_coend):
    """The action through the Hopf pairing equals the one read off the
    half-braiding figure, also for the mixed (Cardy) action."""
    cd = any_coend
    objs = _objects(cd)
    for x in objs:
        assert canonical_action(cd, x).matrix == \
            coend._half_braiding_action(cd, x)
        for xbar in objs[:2]:
            assert cardy_action(cd, x, xbar).matrix == \
                coend._half_braiding_action(cd, x, xbar)


def test_faithful_witness_above_desk_scale():
    """The second argument of the two-argument structure words is the sum
    of the projective covers, with a right inverse of its iota, at every
    dimension; on this non-semisimple algebra of dim 32 it is smaller than
    H, and no cover can be left out (H is Frobenius)."""
    h = hopf.tensor_hopf(hopf.drinfeld_double(hopf.sweedler()),
                         hopf.group_algebra([2]))
    assert h.dim > 16
    y, tau = coend._faithful_witness(h)
    covers = simples_data(h).projectives
    assert y.dim == sum(p.dim for p in covers) < h.dim
    iy = oracles.iota_matrix_oracle(y)
    assert rank(iy) == h.dim  # faithful
    assert iy * tau == Matrix.identity(h.field, h.dim)
    iotas = [oracles.iota_matrix_oracle(p) for p in covers]
    for i in range(len(covers)):
        rest = iotas[:i] + iotas[i + 1:]
        assert rank(rest[0].hstack(*rest[1:])) < h.dim


def test_t_transform_eigenvalues(dz2_coend, dz2_simples):
    # oracle: iota_X (id x theta_X) over the 4 simples
    cd = dz2_coend
    for s in dz2_simples.simples:
        env = Env(cd.h).bind_object("X", s)
        theta = oracles.dense_word_oracle(parse("tw(X)"), env).data[0]
        chk = cocharacter(cd, s).matrix
        assert cd.T_transform * chk == chk.scale(theta)


def test_canonical_action_relations(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    f = h.field
    n = h.dim
    one = trivial_module(h)
    # rho_1 = eps under 1 (x) L = L, delta_1 = eta
    rho1 = canonical_action(cd, one).matrix
    assert rho1 == cd.eps
    assert canonical_coaction(cd, one).matrix == cd.eta
    for x in dz2_simples.simples + dz2_simples.projectives:
        rho = canonical_action(cd, x)
        assert rho.matrix == coend._half_braiding_action(cd, x)
        assert rho.is_intertwiner()
        # module axioms
        d = x.dim
        eye_d = Matrix.identity(f, d)
        assert rho.matrix * kron(eye_d, cd.eta) == eye_d
        assert rho.matrix * kron(rho.matrix, Matrix.identity(f, n)) == \
            rho.matrix * kron(eye_d, cd.mu)
        dlt = canonical_coaction(cd, x)
        assert dlt.is_intertwiner()
        # mixed (Cardy) action certificate
        xbar = dz2_simples.simples[1]
        assert cardy_action(cd, x, xbar).matrix == \
            coend._half_braiding_action(cd, x, xbar)


def test_characters(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    f = h.field
    n = h.dim
    one = trivial_module(h)
    # chk_1 = eta
    assert cocharacter(cd, one).matrix == cd.eta
    # chi = omega(chk x id) for simples and projective covers
    for x in dz2_simples.simples + dz2_simples.projectives:
        chi, chk = characters(cd, x)
        rhs = Matrix.zeros(f, 1, n)
        for c in range(n):
            acc = f.zero()
            for p in range(n):
                acc = acc + chk.matrix.data[p] * cd.omega.data[p * n + c]
            rhs.data[c] = acc
        assert chi.matrix == rhs
    # additivity on a direct sum
    x = direct_sum(dz2_simples.simples[0], dz2_simples.simples[2])
    assert cocharacter(cd, x).matrix == \
        cocharacter(cd, dz2_simples.simples[0]).matrix + \
        cocharacter(cd, dz2_simples.simples[2]).matrix
    # pairing symmetry through the antipode: omega(S chk_X x chk_Y) =
    # omega_bar(chk_X x chk_Y)
    for x in dz2_simples.simples:
        for y in dz2_simples.simples:
            cx = cocharacter(cd, x).matrix
            cy = cocharacter(cd, y).matrix
            lhs = cd.omega * kron(cd.antipode_L * cx, cy)
            rhs = cd.omega_bar * kron(cx, cy)
            assert lhs == rhs
    # linear independence of the simple cocharacters
    stack = None
    for s in dz2_simples.simples:
        v = cocharacter(cd, s).matrix
        stack = v if stack is None else stack.hstack(v)
    assert rank(stack) == len(dz2_simples.simples)


def test_cutting(dz2_coend, dz2_simples):
    cd = dz2_coend
    h = cd.h
    one = trivial_module(h)
    # semisimple: m = 1 for the unit object (lambda . eta != 0)
    m, a, b = cutting_decomposition(cd, one)
    assert m == 1
    assert not (cd.lambda_ * cd.eta).data[0].is_zero()
    # the carrier itself
    m, a, b = cutting_decomposition(cd, cd.carrier)
    assert m <= len(hom_basis(cd.carrier, one))
    for x in dz2_simples.simples:
        cutting_decomposition(cd, x)


def test_coend_of_tensor_product(dz2_ribbon):
    """L of a tensor product Hopf algebra has dimension the product (the
    concrete realization of L_{CxD} = L_C x L_D)."""
    h = dz2_ribbon
    t = hopf.tensor_hopf(h, hopf.mirror(h))
    cd = build_coend(t)
    assert cd.carrier.dim == h.dim ** 2
    assert cd.carrier.validate()

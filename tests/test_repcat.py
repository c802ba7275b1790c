import random
import time

import pytest

from mtc import etale, hopf, repcat
from mtc.linalg import Matrix, kron, rank, IncrementalSpan, _matrix_colfn

from mtc.repcat import (trivial_module, regular_module, tensor_obj, dual_obj,
                        direct_sum, hom_basis, simples_data,
                        composition_factors, grothendieck_ring,
                        module_to_json_dict, module_from_json_dict)
from oracles import (tensor_action_oracle, radical_filtration_factors,
                     flip_matrix_oracle, word_matrix_on, hom_basis_oracle,
                     module_from_vectors_oracle, direct_sum_oracle,
                     module_file_oracle, dense_act_oracle, dense_action,
                     count_columns_matrix, isomorphism_classes_oracle,
                     primitive_idempotents_oracle, characters_oracle)


def all_test_objects(h):
    sd = simples_data(h)
    return list(sd.simples) + list(sd.projectives)


def test_module_validation(sweedler):
    reg = regular_module(sweedler)
    assert reg.validate()
    assert trivial_module(sweedler).validate()
    bad = repcat.ModuleObject(
        sweedler, 1, [_matrix_colfn(Matrix.identity(sweedler.field, 1))] * 4,
        "bad")
    assert not bad.validate()


def test_hom_basis_examples(z2):
    sd = simples_data(z2)
    s0, s1 = sd.simples
    assert len(hom_basis(s0, s0)) == 1
    assert len(hom_basis(s0, s1)) == 0  # trivial vs sign: 0-dimensional
    reg = regular_module(z2)
    assert len(hom_basis(reg, reg)) == 2


HOM_ALGEBRAS = {"dz3": ("double_group_algebra", [3]),
                "dsw": ("double_sweedler", None),
                "dz22": ("double_group_algebra", [2, 2])}


@pytest.fixture(scope="module", params=sorted(HOM_ALGEBRAS))
def hom_objects(request):
    """D(Z/3), D(Sweedler) and D(Z/2 x Z/2) with the simples, the
    projective covers, the regular module, a tensor product, a dual and a
    direct sum."""
    h = hopf.builtin(*HOM_ALGEBRAS[request.param])
    sd = simples_data(h)
    p, q = sd.projectives[-1], sd.projectives[1]
    return h, list(sd.simples) + list(sd.projectives) + [
        regular_module(h), tensor_obj(p, q), dual_obj(p),
        direct_sum(sd.simples[0], p)]


def test_hom_basis_matches_kron_oracle(hom_objects):
    """hom_basis, solved from sparse rows written from the action columns,
    gives the ordered basis of the dense Kronecker construction exactly,
    on every ordered pair of objects."""
    h, objs = hom_objects
    for x in objs:
        for y in objs:
            got = [m.matrix for m in hom_basis(x, y)]
            assert got == [m.matrix for m in hom_basis_oracle(x, y)], \
                (x.name, y.name)


def _dense_intertwines(m):
    """f X_g = Y_g f for every basis element g, on the dense actions."""
    return all(m.matrix * a == b * m.matrix for a, b in
               zip(dense_action(m.dom), dense_action(m.cod)))


@pytest.mark.parametrize("name", ["dz3", "sweedler"])
def test_is_intertwiner_can_fail(name, request):
    """On D(Z/3) and Sweedler's algebra: every basis map of End(H) is an
    intertwiner, the same map with one entry bumped is not, and neither is
    a nonzero map between two non-isomorphic simples, against all of H and
    against the generators alike; the dense products agree each time."""
    h = request.getfixturevalue(name)
    gens = repcat.generating_indices(h)
    reg = regular_module(h)
    ends = hom_basis(reg, reg)
    assert all(m.is_intertwiner() and _dense_intertwines(m) for m in ends)
    bumped = ends[0].matrix.copy()
    bumped[0, 1] = bumped[0, 1] + h.field.one()
    s0, s1 = simples_data(h).simples[:2]
    for bad in (repcat.Morphism(reg, reg, bumped),
                repcat.Morphism(s0, s1, Matrix.identity(h.field, 1))):
        assert not _dense_intertwines(bad)
        assert not bad.is_intertwiner()
        assert not bad.is_intertwiner(gens)


def test_grothendieck_ring_builds_no_dense_tensor_action(monkeypatch):
    """The Hom spaces of the fusion rules read a product's action columns
    from its factors: no product densifies its action, and no dense view
    of a column function is built at all once the simples are known."""
    h = hopf.builtin("double_group_algebra", [3])
    simples_data(h)  # the fingerprints that order the simples are dense
    calls = count_columns_matrix(monkeypatch)
    made = []
    tensor = repcat.tensor_obj
    monkeypatch.setattr(repcat, "tensor_obj",
                        lambda x, y: made.append(tensor(x, y)) or made[-1])
    grothendieck_ring(h)
    assert len(made) == 81
    assert calls == []


def test_constructors_match_dense_oracles(hom_objects):
    """Each constructor's action columns against the dense construction
    it replaced: the regular module against left multiplication, the
    trivial module against the counit, the direct sum against the copied
    blocks, a dual against rho(S(a))^T, module_from_vectors against one
    solve per basis element, and a module file with a repeated entry and
    an explicit 0 against entry-by-entry assignment."""
    h, objs = hom_objects
    f = h.field
    assert dense_action(regular_module(h)) == [
        h.left_mult_matrix(h.basis_vec(i)) for i in range(h.dim)]
    assert dense_action(trivial_module(h)) == [
        Matrix.from_rows(f, [[c]]) for c in h.counit.data]
    sd = simples_data(h)
    x = direct_sum(sd.simples[0], sd.projectives[-1], sd.simples[-1])
    assert dense_action(x) == direct_sum_oracle(
        sd.simples[0], sd.projectives[-1], sd.simples[-1])
    for y in objs[-3:]:
        assert dense_action(dual_obj(y)) == [
            dense_act_oracle(y, Matrix.column(f, h.antipode.col_list(i)))
            .transpose() for i in range(h.dim)]
    for e in sd.idempotents:
        vectors = [h.mul_vec(h.basis_vec(i), e) for i in range(h.dim)]
        assert dense_action(repcat.module_from_vectors(h, vectors, "P")) \
            == module_from_vectors_oracle(h, vectors)
    d = module_to_json_dict(x)
    k, i, j, c = d["action"][0]
    d["action"] = [[k, i, j, "5"]] + d["action"] + [
        [k, i, j, "0"], [k, i, j, c], [k, i, (j + 1) % x.dim, "0"]]
    assert dense_action(module_from_json_dict(h, d)) == \
        module_file_oracle(h, d)


def test_simples_z2(z2):
    sd = simples_data(z2)
    assert [s.dim for s in sd.simples] == [1, 1]
    assert sd.cartan == [[1, 0], [0, 1]]


def test_simples_dz2(dz2):
    # oracle: Wedderburn decomposition of the 4-dim commutative double
    sd = simples_data(dz2)
    assert [s.dim for s in sd.simples] == [1, 1, 1, 1]
    assert sd.cartan == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_simples_sweedler(sweedler):
    # oracle: radical = span{x, gx}, projective covers of dimension 2
    sd = simples_data(sweedler)
    assert [s.dim for s in sd.simples] == [1, 1]
    assert [p.dim for p in sd.projectives] == [2, 2]
    assert sd.cartan == [[1, 1], [1, 1]]
    rad = repcat.radical_basis(sweedler)
    assert len(rad) == 2
    span_idx = sorted({i for v in rad for i in range(4)
                       if not v.data[i].is_zero()})
    assert span_idx == [2, 3]  # x and gx coordinates


def test_simples_double_sweedler(dsw):
    sd = simples_data(dsw)
    assert sorted(s.dim for s in sd.simples) == [1, 1, 2, 2]
    assert sum(s.dim * p.dim for s, p in zip(sd.simples, sd.projectives)) == 16
    for s in sd.simples:
        assert len(hom_basis(s, s)) == 1  # Schur / split
    # Cartan consistency: dim Hom(P_V, U) = [U : S_V]
    for u in sd.simples:
        for v_idx, p in enumerate(sd.projectives):
            assert len(hom_basis(p, u)) == \
                composition_factors(u, sd)[v_idx]


def test_snake_identities(dz2_ribbon):
    h = dz2_ribbon
    f = h.field
    for x in all_test_objects(h) + [regular_module(h)]:
        ev, coev, evt, coevt = (word_matrix_on(h, w + "(X)", X=x)
                                for w in ("ev", "coev", "evt", "coevt"))
        eye = Matrix.identity(f, x.dim)
        assert kron(eye, ev) * kron(coev, eye) == eye
        assert kron(ev, eye) * kron(eye, coev) == eye
        assert kron(evt, eye) * kron(eye, coevt) == eye
        assert kron(eye, evt) * kron(coevt, eye) == eye


def test_dual_of_trivial(z2):
    one = trivial_module(z2)
    d = dual_obj(one)
    assert dense_action(d) == dense_action(one)


def test_dual_is_built_once_per_module(dz2_ribbon):
    h = dz2_ribbon
    x = simples_data(h).simples[1]
    d = dual_obj(x)
    assert dual_obj(x) is d and d.name == x.name + "*"
    # the cached dual is the rho(S(a))^T of a fresh module with x's action
    fresh = dual_obj(repcat.ModuleObject(
        h, x.dim, [x.action_colfn(i) for i in range(h.dim)], x.name))
    assert fresh is not d and dense_action(fresh) == dense_action(d)
    assert dual_obj(d) is dual_obj(d) and dual_obj(d) is not x


def test_action_columns_are_kept_per_module(dz3, dz3_simples):
    """On D(Z/3)'s simples, covers and their duals, action_colfn(i) has
    the sparse columns of its dense view: the rows increasing and no zero
    entries.  It is built once."""
    sd = dz3_simples
    mods = list(sd.simples) + list(sd.projectives)
    for x in mods + [dual_obj(m) for m in mods]:
        for i, act in enumerate(dense_action(x)):
            cols = x.action_colfn(i)
            fresh = _matrix_colfn(act)
            assert all(cols(j) == fresh(j) for j in range(x.dim))
            assert x.action_colfn(i) is cols


def test_duality_transport(dz2_ribbon):
    h = dz2_ribbon
    sd = simples_data(h)
    for x in sd.simples + [regular_module(h)]:
        lhs = len(hom_basis(trivial_module(h), tensor_obj(x, dual_obj(x))))
        rhs = len(hom_basis(x, x))
        assert lhs == rhs


def test_braiding_and_twist(dz2_ribbon):
    h = dz2_ribbon
    f = h.field
    sd = simples_data(h)
    one = trivial_module(h)

    def braiding(x, y):
        return word_matrix_on(h, "br(X, Y)", X=x, Y=y)

    def twist(x):
        return word_matrix_on(h, "tw(X)", X=x)

    for x in sd.simples:
        # beta on 1 (x) X is the identity under the unitor identification
        b = braiding(one, x)
        assert b == Matrix.identity(f, x.dim)
        assert repcat.Morphism(tensor_obj(one, x), tensor_obj(x, one),
                               b).is_intertwiner()
    assert twist(one) == Matrix.identity(f, 1)
    # hexagons as matrix identities on pairs
    for x in sd.simples:
        for y in sd.simples:
            for z in sd.simples:
                lhs = braiding(tensor_obj(x, y), z)
                rhs = kron(braiding(x, z), Matrix.identity(f, y.dim)) * \
                    kron(Matrix.identity(f, x.dim), braiding(y, z))
                assert lhs == rhs
    # theta_{X (x) Y} = beta beta (theta x theta)
    for x in sd.simples:
        for y in sd.simples:
            lhs = twist(tensor_obj(x, y))
            rhs = braiding(y, x) * braiding(x, y) * kron(twist(x), twist(y))
            assert lhs == rhs
    # naturality of the braiding on intertwiners
    rng = random.Random(13)
    objs = sd.simples
    for _ in range(6):
        x, y = rng.choice(objs), rng.choice(objs)
        for fm in hom_basis(x, y):
            for z in objs[:2]:
                lhs = braiding(y, z) * kron(fm.matrix, Matrix.identity(f, z.dim))
                rhs = kron(Matrix.identity(f, z.dim), fm.matrix) * braiding(x, z)
                assert lhs == rhs
    # (theta_X)* = theta_{X*}
    for x in sd.simples:
        assert twist(x).transpose() == twist(dual_obj(x))


@pytest.mark.parametrize("name", ["dz2", "dsw"])
def test_tensor_action_matches_dense_sum(name, request):
    """tensor_obj and braiding against the dense sum of Kronecker products
    over the comultiplication and the R-matrix, on simples and projective
    covers."""
    h = request.getfixturevalue(name)
    objs = all_test_objects(h)
    for x in objs:
        for y in objs:
            xy = tensor_obj(x, y)
            for g in range(h.dim):
                assert dense_action(xy)[g] == \
                    tensor_action_oracle(h.comult[g], x, y)
            assert word_matrix_on(h, "br(X, Y)", X=x, Y=y) == \
                flip_matrix_oracle(h.field, x.dim, y.dim) * \
                tensor_action_oracle(h.rmatrix, x, y)


def test_direct_sum_of_several_modules(sweedler):
    """The n-ary sum, built in one pass, equals the nested pairwise sums."""
    sd = simples_data(sweedler)
    a, b, c = sd.simples[0], sd.projectives[1], sd.simples[1]
    s = direct_sum(a, b, c)
    assert dense_action(s) == dense_action(direct_sum(direct_sum(a, b), c))
    assert s.name == "(S0 + P1 + S1)"
    assert s.validate()


def test_composition_factors(sweedler):
    sd = simples_data(sweedler)
    for i, s in enumerate(sd.simples):
        expect = [1 if j == i else 0 for j in range(sd.count)]
        assert composition_factors(s, sd) == expect
    reg = regular_module(sweedler)
    # oracle: radical series of the 4-dim algebra gives {S0, S0, S1, S1}
    assert composition_factors(reg, sd) == [2, 2]
    assert radical_filtration_factors(reg, sd) == [2, 2]
    # additivity on a constructed direct sum
    x = direct_sum(sd.simples[0], sd.projectives[1])
    assert composition_factors(x, sd) == \
        [a + b for a, b in zip(composition_factors(sd.simples[0], sd),
                               composition_factors(sd.projectives[1], sd))]


def test_filtration_strategies_agree(dsw):
    sd = simples_data(dsw)
    for x in list(sd.projectives) + [regular_module(dsw)]:
        assert composition_factors(x, sd) == radical_filtration_factors(x, sd)


def test_grothendieck_ring_dz2(dz2):
    # oracle: tensor products of 1-dim characters form the group Z/2 x Z/2
    gr = grothendieck_ring(dz2)
    sd = simples_data(dz2)
    one = sd.trivial_index()
    for i in range(4):
        assert gr[one][i][i] == 1 and sum(gr[one][i]) == 1
        assert gr[i][i][one] == 1 and sum(gr[i][i]) == 1  # every class squares to 1
    # dimension compatibility
    for i in range(4):
        for j in range(4):
            assert sum(gr[i][j][k] * sd.simples[k].dim for k in range(4)) == \
                sd.simples[i].dim * sd.simples[j].dim


def test_grothendieck_nonsemisimple(dsw):
    # the Grothendieck ring as a structure-constant algebra: associative,
    # with a nonzero trace-form radical
    gr = grothendieck_ring(dsw)
    sd = simples_data(dsw)
    f = dsw.field
    mult = [[{k: f.from_rational(c) for k, c in enumerate(gr[i][j]) if c}
             for j in range(sd.count)] for i in range(sd.count)]
    one = sd.trivial_index()
    unit = Matrix.column(f, [f.one() if k == one else f.zero()
                             for k in range(sd.count)])
    fa = hopf.Algebra(f, sd.count, [s.name for s in sd.simples], mult, unit)
    assert regular_module(fa).validate()
    assert repcat.radical_basis(fa)


def test_module_serialization(dz2, tmp_path):
    sd = simples_data(dz2)
    reg = regular_module(dz2)
    for x in [sd.simples[1], reg]:
        d = module_to_json_dict(x)
        x2 = module_from_json_dict(dz2, d)
        assert x2.dim == x.dim
        assert dense_action(x2) == dense_action(x)


def test_nonsplit_detection():
    # k[Z/3] over Q: the two-dimensional simple does not split
    from mtc.scalars import CycField
    from mtc.etale import NonSplitError
    z3 = hopf.group_algebra([3])
    # group_algebra builds over Q(zeta_3) where it splits; force Q scalars
    f = CycField(2)
    one = f.one()
    mult = [[{(i + j) % 3: one} for j in range(3)] for i in range(3)]
    unit = Matrix.column(f, [one, f.zero(), f.zero()])
    comult = [{(i, i): one} for i in range(3)]
    counit = Matrix.row(f, [one, one, one])
    antipode = Matrix.zeros(f, 3, 3)
    for i in range(3):
        antipode.data[((-i) % 3) * 3 + i] = one
    h = hopf.HopfAlgebraData(f, 3, ["1", "g", "g2"], mult, unit, comult,
                             counit, antipode, {(0, 0): one}, unit.copy(),
                             "QZ3")
    assert hopf.verify_hopf_axioms(h).ok
    with pytest.raises(NonSplitError):
        simples_data(h)
    # and with the right field it splits into three characters
    sd = simples_data(z3)
    assert [s.dim for s in sd.simples] == [1, 1, 1]


def test_one_split_gives_every_block(monkeypatch):
    """k[x]/(x^2 (x^2 - 1)) has the blocks k[x]/x^2, k and k.  The
    minimal polynomial of x splits all three off at once: one etale
    splitting, where taking one idempotent per split took two."""
    from mtc import etale
    from mtc.scalars import CycField
    f = CycField(1)
    # x^i x^j = x^(i + j), with x^4 = x^2
    mult = [[{i + j if i + j < 4 else 2 + (i + j) % 2: f.one()}
             for j in range(4)] for i in range(4)]
    a = hopf.Algebra(f, 4, ["1", "x", "x2", "x3"], mult,
                     Matrix.column(f, [1, 0, 0, 0]))
    calls = []
    split = etale.split_etale_cyclic
    monkeypatch.setattr(etale, "split_etale_cyclic",
                        lambda *args: calls.append(args) or split(*args))
    basis = [a.basis_vec(i) for i in range(4)]
    idems = etale.orthogonal_primitive_idempotents(
        f, a.mul_vec, basis, a.unit, require_split=False)
    assert len(calls) == 1
    assert sorted(etale.corner_subalgebra(f, a.mul_vec, basis, e).dim
                  for e in idems) == [1, 1, 2]
    assert sum(idems[1:], idems[0]) == a.unit
    for i, e in enumerate(idems):
        for j, e2 in enumerate(idems):
            assert a.mul_vec(e, e2) == (e if i == j else e.scale(f.zero()))


@pytest.mark.parametrize("name", ["sweedler", "double_sweedler", "taft"])
def test_quotient_by_the_radical(name):
    """A/rad on canonical representatives: the unit vectors at the free
    indices are already reduced, so they are a basis of the quotient with
    no second filter, and the reduced unit acts as one on them."""
    h = hopf.builtin(name)
    rad = IncrementalSpan(h.field, h.dim)
    for v in repcat.radical_basis(h):
        rad.add(v)
    assert 0 < rad.rank < h.dim
    mul, basis, unit = h.quotient(rad)
    assert len(basis) == h.dim - rad.rank
    assert all(rad.reduce(b) == b for b in basis)
    assert all(mul(unit, b) == b == mul(b, unit) for b in basis)


def _split_and_oracle(name, params, monkeypatch):
    """On a fresh copy of the builtin, each time: the primitive
    idempotents of H/rad, their isomorphism classes, the lifted
    idempotents, the action columns of every simple and projective cover,
    the Cartan matrix and the characters of H and of H*.  Once from the
    library, once with the class search, the corner loop and the
    characters of the oracles, with no split kept from the first run."""
    def run(opi, classes, characters):
        h = hopf.builtin(name, params)
        rad = IncrementalSpan(h.field, h.dim)
        for v in repcat.radical_basis(h):
            rad.add(v)
        mul, qbasis, unit = h.quotient(rad)
        prims = opi(h.field, mul, qbasis, unit)
        sd = simples_data(h)
        return (prims, classes(h.field, mul, qbasis, prims), sd.idempotents,
                [[[list(m.action_colfn(i)(j)) for j in range(m.dim)]
                  for i in range(h.dim)]
                 for m in sd.simples + sd.projectives],
                sd.cartan, characters(h), characters(h.dual()))
    got = run(etale.orthogonal_primitive_idempotents,
              repcat._isomorphism_classes, hopf.Algebra.characters)
    with monkeypatch.context() as m:
        m.setattr(repcat, "orthogonal_primitive_idempotents",
                  primitive_idempotents_oracle)
        m.setattr(repcat, "_isomorphism_classes", isomorphism_classes_oracle)
        etale._split_etale_cyclic.cache_clear()
        want = run(primitive_idempotents_oracle, isomorphism_classes_oracle,
                   characters_oracle)
    return got, want


@pytest.mark.parametrize("name, params", [
    ("trivial", None), ("group_algebra", None), ("sweedler", None),
    ("double_group_algebra", None), ("double_group_algebra", [3]),
    ("double_group_algebra", [4]), ("double_z2", None),
    ("double_sweedler", None), ("taft", None)])
def test_split_matches_the_corner_loop_and_class_search(name, params,
                                                        monkeypatch):
    """Every builtin but D(Taft_3), which runs under -m slow: a class
    kept as a basis of r Abar, the leaves of a split left without a
    corner and the characters read off w = c e give what the search over
    every r b p, the corner of every idempotent and the characters from
    every corner gave, in the same order.  D(Sweedler)'s simples have
    dimension 2."""
    got, want = _split_and_oracle(name, params, monkeypatch)
    assert got == want


@pytest.mark.slow
def test_split_matches_the_corner_loop_and_class_search_slow(monkeypatch):
    """D(Taft_3) (dim 81), whose semisimple quotient has blocks of
    dimension 2 and 3, within a 60 s budget."""
    start = time.perf_counter()
    got, want = _split_and_oracle("double_taft", [3], monkeypatch)
    assert got == want
    assert time.perf_counter() - start < 60

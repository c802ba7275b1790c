import hashlib
import json
import time

import pytest

from mtc import hopf
from mtc.linalg import Matrix
from mtc.scalars import CycField, format_scalar, parse_scalar
from mtc.hopf import (verify_hopf_axioms, verify_ribbon, verify_all,
                      drinfeld_double, mirror, tensor_hopf, solve_ribbon,
                      builtin, AlgebraFormatError)
from oracles import (brute_ribbon_elements, sqrt_branch_ribbon_elements,
                     group_double_table_z2,
                     hopf_axioms_oracle, quasitriangular_oracle,
                     invert_tensor2_oracle, word_matrix_on)


def test_z2_axioms_by_hand(z2):
    # oracle: the 2-element multiplication table
    assert z2.dim == 2
    one = z2.field.one()
    assert z2.mult[0][0] == {0: one}
    assert z2.mult[0][1] == {1: one}
    assert z2.mult[1][1] == {0: one}
    assert verify_all(z2).ok


def test_sweedler_axioms(sweedler):
    # oracle: symbolic expansion of the 4x4 tables encoded in the fixture
    assert sweedler.dim == 4
    rep = verify_all(sweedler)
    assert rep.ok, str(rep)
    # x * gx = 0, gx * g = -x
    assert sweedler.mult[2][3] == {}
    assert list(sweedler.mult[3][1].items()) == [(2, -sweedler.field.one())]


def test_sweedler_broken_antipode_fails(sweedler):
    bad = hopf.HopfAlgebraData(
        sweedler.field, sweedler.dim, sweedler.basis_labels, sweedler.mult,
        sweedler.unit, sweedler.comult, sweedler.counit,
        Matrix.identity(sweedler.field, 4), sweedler.rmatrix, None, "bad")
    rep = verify_hopf_axioms(bad)
    assert not rep.ok
    assert any(n == "antipode" for n, _ in rep.failures())


def test_double_z2_structure(dz2):
    assert dz2.dim == 4
    assert verify_all(dz2).ok
    # oracle: direct table construction of F(Z/2) (x) k[Z/2]
    table = group_double_table_z2()
    one = dz2.field.one()
    for (i, j), k in table.items():
        assert dz2.mult[i][j] == {k: one}
    for i in range(4):
        for j in range(4):
            if (i, j) not in table:
                assert dz2.mult[i][j] == {}
    # commutative and cocommutative
    for i in range(4):
        for j in range(4):
            assert dz2.mult[i][j] == dz2.mult[j][i]


def test_double_dims():
    for name, n in [("group_algebra", 2), ("sweedler", 4)]:
        h = builtin(name, [2] if name == "group_algebra" else None)
        assert drinfeld_double(h).dim == n * n


def test_double_sweedler_axioms(dsw):
    assert dsw.dim == 16
    rep = verify_all(dsw)
    assert rep.ok, str(rep)


def test_solve_ribbon_z2(z2):
    vs = solve_ribbon(z2)
    assert any(v == z2.unit for v in vs)


def test_noncentral_index_is_where_left_and_right_products_differ(sweedler):
    """The first column on which the dense left and right multiplications
    by a basis element differ, which verify_ribbon reports for g."""
    h = sweedler
    for i in range(h.dim):
        v = h.basis_vec(i)
        left, right = h.left_mult_matrix(v), h.right_mult_matrix(v)
        assert h.noncentral_index(v) == next(
            (j for j in range(h.dim) if left.col_list(j) != right.col_list(j)),
            None)
    assert ("v central", "fail", "basis index 2") in \
        verify_ribbon(h.with_ribbon(h.basis_vec(1))).checks


def test_solve_ribbon_dz2_matches_brute_oracle(dz2, dz2_ribbons):
    # oracle: exhaustive sympy solve of the quadratic system over the centre
    brute = brute_ribbon_elements(dz2)
    assert len(dz2_ribbons) == len(brute) == 4
    key = lambda m: tuple(s.sort_key() for s in m.data)
    assert sorted(map(key, dz2_ribbons)) == sorted(map(key, brute))
    for v in dz2_ribbons:
        assert verify_ribbon(dz2.with_ribbon(v)).ok
    # twist eigenvalues of the simples lie in {1, -1}
    from mtc import repcat
    h = dz2.with_ribbon(dz2_ribbons[0])
    sd = repcat.simples_data(h)
    for s in sd.simples:
        t = word_matrix_on(h, "tw(X)", X=s).data[0]
        assert t == h.field.one() or t == -h.field.one()


def test_double_sweedler_has_no_ribbon(dsw):
    """Spec defect, pinned: D(Sweedler) is not a ribbon Hopf algebra
    (Kauffman-Radford: the Taft double is ribbon iff the order is odd).
    Both the enumeration and the independent sympy oracle agree."""
    assert solve_ribbon(dsw) == []
    assert brute_ribbon_elements(dsw) == []


def _algebra(field, table, dim):
    """An Algebra on e_0 = 1, ..., e_{dim-1} from {(i, j): {k: rational}}."""
    mult = [[{k: field.from_rational(c) for k, c in table.get((i, j), {}).items()}
             for j in range(dim)] for i in range(dim)]
    unit = Matrix.column(field, [field.one()] + [field.zero()] * (dim - 1))
    return hopf.Algebra(field, dim, ["e%d" % i for i in range(dim)], mult, unit)


def test_characters_of_small_algebras(z2, sweedler):
    """k[Z/2] and Sweedler have the characters g -> +-1 (x -> 0 through the
    commutator ideal); the dual numbers k[t]/t^2 have one, on a block of
    dimension 2; Q(zeta_3) over Q is a block that does not split and M_2(Q)
    is its own commutator ideal, so neither has one."""
    q = CycField(1)
    unit = {(0, i): {i: 1} for i in range(4)}
    unit.update({(i, 0): {i: 1} for i in range(4)})
    dual_numbers = _algebra(q, {**unit, (1, 1): {}}, 2)
    # 1, w with w^2 = -1 - w
    zeta3 = _algebra(q, {**unit, (1, 1): {0: -1, 1: -1}}, 2)
    # 1 = E11 + E22, E11, E12, E21
    m2 = _algebra(q, {**unit, (1, 1): {1: 1}, (1, 2): {2: 1}, (2, 3): {1: 1},
                      (3, 1): {3: 1}, (3, 2): {0: 1, 1: -1}}, 4)

    def values(a):
        return [[format_scalar(x) for x in c.data] for c in a.characters()]
    assert values(z2) == [["1", "-1"], ["1", "1"]]
    assert values(sweedler) == [["1", "-1", "0", "0"], ["1", "1", "0", "0"]]
    assert values(dual_numbers) == [["1", "0"]]
    assert values(zeta3) == []
    assert values(m2) == []


RIBBON_ORACLE_CASES = [("trivial", None), ("group_algebra", [2]),
                       ("group_algebra", [3]), ("double_z2", None),
                       ("double_group_algebra", [3]), ("double_sweedler", None)]


@pytest.mark.parametrize("name, params", RIBBON_ORACLE_CASES)
def test_solve_ribbon_matches_sqrt_branch_oracle(name, params):
    """The grouplike route gives the list of the square-root branch search,
    element by element and in order; on D(Sweedler) both are empty."""
    h = builtin(name, params)
    assert solve_ribbon(h) == sqrt_branch_ribbon_elements(h)


def test_ribbon_elements_of_dz2xz2_are_a_torsor():
    """D(Z/2 x Z/2) has 16 ribbon elements.  They form a torsor over the
    central grouplikes z with z^2 = 1, so each v_i v_0^{-1} is one."""
    h = builtin("double_group_algebra", [2, 2])
    vs = solve_ribbon(h)
    assert len(vs) == 16
    v0_inv = h.inv_vec(vs[0])
    for v in vs:
        assert verify_ribbon(h.with_ribbon(v)).ok
        z = h.mul_vec(v, v0_inv)
        assert h.left_mult_matrix(z) == h.right_mult_matrix(z)
        assert h.sparse_eq(h.comult_sparse(z), {(i, j): x * y
                           for i, x in enumerate(z.data) if not x.is_zero()
                           for j, y in enumerate(z.data) if not y.is_zero()})
        assert h.mul_vec(z, z) == h.unit


@pytest.mark.parametrize("name, params", [("double_z2", None),
                                          ("double_group_algebra", [3])])
def test_a_wrong_character_value_is_caught(name, params, monkeypatch):
    """Each character of H* with one value off by one either fails the
    grouplike assertion or changes the ribbon list."""
    h = builtin(name, params)
    oracle = sqrt_branch_ribbon_elements(h)
    chars = h.dual().characters()
    for c in range(len(chars)):
        for i in range(chars[c].rows):
            bad = [m.copy() for m in chars]
            bad[c].data[i] = bad[c].data[i] + h.field.one()
            monkeypatch.setattr(hopf.Algebra, "characters", lambda a: bad)
            try:
                got = solve_ribbon(h)
            except AssertionError as e:
                assert "is not grouplike" in str(e)
            else:
                assert got != oracle


@pytest.mark.slow
@pytest.mark.parametrize("name, params", [("double_group_algebra", [4]),
                                          ("double_taft", [3])])
def test_solve_ribbon_matches_sqrt_branch_oracle_slow(name, params):
    """As the tier-1 comparison, on D(Z/4) (4 ribbon elements) and the
    dim-81 D(Taft_3) (1).  Budget: 60 s per case; the oracle takes most of
    it."""
    start = time.perf_counter()
    h = builtin(name, params)
    assert solve_ribbon(h) == sqrt_branch_ribbon_elements(h)
    assert time.perf_counter() - start < 60


def test_drinfeld_u_and_pivot(dz2_ribbon):
    h = dz2_ribbon
    u = h.drinfeld_u()
    # S^2 = u . u^{-1} conjugation
    uinv = h.inv_vec(u)
    s2 = h.antipode * h.antipode
    for i in range(h.dim):
        assert s2 * h.basis_vec(i) == \
            h.mul_vec(h.mul_vec(u, h.basis_vec(i)), uinv)
    # u S(u) central
    c = h.mul_vec(u, h.antipode * u)
    for i in range(h.dim):
        assert h.mul_vec(c, h.basis_vec(i)) == h.mul_vec(h.basis_vec(i), c)
    # g = u v^{-1} grouplike
    g = h.pivot()
    assert h.sparse_eq(h.comult_sparse(g), hopf._outer_sparse(h, g, g))
    assert h.counit_of(g).is_one()
    # the derived elements are solved once per algebra
    rinv = h.r_inverse()
    assert h.pivot() is g and h.drinfeld_u() is u and h.r_inverse() is rinv
    one = h.unit
    assert h.mul_vec(g, h.pivot_inv()) == one
    assert h.mul_vec(h.ribbon, h.ribbon_inv()) == one
    assert h.mul_vec(h.antipode * u, h.antipode_u_inv()) == one
    assert h.sparse_eq(h.tensor_mul(dict(h.rmatrix), rinv),
                       hopf._outer_sparse(h, one, one))


def test_mirror(dz2, dz2_ribbons):
    h = dz2.with_ribbon(dz2_ribbons[0])
    m = mirror(h)
    assert verify_all(m).ok
    m2 = mirror(m)
    assert m2.rmatrix == h.rmatrix
    assert m2.ribbon == h.ribbon
    # fixed point for the trivial R
    z2 = hopf.group_algebra([2])
    assert mirror(z2).rmatrix == z2.rmatrix
    # mirrored twist eigenvalues are inverses (oracle: twist diagonalization
    # on the one-dimensional simples)
    from mtc import repcat
    sd = repcat.simples_data(h)
    sdm = repcat.simples_data(m)
    thetas = sorted(word_matrix_on(h, "tw(X)", X=s).data[0].sort_key()
                    for s in sd.simples)
    thetas_m = sorted(word_matrix_on(m, "tw(X)", X=s).data[0].inv().sort_key()
                      for s in sdm.simples)
    assert thetas == thetas_m


def test_tensor_hopf(dz2, dz2_ribbons):
    h = dz2.with_ribbon(dz2_ribbons[0])
    triv = hopf.group_algebra([1])
    t = tensor_hopf(h, triv.with_ribbon(triv.unit))
    assert t.dim == h.dim
    assert verify_all(t).ok
    t2 = tensor_hopf(h, mirror(h))
    assert t2.dim == h.dim ** 2
    assert verify_all(t2).ok, str(verify_all(t2))


def test_taft_and_its_double():
    t = hopf.taft(3)
    assert t.dim == 9
    assert verify_hopf_axioms(t).ok
    assert t.rmatrix is None


# SHA-256 of json.dumps(to_json_dict(h), sort_keys=True), recorded with the
# hand-indexed double and tensor-product loops that the smash product
# replaced; benchmark set-up writes its input files from these builtins
CONSTRUCTOR_DIGESTS = {
    ("builtin", "trivial", None):
        "377a278934a3b6157661cca6f42048133efe97a5a548eb3e4903675dafa2ac65",
    ("builtin", "group_algebra", None):
        "d1d829212fc3ecc134d1d3179fb09e700400494b62fd035c75b7dc2555656b1c",
    ("builtin", "sweedler", None):
        "ee2877bf4c25298769840e43c16521599eb19e96da998b5421695aa62ca47572",
    ("builtin", "double_group_algebra", None):
        "a343acfcdfa0efd5ab959c23d9b09fc61ca43295652630c2d181f189440c598c",
    ("builtin", "double_z2", None):
        "a343acfcdfa0efd5ab959c23d9b09fc61ca43295652630c2d181f189440c598c",
    ("builtin", "double_sweedler", None):
        "41f0b69d4ab6259909202b02bf71ad14c1c3ecc407da4a1e74efc7a37086f7ed",
    ("builtin", "taft", None):
        "40484d3242fc6a1230fa688cb6324362ce452cecaf480612d59bb222e44cd21b",
    ("builtin", "double_taft", None):
        "cd71742c17c7fdbd300a050b0d6e487af839f9e54b064c7bd463bf510ecc9466",
    ("builtin", "double_group_algebra", (2, 2)):
        "45fabef591966ac4dfe2f028f86bd80cbb6b38f06727afb27e7b1b64e6e1d057",
    ("builtin", "double_group_algebra", (4,)):
        "51e954a0313dfea499c86866af0cac59c90bdc783ed1314baf282747f475d8b4",
    ("builtin", "double_taft", (3,)):
        "cd71742c17c7fdbd300a050b0d6e487af839f9e54b064c7bd463bf510ecc9466",
    ("double", "taft", (4,)):
        "acbf7674e7a5c92c9ba7c801816a137f5c1c5be9117964ce4a1c2ad1956b2bde",
    ("tensor", "double_sweedler", "k[Z2]"):
        "0cadc5c42e72bc51e9659c17d977b435bfc2e8541c9782beabcda4636ebd890b",
    ("tensor", "double_z2", "k[Z1]"):
        "8411a5aa2b0498a9e0330591a16c416e25c8e0f4dca6b68d4acebd4f3ff0b9c4",
    ("tensor", "double_z2", "mirror"):
        "f04f7bfbcd80ea6db5876b202301a81f825cff2127858a13b7c4cdc991630655",
    ("tensor", "sweedler", "k[Z3]"):
        "1a3f63dd0569416f9e7969022446e8ee7b93428996499cff295070e4cde31ee9",
}


def _constructed(kind, name, arg):
    if kind == "builtin":
        return builtin(name, None if arg is None else list(arg))
    if kind == "double":
        return drinfeld_double(getattr(hopf, name)(*arg))
    h = builtin(name)
    k = mirror(h) if arg == "mirror" else \
        hopf.group_algebra([int(arg[len("k[Z"):-1])])
    return tensor_hopf(h, k)


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_DIGESTS, key=str),
                         ids=lambda c: "-".join(map(str, c)))
def test_constructors_keep_their_spec_bytes(case):
    """drinfeld_double and tensor_hopf, both smash products, give the same
    spec file as the loops they replaced, on every builtin, the larger
    doubles and four tensor products (over one field and over two)."""
    d = hopf.to_json_dict(_constructed(*case))
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == CONSTRUCTOR_DIGESTS[case]


def test_tensor_with_a_factor_without_r_matrix():
    """Taft(3) has no R-matrix, so neither has its product with k[Z3]: the
    product is still a Hopf algebra, with no R-matrix and no ribbon."""
    t = tensor_hopf(hopf.taft(3), hopf.group_algebra([3]))
    assert verify_hopf_axioms(t).ok
    assert t.rmatrix is None and t.ribbon is None


def test_builtin_unknown():
    with pytest.raises(hopf.HopfError):
        builtin("nonsense")


def test_serialization_roundtrip(tmp_path, dsw):
    path = tmp_path / "dsw.json"
    hopf.save_algebra(dsw, str(path))
    h2 = hopf.load_algebra(str(path))
    assert h2.dim == dsw.dim
    assert h2.mult == dsw.mult
    assert h2.comult == dsw.comult
    assert h2.antipode == dsw.antipode
    assert h2.rmatrix == dsw.rmatrix
    assert h2.unit == dsw.unit and h2.counit == dsw.counit


def test_truncated_file_errors(tmp_path, z2):
    d = hopf.to_json_dict(z2)
    del d["antipode"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(AlgebraFormatError) as err:
        hopf.load_algebra(str(path))
    assert "antipode" in str(err.value)
    path.write_text("{ not json")
    with pytest.raises(AlgebraFormatError):
        hopf.load_algebra(str(path))


# every builtin but double_taft (dim 81), whose "R invertible" solve is
# on a dense 6561 x 6561 matrix in the oracle
BUILTINS = [("trivial", None), ("group_algebra", [2, 2]), ("sweedler", None),
            ("double_group_algebra", [3]), ("double_z2", None),
            ("double_sweedler", None), ("taft", [3])]
SECTIONS = ["mult", "unit", "comult", "counit", "antipode", "rmatrix"]


def bumped(h, section, entry):
    """A copy of h with 1 added to one coefficient of its spec file."""
    d = hopf.to_json_dict(h)
    row = d[section][entry]
    row[-1] = format_scalar(parse_scalar(h.field, row[-1]) + h.field.one())
    return hopf.from_json_dict(d)


def assert_reports_match_index_loops(h):
    rep = verify_hopf_axioms(h)
    assert rep.checks == hopf_axioms_oracle(h)
    # the quasitriangular words leave out the unit factors of R13, R23
    # and R12, so they are compared only where the unit axiom holds
    if ("unit", "pass", None) in rep.checks:
        assert hopf.verify_quasitriangular(h).checks == \
            quasitriangular_oracle(h)


@pytest.mark.parametrize("name, params", BUILTINS)
def test_axiom_reports_match_index_loops_on_builtins(name, params):
    assert_reports_match_index_loops(builtin(name, params))


@pytest.mark.parametrize("name, params, entries", [
    ("sweedler", None, "first middle last"),
    ("double_group_algebra", [3], "first middle last"),
    ("double_sweedler", None, "middle"),
])
@pytest.mark.parametrize("section", SECTIONS)
def test_axiom_reports_match_index_loops_on_perturbed_copies(
        name, params, entries, section):
    """One coefficient of one structure map changed, at the first, middle
    or last entry of its section in the spec file."""
    h = builtin(name, params)
    size = len(hopf.to_json_dict(h)[section])
    where = {"first": 0, "middle": size // 2, "last": size - 1}
    for entry in entries.split():
        assert_reports_match_index_loops(bumped(h, section, where[entry]))


@pytest.mark.parametrize("name, params", [
    ("double_group_algebra", [3]), ("double_sweedler", None),
    ("double_group_algebra", [4]), ("sweedler", None)])
def test_mirror_closed_form_is_the_solved_inverse(name, params):
    """flip(R)^{-1} = ((S x id)R)_21 in closed form, against a solve."""
    h = builtin(name, params)
    rflip = {(j, i): c for (i, j), c in h.rmatrix.items()}
    assert mirror(h).rmatrix == invert_tensor2_oracle(h, rflip)


def test_mirror_rejects_bad_rmatrix(z2):
    with pytest.raises(hopf.HopfError, match="no R-matrix"):
        mirror(hopf.taft(3))
    bad = z2.with_ribbon(None)
    bad.rmatrix = {(0, 0): z2.field.from_rational(2)}
    with pytest.raises(hopf.HopfError, match="not the inverse of R"):
        mirror(bad)


def test_witnesses_across_column_blocks(monkeypatch):
    """The words are compared a block of domain columns at a time; the
    witness is the same with blocks of 7 columns."""
    monkeypatch.setattr("mtc.diagrams.BLOCK", 7)
    h = builtin("double_group_algebra", [3])
    for section in SECTIONS:
        assert_reports_match_index_loops(bumped(h, section, -1))

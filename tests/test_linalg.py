import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from mtc.scalars import CycField, Scalar
from mtc.linalg import (Matrix, kron, solve_right, kernel_basis, rank,
                        invert, rank_factor, NoSolution, IncrementalSpan,
                        minimal_polynomial, _step)
from oracles import rank_oracle_fraction, matmul_oracle, step_oracle

F = CycField(4)


def rand_matrix(rng, r, c, field=F):
    return Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(c)]
                                    for _ in range(r)])


def test_solve_right_identity():
    rng = random.Random(1)
    b = rand_matrix(rng, 3, 2)
    x = solve_right(Matrix.identity(F, 3), b)
    assert x == b


def test_solve_right_zero():
    z = Matrix.zeros(F, 2, 2)
    assert solve_right(z, Matrix.zeros(F, 2, 1)) == Matrix.zeros(F, 2, 1)


def test_solve_right_no_solution():
    a = Matrix.from_rows(F, [[1, 1], [0, 0]])
    b = Matrix.from_rows(F, [[0], [1]])
    # oracle: rank comparison of A and [A | B]
    ra = rank_oracle_fraction([[1, 1], [0, 0]])
    rab = rank_oracle_fraction([[1, 1, 0], [0, 0, 1]])
    assert ra < rab
    with pytest.raises(NoSolution):
        solve_right(a, b)


def test_solve_right_random_consistent():
    rng = random.Random(2)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = rand_matrix(rng, a.cols, rng.randint(1, 3))
        b = a * x0
        x = solve_right(a, b)
        assert a * x == b


def test_kernel_basis():
    assert kernel_basis(Matrix.identity(F, 3)) == []
    vecs = kernel_basis(Matrix.zeros(F, 2, 3))
    assert len(vecs) == 3
    for i, v in enumerate(vecs):
        assert v.data[i].is_one()
    a = Matrix.from_rows(F, [[1, 2, 3]])
    vecs = kernel_basis(a)
    assert len(vecs) == 2
    stack = vecs[0].hstack(vecs[1])
    assert rank(stack) == 2  # independence
    for v in vecs:
        assert (a * v).is_zero()


def test_kernel_random_property():
    rng = random.Random(3)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        vecs = kernel_basis(a)
        assert len(vecs) == a.cols - rank(a)
        for v in vecs:
            assert (a * v).is_zero()


def test_kron_identities():
    assert kron(Matrix.identity(F, 2), Matrix.identity(F, 3)) == Matrix.identity(F, 6)
    rng = random.Random(4)
    a = rand_matrix(rng, 2, 3)
    assert kron(a, Matrix.from_rows(F, [[1]])) == a


def test_kron_mixed_product():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(rng, 2, 2)
        b = rand_matrix(rng, 2, 2)
        c = rand_matrix(rng, 2, 2)
        d = rand_matrix(rng, 2, 2)
        # oracle: direct multiplication
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_invert_and_rank_factor():
    rng = random.Random(8)
    m = Matrix.from_rows(F, [[1, 2], [3, 5]])
    assert invert(m) * m == Matrix.identity(F, 2)
    with pytest.raises(NoSolution):
        invert(Matrix.from_rows(F, [[1, 2], [2, 4]]))
    for _ in range(10):
        a = rand_matrix(rng, 3, 4)
        b, c = rank_factor(a)
        assert b * c == a
        assert b.cols == rank(a)


def test_rank_matches_oracle():
    rng = random.Random(9)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        m = Matrix.from_rows(F, rows)
        assert rank(m) == rank_oracle_fraction(rows)


def _matrix_powers(m):
    cur = Matrix.identity(m.field, m.rows)
    while True:
        yield cur
        cur = cur * m


def _check_minimal_polynomial(m):
    f = m.field
    n = m.rows
    p = minimal_polynomial(Matrix.column(f, q.data) for q in _matrix_powers(m))
    assert p[-1].is_one()  # monic
    d = len(p) - 1
    assert 1 <= d <= n
    powers = list(islice(_matrix_powers(m), d + 1))
    value = Matrix.zeros(f, n, n)
    for c, q in zip(p, powers):
        value = value + q.scale(c)
    assert value.is_zero()  # p(M) = 0
    lower = [Matrix.column(f, q.data) for q in powers[:d]]
    assert rank(lower[0].hstack(*lower[1:])) == d  # no lower-degree relation
    return p


def test_minimal_polynomial_definition():
    rng = random.Random(11)
    for _ in range(10):
        _check_minimal_polynomial(rand_matrix(rng, 3, 3))
    # scalar matrix: degree 1
    assert _check_minimal_polynomial(Matrix.identity(F, 3).scale(
        F.from_rational(5))) == [F.from_rational(-5), F.one()]
    # a Jordan block at 2 next to the eigenvalue 3: (x - 2)^2 (x - 3),
    # the repeated root that the characteristic polynomial alone hides
    jordan = Matrix.from_rows(F, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert _check_minimal_polynomial(jordan) == \
        [F.from_rational(c) for c in (-12, 16, -7, 1)]
    # over a cyclotomic field: z * I has minimal polynomial x - z
    z = F.zeta(1)
    assert _check_minimal_polynomial(Matrix.identity(F, 2).scale(z)) == \
        [-z, F.one()]


def test_minimal_polynomial_needs_a_dependent_power():
    e0 = Matrix.column(F, [1, 0])
    e1 = Matrix.column(F, [0, 1])
    with pytest.raises(ValueError):
        minimal_polynomial([e0, e1])


def test_multi_block_stacks_match_pairwise_chain():
    rng = random.Random(12)
    blocks = [rand_matrix(rng, 3, c) for c in (1, 2, 3, 1)]
    chain = blocks[0]
    for b in blocks[1:]:
        chain = chain.hstack(b)
    assert blocks[0].hstack(*blocks[1:]) == chain
    assert blocks[2].hstack() == blocks[2]
    blocks = [rand_matrix(rng, r, 2) for r in (2, 1, 3)]
    chain = blocks[0]
    for b in blocks[1:]:
        chain = chain.vstack(b)
    assert blocks[0].vstack(*blocks[1:]) == chain
    assert chain.rows == 6 and chain.cols == 2


def test_span_reduce_is_v_minus_pivot_projection():
    rng = random.Random(13)
    for _ in range(15):
        dim = rng.randint(2, 5)
        span = IncrementalSpan(F, dim)
        for _ in range(rng.randint(0, dim)):
            span.add(rand_matrix(rng, dim, 1))
        free = span.free_indices()
        pivots = [j for j in range(dim) if j not in free]
        basis = span.basis_vectors()  # RREF: 1 at its pivot, 0 at the others
        assert len(basis) == len(pivots) == span.rank
        v = rand_matrix(rng, dim, 1)
        proj = Matrix.zeros(F, dim, 1)
        for p, b in zip(pivots, basis):
            proj = proj + b.scale(v.data[p])
        r = span.reduce(v)
        assert r == v - proj
        assert all(r.data[p].is_zero() for p in pivots)
        assert span.contains(v - r)
        assert span.reduce(r) == r


# Q, Q(zeta_3) and Q(zeta_3)(D) with D^2 = zeta_3
Q3 = CycField(3)
PRODUCT_FIELDS = [CycField(1), Q3, Q3.extend_sqrt(Q3.zeta())]


@st.composite
def matrices(draw, field, rows, cols):
    """A rows x cols matrix over `field` that is all zero, dense (no zero
    entry) or sparse, with one row and one column cleared in the sparse
    case."""
    kind = draw(st.sampled_from(["zero", "dense", "sparse"]))
    coef = st.integers(-3, 3)

    def entry(nonzero):
        num = draw(st.tuples(*[coef] * field.dim))
        if nonzero and not any(num):
            num = (1,) + num[1:]
        return Scalar(field, num, draw(st.integers(1, 3)))
    data = [field.zero() if kind == "zero" else
            entry(kind == "dense") for _ in range(rows * cols)]
    if kind == "sparse" and rows and cols:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        for k in range(rows * cols):
            if k // cols == i or k % cols == j:
                data[k] = field.zero()
    return Matrix(field, rows, cols, data)


@st.composite
def products(draw, shape):
    """Operands a, b of a product over one field of PRODUCT_FIELDS, with
    a.rows < b.cols ("wide"), a.rows > b.cols ("tall") or equal."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    n = draw(st.integers(1 if shape == "tall" else 0, 5))
    k = draw(st.integers(0, 5))
    if shape == "wide":
        m = draw(st.integers(n + 1, 6))
    elif shape == "tall":
        m = draw(st.integers(0, n - 1))
    else:
        m = n
    return draw(matrices(field, n, k)), draw(matrices(field, k, m))


@pytest.mark.parametrize("shape", ["wide", "square", "tall"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_triple_loop(shape, data):
    """The product that scans the operand with fewer cells equals the
    triple loop over every entry, exactly, on each shape."""
    a, b = data.draw(products(shape))
    assert a * b == matmul_oracle(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_promotes_to_the_extended_field(data):
    """A base-field operand times a D-extension operand, in either order,
    is taken over the extension, as the triple loop does."""
    ext = PRODUCT_FIELDS[2]
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(matrices(Q3, n, k))
    b = data.draw(matrices(ext, k, m))
    c = data.draw(matrices(Q3, m, n))
    for x, y in ((a, b), (b, c)):
        got = x * y
        assert got.field is ext
        assert got == matmul_oracle(x, y)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kron_entries(data):
    """kron(a, b)[(ia, ib), (ja, jb)] = a[ia, ja] b[ib, jb]."""
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    a = data.draw(matrices(field, data.draw(st.integers(0, 3)),
                           data.draw(st.integers(0, 3))))
    b = data.draw(matrices(field, data.draw(st.integers(0, 3)),
                           data.draw(st.integers(0, 3))))
    got = kron(a, b)
    assert (got.rows, got.cols) == (a.rows * b.rows, a.cols * b.cols)
    for ia in range(a.rows):
        for ja in range(a.cols):
            for ib in range(b.rows):
                for jb in range(b.cols):
                    assert got[ia * b.rows + ib, ja * b.cols + jb] == \
                        a[ia, ja] * b[ib, jb]


def test_step_drops_a_cancelled_sum():
    """id_2 (x) f (x) id_1 with f = [[1, -1], [2, 1], [0, 0]]: (1, 1)
    goes to (0, 3, 0) in each block, and the cancelled entry is no entry
    at all."""
    a = F.from_rational(5)
    f = {0: [(0, F.one()), (1, F.from_rational(2))],
         1: [(0, -F.one()), (1, F.one())]}
    cols = [{0: a, 1: a}, {2: F.one(), 3: F.one()}, {1: a, 2: a}]
    got = _step(cols, f.__getitem__, 2, 3, 1)
    three = F.from_rational(3)
    assert got == [{1: three * a}, {4: three},
                   {0: -a, 1: a, 3: a, 4: a * 2}]
    assert got == [step_oracle(c, f.__getitem__, 2, 3, 1) for c in cols]


def test_step_unit_coefficient_across_fields(monkeypatch):
    """A coefficient 1 of Q(z_3) on an entry of Q(z_3)(D), and a 1 of
    Q(z_3)(D) on an entry of Q(z_3), give what the product gives, over
    the extension.  A 1 of Q(z_3) that is not the field's shared one is
    taken without a product."""
    ext = PRODUCT_FIELDS[2]
    for one, w in ((Q3.one(), ext.dgen()), (Q3.scalar((1, 0)), ext.dgen()),
                   (ext.one(), Q3.zeta()), (ext.one(), Q3.one())):
        got = _step([{0: one}], lambda j: [(1, w)], 1, 2, 1)
        want = one * w
        assert got == [{1: want}] and got[0][1].field is ext
    products, one, z = [], Q3.scalar((1, 0)), Q3.zeta()
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    assert _step([{0: one}], lambda j: [(0, z)], 1, 1, 1) == [{0: z}]
    assert products == []

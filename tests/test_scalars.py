import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mtc.scalars import (CycField, Scalar, parse_scalar, format_scalar,
                         sqrt_in_field, sqrt_adjoin, cyclotomic_poly,
                         ScalarParseError, poly_trim, poly_mul, poly_divmod,
                         poly_egcd, poly_squarefree)
from mtc.linalg import Matrix
from oracles import regular_inverse_oracle


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(8) == [1, 0, 0, 0, 1]


def test_basic_arithmetic():
    f = CycField(4)
    z = f.zeta()
    assert z * z == f.from_rational(-1)
    assert z ** 4 == f.one()
    assert f.from_rational(2).inv() == f.from_rational(Fraction(1, 2))
    a = f.from_rational(3) + z * Fraction(1, 2)
    assert a.inv() * a == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inv()


def test_field_axioms_random():
    rng = random.Random(7)
    f = CycField(8)
    def rand_scalar():
        return Scalar(f, tuple(rng.randint(-4, 4) for _ in range(f.dim)),
                      rng.randint(1, 5))
    for _ in range(50):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == f.one()


def test_parse_print_roundtrip():
    f = CycField(4)
    for text in ["0", "1", "-1", "1/2", "z", "-z", "z^2", "3*z", "-1/3*z",
                 "2+3*z", "1/2-z"]:
        s = parse_scalar(f, text)
        assert parse_scalar(f, format_scalar(s)) == s
    rng = random.Random(11)
    for _ in range(40):
        s = Scalar(f, tuple(rng.randint(-9, 9) for _ in range(f.dim)),
                   rng.randint(1, 7))
        assert parse_scalar(f, format_scalar(s)) == s


def test_parse_errors():
    f = CycField(4)
    with pytest.raises(ScalarParseError):
        parse_scalar(f, "")
    with pytest.raises(ScalarParseError):
        parse_scalar(f, "1+*z")
    with pytest.raises(ScalarParseError):
        parse_scalar(f, "1/0")


def test_d_extension():
    f = CycField(4)
    two = f.from_rational(2)
    root, ext = sqrt_adjoin(two)
    assert ext.extended
    assert root * root == ext.promote(two)
    d = ext.dgen()
    s = parse_scalar(ext, "1/2+3*D")
    assert s == ext.from_rational(Fraction(1, 2)) + d * 3
    assert format_scalar(s) == "1/2+3*D"
    # (a + bD)(a - bD) = a^2 - 2 b^2
    a = ext.from_rational(3) + d
    b = ext.from_rational(3) - d
    assert a * b == ext.from_rational(7)


def test_sqrt_adjoin_in_field():
    # spec example: sqrt_adjoin(4) stays in-field with root 2
    f = CycField(4)
    root, fld = sqrt_adjoin(f.from_rational(4))
    assert fld is f and root == f.from_rational(2)
    roots = sqrt_in_field(f.from_rational(-1))
    assert sorted(format_scalar(r) for r in roots) == ["-z", "z"]
    # sqrt(2) exists in Q(zeta_8) as z - z^3
    f8 = CycField(8)
    roots = sqrt_in_field(f8.from_rational(2))
    assert len(roots) == 2
    for r in roots:
        assert r * r == f8.from_rational(2)
    # oracle: square-root search over small rationals
    f2 = CycField(2)
    for target in range(1, 30):
        expected = [q for q in (Fraction(p, 1) for p in range(-29, 30))
                    if q * q == target]
        got = sqrt_in_field(f2.from_rational(target))
        assert len(got) == len(expected)


def test_cross_field_promotion():
    f = CycField(4)
    root, ext = sqrt_adjoin(f.from_rational(3))
    a = f.from_rational(5)
    assert (root + a) - a == root
    assert a * root == root * a


# ---------------------------------------------------------------------------
# the polynomial layer, over Q (Fraction) and over Q(zeta_N) (Scalar)

EXACT = settings(derandomize=True, database=None, deadline=None,
                 max_examples=30)
COEFF_FIELDS = [None, CycField(3), CycField(4), CycField(8)]  # None: Q


def coeffs(field, bound=3):
    den = st.integers(1, 3)
    if field is None:
        return st.builds(Fraction, st.integers(-bound, bound), den)
    num = st.tuples(*[st.integers(-bound, bound)] * field.dim)
    return st.builds(lambda n, d: Scalar(field, n, d), num, den)


def polys(field, max_len=4):
    return st.lists(coeffs(field), min_size=1, max_size=max_len)


def nonzero_polys(field, max_len=4):
    return polys(field, max_len).filter(lambda p: any(p))


def poly_add(p, q):
    zero = p[0] - p[0]
    n = max(len(p), len(q))
    p, q = p + [zero] * (n - len(p)), q + [zero] * (n - len(q))
    return poly_trim([a + b for a, b in zip(p, q)])


def monic(p):
    return [c / p[-1] for c in poly_trim(p)]


@pytest.mark.parametrize("field", COEFF_FIELDS)
@EXACT
@given(data=st.data())
def test_poly_divmod_is_division_with_remainder(field, data):
    p = data.draw(polys(field))
    q = data.draw(nonzero_polys(field))
    quo, rem = poly_divmod(p, q)
    assert poly_add(poly_mul(q, quo), rem) == poly_trim(p)
    assert not rem[-1] or len(rem) < len(poly_trim(q))


@pytest.mark.parametrize("field", COEFF_FIELDS)
@EXACT
@given(data=st.data())
def test_poly_egcd_bezout_with_monic_gcd(field, data):
    a = data.draw(polys(field))
    b = data.draw(nonzero_polys(field) if not any(a) else polys(field))
    g, s, t = poly_egcd(a, b)
    assert poly_add(poly_mul(s, a), poly_mul(t, b)) == g
    assert g[-1] == 1
    for x in (a, b):
        assert not poly_divmod(x, g)[1][-1]


@pytest.mark.parametrize("field", COEFF_FIELDS)
@EXACT
@given(data=st.data())
def test_poly_squarefree_drops_repeated_factors(field, data):
    # p and q are coprime and squarefree: products of x - r over distinct r
    roots = data.draw(st.lists(coeffs(field), min_size=2, max_size=4,
                               unique=True))
    cut = data.draw(st.integers(1, len(roots) - 1))
    lead = data.draw(coeffs(field).filter(bool))
    one = lead / lead
    p, q = [lead], [one]
    for r in roots[:cut]:
        p = poly_mul(p, [-r, one])
    for r in roots[cut:]:
        q = poly_mul(q, [-r, one])
    pqq = poly_mul(p, poly_mul(q, q))
    sf = poly_squarefree(pqq)
    assert monic(sf) == monic(poly_mul(p, q))
    assert sf[-1] == pqq[-1]


@pytest.mark.parametrize("field", COEFF_FIELDS)
@EXACT
@given(data=st.data())
def test_poly_mul_matches_the_naive_product(field, data):
    p, q = data.draw(polys(field)), data.draw(polys(field))
    naive = [p[0] - p[0]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            naive[i + j] = naive[i + j] + a * b
    assert poly_mul(p, q) == poly_trim(naive)


def test_cyclotomic_polys_multiply_to_x_n_minus_1():
    for n in range(1, 13):
        phi = cyclotomic_poly(n)
        assert all(isinstance(c, int) for c in phi) and phi[-1] == 1
        assert len(phi) - 1 == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, [Fraction(c) for c in cyclotomic_poly(d)])
        assert prod == [-1] + [0] * (n - 1) + [1]


EXTENDED = sqrt_adjoin(CycField(4).from_rational(3))[1]


@pytest.mark.parametrize("field", COEFF_FIELDS[1:] + [EXTENDED])
@EXACT
@given(data=st.data())
def test_scalar_is_false_exactly_when_zero(field, data):
    s = data.draw(coeffs(field, bound=1))
    assert bool(s) == (not s.is_zero())
    assert not field.zero() and field.one()
    assert EXTENDED.extended


# ---------------------------------------------------------------------------
# the unit and zero short-circuits of Scalar arithmetic

UNIT_FIELDS = COEFF_FIELDS[1:] + [EXTENDED]


def assert_canonical(r):
    again = Scalar(r.field, r.num, r.den)
    assert again == r and hash(again) == hash(r)
    assert (again.num, again.den) == (r.num, r.den)


@pytest.mark.parametrize("field", UNIT_FIELDS)
@EXACT
@given(data=st.data())
def test_unit_and_zero_operands_give_the_right_value(field, data):
    a = data.draw(coeffs(field))
    one, zero = field.one(), field.zero()
    for r in (a * one, one * a, a * 1, 1 * a, a + zero, zero + a, a + 0,
              0 + a, a - zero, a - 0):
        assert (r.field, r.num, r.den) == (a.field, a.num, a.den)
        assert_canonical(r)
    for r in (a * zero, zero * a, a * 0, 0 * a):
        assert r.field is field and r.is_zero() and r.den == 1
        assert_canonical(r)
    assert_canonical(zero - a)
    assert zero - a == -a


@EXACT
@given(data=st.data())
def test_unit_and_zero_operands_across_the_extension(data):
    base = CycField(4)
    a = data.draw(coeffs(base))
    b = data.draw(coeffs(EXTENDED))
    pa = EXTENDED.promote(a)
    cases = [(a * EXTENDED.one(), pa), (EXTENDED.one() * a, pa),
             (b * base.one(), b), (base.one() * b, b),
             (a + EXTENDED.zero(), pa), (EXTENDED.zero() + a, pa),
             (b + base.zero(), b), (base.zero() + b, b), (b - base.zero(), b),
             (a * EXTENDED.zero(), EXTENDED.zero()),
             (b * base.zero(), EXTENDED.zero()),
             (base.zero() * b, EXTENDED.zero())]
    for got, want in cases:
        assert got.field is EXTENDED
        assert (got.num, got.den) == (want.num, want.den)
        assert_canonical(got)


def test_unit_and_zero_operands_build_no_scalar(monkeypatch):
    f = CycField(8)
    a = Scalar(f, (3, -1, 0, 2), 5)
    one, zero, minus_one = f.one(), f.zero(), -f.one()
    built = []
    init = Scalar.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    assert a * one is a and one * a is a
    assert a + zero is a and zero + a is a
    assert -zero is zero and a - zero is a
    assert a * zero is zero and zero * a is zero
    assert f.zero() is zero and f.one() is one
    assert one.inv() is one and minus_one.inv() is minus_one
    Matrix.zeros(f, 3, 4)
    Matrix.identity(f, 3)
    assert not built
    assert (a * a).den == 25 and len(built) == 1


# ---------------------------------------------------------------------------
# the inverse through the polynomial layer, against the regular
# representation

def units(field):
    """Nonzero scalars of `field`, rational ones drawn on their own since
    they take the closed form."""
    rational = coeffs(None).map(field.from_rational)
    return st.one_of(coeffs(field), rational).filter(bool)


@pytest.mark.parametrize("field", UNIT_FIELDS)
@EXACT
@given(data=st.data())
def test_inverse_matches_the_regular_representation(field, data):
    a = data.draw(units(field))
    inv = a.inv()
    want = regular_inverse_oracle(a)
    assert (inv.field, inv.num, inv.den) == (field, want.num, want.den)
    assert_canonical(inv)
    assert a * inv == 1 and inv * a == field.one()
    assert (a / a).is_one() and a ** -1 == inv


@pytest.mark.parametrize("field", UNIT_FIELDS)
def test_inverse_of_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.zero().inv()
    with pytest.raises(ZeroDivisionError):
        field.one() / 0

"""The factorizer over Q behind the etale splitting (Zassenhaus: Berlekamp
modulo a prime, Hensel lifting, recombination), against sympy's
factor_list as the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mtc import etale
from mtc.scalars import (CycField, cyclotomic_poly, format_scalar, poly_mul,
                         poly_divmod, poly_squarefree)
from oracles import qpoly_factor_oracle

EXACT = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60)


def fractions(coeffs):
    return [Fraction(c) for c in coeffs]


def factor(coeffs):
    return sorted(etale._qpoly_factor(fractions(coeffs)))


def oracle(coeffs):
    return sorted(qpoly_factor_oracle(fractions(coeffs)))


def int_polys():
    """Integer polynomials of degree 1 to 5, low degree first."""
    lower = st.integers(1, 5).flatmap(
        lambda d: st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    return st.builds(lambda cs, lead: cs + [lead], lower,
                     st.integers(-9, 9).filter(bool))


@EXACT
@given(factors=st.lists(int_polys(), min_size=1, max_size=4),
       scale=st.builds(Fraction, st.integers(-50, 50).filter(bool),
                       st.integers(1, 50)))
def test_factors_of_products_match_the_oracle(factors, scale):
    f = [Fraction(1)]
    for g in factors:
        f = poly_mul(f, fractions(g))
    f = [c * scale for c in poly_squarefree(f)]
    assert factor(f) == oracle(f)


def test_cyclotomic_polynomials_are_irreducible():
    for n in range(1, 31):
        phi = cyclotomic_poly(n)
        assert factor(phi) == [fractions(phi)]


def test_x_n_minus_1_splits_into_cyclotomic_polynomials():
    for n in range(1, 25):
        f = [-1] + [0] * (n - 1) + [1]
        want = sorted(fractions(cyclotomic_poly(d))
                      for d in range(1, n + 1) if n % d == 0)
        assert factor(f) == want == oracle(f)


# prod (x +- sqrt 2 +- sqrt 3 +- sqrt 5): irreducible over Q, but its
# Galois group (Z/2)^3 splits it into factors of degree at most 2 modulo
# every prime, so the lifted factors must be recombined
SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def test_swinnerton_dyer_polynomial_needs_recombination():
    p, fp = etale._good_prime(SWINNERTON_DYER)
    assert len(etale._berlekamp(fp, p)) >= 4
    assert factor(SWINNERTON_DYER) == [fractions(SWINNERTON_DYER)]
    assert oracle(SWINNERTON_DYER) == [fractions(SWINNERTON_DYER)]


def test_non_monic_polynomial_with_a_rational_root():
    f = [c / 4 for c in poly_mul(fractions([-2, 3]), fractions([7, 1, 5]))]
    want = [[Fraction(-2, 3), 1], [Fraction(7, 5), Fraction(1, 5), 1]]
    assert factor(f) == want == oracle(f)


# the Q-minimal polynomial of a primitive element that the etale splitting
# factors for `modular-data` on D(Z/5): five quartics
DZ5_MINPOLY = [1185921, 2874960, 4094640, 4394280, 3851830, 3196252, 2583440,
               1975760, 1367020, 803870, 414534, 192720, 82280, 32560, 11810,
               3868, 1120, 280, 60, 10, 1]


def test_degree_20_minimal_polynomial_from_the_double_of_z5():
    want = sorted(fractions(g) for g in (
        [11, 2, 4, -2, 1], [11, -3, -1, 3, 1], [11, 7, 9, 3, 1],
        [11, 17, 9, 3, 1], [81, 27, 9, 3, 1]))
    assert factor(DZ5_MINPOLY) == want == oracle(DZ5_MINPOLY)


def test_lifting_reaches_the_coefficient_bound():
    # x^2 - 9 is a square modulo 2 and 3, so it is factored modulo 5 and
    # lifted to 5^2 > 20, twice its Mignotte bound.  Modulo 5 alone both
    # roots +-3 leave the symmetric range, and neither factor is found.
    assert factor([-9, 0, 1]) == [[-3, 1], [3, 1]]


def test_constants_linear_factors_and_repeated_factors():
    assert factor([5]) == []
    assert factor([3, 6]) == [[Fraction(1, 2), 1]]
    # (x - 1)^2 (x + 2): multiplicity dropped
    assert factor([2, -3, 0, 1]) == [[-1, 1], [2, 1]]


# q over Q(z_N) with rational coefficients, low degree first, and the
# idempotents of k[t]/(q) as the splitting gave them when it tried the
# primitive element t (c = 0) first
RATIONAL_SPLITS = [
    (3, [3, 0, 1], [["1/2", "1/6+1/3*z"], ["1/2", "-1/6-1/3*z"]]),
    (3, [-1, 0, 0, 1], [["1/3", "1/3", "1/3"],
                        ["1/3", "1/3*z", "-1/3-1/3*z"],
                        ["1/3", "-1/3-1/3*z", "1/3*z"]]),
    (3, [-2, 0, 1], [["1", "0"]]),
    (4, [1, 0, 1], [["1/2", "1/2*z"], ["1/2", "-1/2*z"]]),
    (4, [-1, 0, 0, 0, 1], [["1/4", "1/4*z", "-1/4", "-1/4*z"],
                           ["1/4", "1/4", "1/4", "1/4"],
                           ["1/4", "-1/4", "1/4", "-1/4"],
                           ["1/4", "-1/4*z", "-1/4", "1/4*z"]]),
    (4, [-2, 0, 1], [["1", "0"]]),
    (4, [0, -1, 0, 1], [["1", "0", "-1"], ["0", "1/2", "1/2"],
                        ["0", "-1/2", "1/2"]]),
]


def _split_recording_thetas(field, q, monkeypatch):
    """The idempotents of k[t]/(q), split afresh, and for each primitive
    element tried the Q-coordinates of theta^1."""
    thetas = []
    minpoly = etale.minimal_polynomial

    def recorded(powers):
        powers = list(powers)
        thetas.append([x.as_fraction() for x in powers[1].data])
        return minpoly(powers)
    monkeypatch.setattr(etale, "minimal_polynomial", recorded)
    etale._split_etale_cyclic.cache_clear()
    idems = etale.split_etale_cyclic(field, q)
    return [[format_scalar(x) for x in e] for e in idems], thetas


@pytest.mark.parametrize("order, q, want", RATIONAL_SPLITS)
def test_rational_q_skips_the_primitive_element_t(order, q, want,
                                                  monkeypatch):
    """q in Q[t] kills t, so the Q-minimal polynomial of t divides q and
    has degree below dim_Q k[t]/(q): c = 0 cannot succeed.  It is not
    tried, and the idempotents, order included, are those it gave."""
    f = CycField(order)
    got, thetas = _split_recording_thetas(
        f, [f.from_rational(c) for c in q], monkeypatch)
    assert got == want
    t = [0] * f.dim + [1] + [0] * (f.dim - 1)  # the Q-coordinates of t
    assert thetas and t not in thetas


def test_nonrational_q_tries_t_first(monkeypatch):
    """q = t^2 - z over Q(z_3) has a coefficient that is not rational:
    t is tried first, and it is a primitive element."""
    f = CycField(3)
    got, thetas = _split_recording_thetas(
        f, [-f.zeta(), f.zero(), f.one()], monkeypatch)
    assert got == [["1/2", "-1/2*z"], ["1/2", "1/2*z"]]
    assert thetas == [[0, 0, 1, 0]]


# (N, D^2, q, number of factors) over Q(z_N)(D): t alone is no primitive
# element of k[t]/(q) over Q when q is rational, so theta must involve D
D_EXTENSION_SPLITS = [
    (2, -1, [-2, 0, 1], 1),
    (1, 2, [-3, 0, 1], 1),
    (4, 2, [-3, 0, 1], 1),
    (1, 2, [-2, 0, 1], 2),
    (4, 2, [2, 0, 1], 2),
    (4, 2, [-9, 0, 0, 0, 1], 2),
]


@pytest.mark.parametrize("order, dsquare, q, count", D_EXTENSION_SPLITS)
def test_split_over_a_d_extension(order, dsquare, q, count):
    """The idempotents of k[t]/(q) over a D-extension k: each is one
    modulo q, they are pairwise orthogonal and sum to 1, and there is one
    per simple factor."""
    base = CycField(order)
    k = base.extend_sqrt(base.from_rational(dsquare))
    qk = [k.from_rational(c) for c in q]
    idems = etale.split_etale_cyclic(k, qk)

    def reduced(p):
        rem = poly_divmod(p, qk)[1]
        return rem + [k.zero()] * (len(q) - 1 - len(rem))
    zero = [k.zero()] * (len(q) - 1)
    assert len(idems) == count
    for i, e in enumerate(idems):
        assert reduced(poly_mul(e, e)) == e
        for d in idems[i + 1:]:
            assert reduced(poly_mul(e, d)) == zero
    total = [sum(col, k.zero()) for col in zip(*idems)]
    assert total == [k.one()] + zero[1:]

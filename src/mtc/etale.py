"""Splitting of commutative etale algebras over Q, used to factor minimal
polynomials over the cyclotomic scalar field without implementing polynomial
factorization over number fields.

The one external primitive is factorization of rational polynomials, which is
delegated to sympy.  Polynomial arithmetic is the layer at the bottom of
`scalars`, over Fraction on the Q side and over Scalar on the k side.
Everything else is exact linear algebra:

  * k[t]/(q) for squarefree q over k = Q(z_N)(D) is etale over Q, so its
    primitive idempotents over Q coincide with those over k;
  * a primitive element of the form t + c*z exists for some small integer c;
  * factoring its Q-minimal polynomial and applying CRT interpolation gives
    the idempotents as polynomials in the primitive element.
"""

from fractions import Fraction
from itertools import accumulate, repeat

import sympy

from .scalars import (CycField, poly_trim, poly_mul, poly_divmod, poly_egcd,
                      poly_squarefree)
from .linalg import Matrix, IncrementalSpan, minimal_polynomial


# ---------------------------------------------------------------------------
# factorization over Q: the one sympy boundary (Fraction coefficients)

def _qpoly_factor(coeffs):
    """Irreducible monic factors over Q (multiplicity dropped) via sympy."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for fac, _mult in factors:
        cs = fac.all_coeffs()[::-1]  # low first
        cs = [Fraction(c.p, c.q) for c in [sympy.Rational(c) for c in cs]]
        lead = cs[-1]
        out.append([c / lead for c in cs])
    return out


# ---------------------------------------------------------------------------
# the etale splitting of k[t]/(q) over Q

def split_etale_cyclic(field, q):
    """Primitive idempotents of k[t]/(q) for squarefree q over the scalar
    field k.  Returns a list of Scalar coefficient vectors (t-basis, degree
    deg(q)), one per simple factor, in deterministic order."""
    q = poly_trim(q)
    deg = len(q) - 1
    assert deg >= 1
    if deg == 1:
        return [[field.one()]]
    dimQ = deg * field.dim
    rationals = CycField(1)
    # primitive element theta = t + c*z, c a small integer
    zgen = field.zeta(1) if field.phi > 1 else field.one()
    for c in _int_stream(deg * deg * field.dim * field.dim + 2):
        theta = [field.from_rational(c) * zgen, field.one()]  # c*z + t
        # theta^0 .. theta^dimQ in k[t]/(q), as vectors of length deg
        pows = [[field.one()] + [field.zero()] * (deg - 1)]
        for _ in range(dimQ):
            cur = poly_divmod(poly_mul(pows[-1], theta), q)[1]
            pows.append(cur + [field.zero()] * (deg - len(cur)))
        qvecs = (Matrix.column(rationals, [rationals.scalar((x,), s.den)
                                           for s in p for x in s.num])
                 for p in pows)
        mp = [c.as_fraction() for c in minimal_polynomial(qvecs)]
        if len(mp) - 1 == dimQ:
            break
    else:
        raise AssertionError("no primitive element found (algebra not etale?)")
    factors = _qpoly_factor(mp)
    factors.sort(key=lambda f: (len(f), [str(c) for c in f]))
    idems = []
    for fac in factors:
        rest, rem = poly_divmod(mp, fac)
        assert not any(rem)
        g, s, _ = poly_egcd(rest, fac)
        assert g == [1], "factors not coprime"
        # e = rest * s  mod mp  (1 mod fac, 0 mod others)
        h = poly_divmod(poly_mul(rest, s), mp)[1]
        # evaluate at theta inside k[t]/(q)
        e = [field.zero()] * deg
        for i, coeff in enumerate(h):
            if coeff == 0:
                continue
            cs = field.from_rational(coeff)
            for j, comp in enumerate(pows[i]):
                e[j] = e[j] + cs * comp
        idems.append(e)
    return idems


def _int_stream(limit):
    yield 0
    k = 1
    while k <= limit:
        yield k
        yield -k
        k += 1


def poly_roots_in_field(coeffs):
    """All roots in the coefficient field of a nonzero polynomial with
    Scalar coefficients, in deterministic order."""
    p = poly_trim(coeffs)
    assert p[-1], "zero polynomial"
    if len(p) == 1:
        return []
    field = p[-1].field
    p = poly_squarefree(p)
    deg = len(p) - 1
    if deg == 1:
        return [-(p[0] * p[1].inv())]
    idems = split_etale_cyclic(field, p)
    roots = []
    for e in idems:
        # t * e = lambda * e exactly when the factor is one-dimensional over k
        te = poly_divmod([field.zero()] + e, p)[1]
        te = te + [field.zero()] * (deg - len(te))
        lam = None
        ok = True
        for ec, tc in zip(e, te):
            if ec.is_zero():
                if not tc.is_zero():
                    ok = False
                    break
                continue
            cand = tc * ec.inv()
            if lam is None:
                lam = cand
            elif lam != cand:
                ok = False
                break
        if ok and lam is not None:
            roots.append(lam)
    roots.sort(key=lambda s: s.sort_key())
    return roots


def sign_normalized_first(roots):
    """Deterministic representative: first nonzero coordinate positive,
    falling back to plain sort order."""
    for r in roots:
        for x in r.num:
            if x > 0:
                return r
            if x < 0:
                break
    return roots[0]


# ---------------------------------------------------------------------------
# idempotent decomposition of finite-dimensional unital algebras
#
# Elements are ambient coordinate column Matrices; an algebra is presented by
# its multiplication callback, a unit element, and a spanning basis.

class NonSplitError(Exception):
    """The scalar field does not split the algebra (or the deterministic
    zero-divisor search gave out); carries the offending block."""


class Subalgebra:
    """A unital subalgebra given by a basis of ambient coordinate vectors,
    the multiplication of the ambient algebra, and its own unit."""

    def __init__(self, field, mul, basis, unit):
        self.field = field
        self.mul = mul
        self.basis = basis
        self.unit = unit
        self.dim = len(basis)

    def min_poly(self, w):
        """Monic minimal polynomial of w, with unit as w^0."""
        return minimal_polynomial(accumulate(repeat(w), self.mul,
                                             initial=self.unit))

    def evaluate_poly(self, coeffs, w):
        """Polynomial in w with Scalar coefficients, unit as w^0."""
        acc = self.unit.scale(coeffs[0])
        cur = self.unit
        for c in coeffs[1:]:
            cur = self.mul(cur, w)
            acc = acc + cur.scale(c)
        return acc


def newton_lift_idempotent(field, mul, e):
    """Lift an idempotent-mod-nilpotents to an exact one via
    e -> 3e^2 - 2e^3, in at most 64 steps."""
    three = field.from_rational(3)
    two = field.from_rational(2)
    for _ in range(64):
        e2 = mul(e, e)
        if e2 == e:
            return e
        e = e2.scale(three) - mul(e2, e).scale(two)
    raise AssertionError("idempotent lifting did not converge")


def corner_subalgebra(field, mul, ambient_basis, p):
    """The corner p*A*p as a Subalgebra (unit p)."""
    span = IncrementalSpan(field, p.rows)
    corner = (mul(mul(p, b), p) for b in ambient_basis)
    return Subalgebra(field, mul, [v for v in corner if span.add(v)], p)


def _candidate_stream(sub):
    """Deterministic stream of corner elements: basis, pairwise products,
    then the combinations a +- h b of basis pairs for h = 1, 2, 3."""
    for b in sub.basis:
        yield b
    for i, a in enumerate(sub.basis):
        for b in sub.basis[i:]:
            yield sub.mul(a, b)
    for h in range(1, 4):
        for i in range(len(sub.basis)):
            for j in range(i + 1, len(sub.basis)):
                yield sub.basis[i] + sub.basis[j].scale(sub.field.from_rational(h))
                yield sub.basis[i] - sub.basis[j].scale(sub.field.from_rational(h))


def split_corner(sub):
    """Orthogonal nontrivial idempotents of the corner summing to its unit,
    one per factor of the first splitting minimal polynomial, or None if
    the deterministic search exhausts (local corner, or genuinely
    non-split block)."""
    field = sub.field
    for w in _candidate_stream(sub):
        q_sf = poly_squarefree(sub.min_poly(w))
        if len(q_sf) - 1 < 2:
            continue
        idems = split_etale_cyclic(field, q_sf)
        if len(idems) < 2:
            continue
        # a nonzero, non-unit idempotent of k[t]/(q_sf) lifts to one of
        # the corner
        return [newton_lift_idempotent(field, sub.mul,
                                       sub.evaluate_poly(e, w))
                for e in idems]
    return None


def orthogonal_primitive_idempotents(field, mul, ambient_basis, unit,
                                     require_split=True, block_name="algebra"):
    """Complete list of orthogonal primitive idempotents summing to the unit.

    With require_split, every final corner must be one-dimensional (scalar),
    which certifies that the field splits the algebra; otherwise a
    NonSplitError naming the block is raised.  Without it, locally
    unsplittable corners are simply returned as primitive."""
    todo = [unit]
    done = []
    while todo:
        p = todo.pop(0)
        corner = corner_subalgebra(field, mul, ambient_basis, p)
        if corner.dim == 1:
            done.append(p)
            continue
        es = split_corner(corner)
        if es is None:
            if require_split:
                raise NonSplitError(
                    "block of dimension %d in %s has no scalar splitting"
                    % (corner.dim, block_name))
            done.append(p)
            continue
        todo[:0] = es
    return done

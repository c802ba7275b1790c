"""Splitting of commutative etale algebras over Q, used to factor minimal
polynomials over the cyclotomic scalar field without implementing polynomial
factorization over number fields.

The one external primitive is factorization of rational polynomials, which is
delegated to sympy.  Everything else is exact linear algebra:

  * k[t]/(q) for squarefree q over k = Q(z_N)(D) is etale over Q, so its
    primitive idempotents over Q coincide with those over k;
  * a primitive element of the form t + c*z exists for some small integer c;
  * factoring its Q-minimal polynomial and applying CRT interpolation gives
    the idempotents as polynomials in the primitive element.
"""

from fractions import Fraction
from itertools import accumulate, repeat

import sympy

from .scalars import CycField
from .linalg import Matrix, IncrementalSpan, minimal_polynomial


# ---------------------------------------------------------------------------
# polynomial arithmetic over the scalar field (coefficient lists, low first)

def poly_trim(p):
    while len(p) > 1 and p[-1].is_zero():
        p = p[:-1]
    return p


def poly_mul_k(p, q, field):
    out = [field.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_mod_k(p, q, field):
    """p mod q, q need not be monic."""
    _, rem = _poly_divmod_k(p, q, field)
    return rem


def poly_gcd_k(p, q, field):
    a = poly_trim([x for x in p])
    b = poly_trim([x for x in q])
    while not (len(b) == 1 and b[0].is_zero()):
        a, b = b, poly_mod_k(a, b, field)
        b = poly_trim(b)
    # monic normalization
    if a[-1].is_zero():
        return [field.one()]
    inv = a[-1].inv()
    return [x * inv for x in a]


def poly_deriv_k(p, field):
    if len(p) == 1:
        return [field.zero()]
    return poly_trim([p[i] * field.from_rational(i) for i in range(1, len(p))])


def poly_squarefree_k(p, field):
    g = poly_gcd_k(p, poly_deriv_k(p, field), field)
    if len(g) == 1:
        return poly_trim(list(p))
    # exact division p / g
    quo, rem = _poly_divmod_k(p, g, field)
    assert len(poly_trim(rem)) == 1 and rem[0].is_zero()
    return poly_trim(quo)


def _poly_divmod_k(p, q, field):
    p = poly_trim(list(p))
    q = poly_trim(list(q))
    dq = len(q) - 1
    assert dq > 0 or not q[0].is_zero(), "division by zero polynomial"
    lead_inv = q[-1].inv()
    quo = [field.zero()] * max(1, len(p) - dq)
    while True:
        p = poly_trim(p)
        k = len(p) - 1
        if k < dq or (k == 0 and p[0].is_zero()):
            break
        c = p[k] * lead_inv
        quo[k - dq] = c
        for j in range(dq + 1):
            p[k - dq + j] = p[k - dq + j] - c * q[j]
        p[k] = field.zero()
    return poly_trim(quo), poly_trim(p)


# ---------------------------------------------------------------------------
# rational polynomial helpers (coefficients are Fractions, low first)

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


def _qpoly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _qpoly_divmod(p, q):
    p = list(p)
    dq = len(q) - 1
    quo = [Fraction(0)] * max(1, len(p) - dq)
    while len(p) - 1 >= dq and any(p):
        k = len(p) - 1
        if p[k] == 0:
            p.pop()
            continue
        c = p[k] / q[-1]
        quo[k - dq] = c
        for j in range(dq + 1):
            p[k - dq + j] -= c * q[j]
        p.pop()
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return quo, p


def _qpoly_egcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]
    def trim(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p
    def sub(p, q):
        n = max(len(p), len(q))
        return trim([ (p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                      for i in range(n)])
    while any(trim(list(r1))) or (len(trim(list(r1))) > 1):
        r1 = trim(r1)
        if len(r1) == 1 and r1[0] == 0:
            break
        quo, rem = _qpoly_divmod(r0, r1)
        r0, r1 = r1, trim(rem)
        s0, s1 = s1, sub(s0, _qpoly_mul(quo, s1))
        t0, t1 = t1, sub(t0, _qpoly_mul(quo, t1))
    lead = r0[-1]
    return ([c / lead for c in r0], [c / lead for c in s0], [c / lead for c in t0])


# ---------------------------------------------------------------------------
# the etale splitting of k[t]/(q) over Q

def _cyclic_powers(theta, q, field, count):
    """Powers theta^0..theta^(count-1) in k[t]/(q), as Scalar vectors."""
    deg = len(q) - 1
    one = [field.one()] + [field.zero()] * (deg - 1)
    pows = [one]
    cur = one
    for _ in range(count - 1):
        cur = poly_mod_k(poly_mul_k(cur, theta, field), q, field)
        cur = list(cur) + [field.zero()] * (deg - len(cur))
        pows.append(cur)
    return pows


def split_etale_cyclic(field, q):
    """Primitive idempotents of k[t]/(q) for squarefree q over the scalar
    field k.  Returns a list of Scalar coefficient vectors (t-basis, degree
    deg(q)), one per simple factor, in deterministic order."""
    q = poly_trim(list(q))
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
        pows = _cyclic_powers(theta, q, field, dimQ + 1)
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
        rest, rem = _qpoly_divmod(mp, fac)
        assert not any(rem)
        g, s, t = _qpoly_egcd(rest, fac)
        assert len(g) == 1 and g[0] == 1, "factors not coprime"
        # e = rest * s  mod mp  (1 mod fac, 0 mod others)
        h = _qpoly_mul(rest, s)
        _, h = _qpoly_divmod(h, mp)
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


def poly_roots_in_field(field, coeffs):
    """All roots in the field of a nonzero polynomial with Scalar
    coefficients, in deterministic order."""
    p = poly_trim(list(coeffs))
    assert len(p) > 1 or not p[0].is_zero(), "zero polynomial"
    if len(p) == 1:
        return []
    p = poly_squarefree_k(p, field)
    deg = len(p) - 1
    if deg == 1:
        return [-(p[0] * p[1].inv())]
    idems = split_etale_cyclic(field, p)
    roots = []
    for e in idems:
        # t * e = lambda * e exactly when the factor is one-dimensional over k
        te = poly_mod_k(poly_mul_k([field.zero(), field.one()], e, field), p, field)
        te = list(te) + [field.zero()] * (deg - len(te))
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


def newton_lift_idempotent(field, mul, e, max_iter=64):
    """Lift an idempotent-mod-nilpotents to an exact one via
    e -> 3e^2 - 2e^3."""
    three = field.from_rational(3)
    two = field.from_rational(2)
    for _ in range(max_iter):
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


def _candidate_stream(sub, max_height=3):
    """Deterministic stream of corner elements: basis, pairwise products,
    then small integer combinations of basis pairs."""
    for b in sub.basis:
        yield b
    for i, a in enumerate(sub.basis):
        for b in sub.basis[i:]:
            yield sub.mul(a, b)
    for h in range(1, max_height + 1):
        for i in range(len(sub.basis)):
            for j in range(i + 1, len(sub.basis)):
                yield sub.basis[i] + sub.basis[j].scale(sub.field.from_rational(h))
                yield sub.basis[i] - sub.basis[j].scale(sub.field.from_rational(h))


def split_corner_once(sub):
    """A nontrivial idempotent of the corner, or None if the deterministic
    search exhausts (local corner, or genuinely non-split block)."""
    field = sub.field
    for w in _candidate_stream(sub):
        q = sub.min_poly(w)
        q_sf = poly_squarefree_k(q, field)
        if len(q_sf) - 1 < 2:
            continue
        idems = split_etale_cyclic(field, q_sf)
        if len(idems) < 2:
            continue
        e = newton_lift_idempotent(field, sub.mul,
                                   sub.evaluate_poly(idems[0], w))
        if e.is_zero() or e == sub.unit:
            continue
        return e
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
        e = split_corner_once(corner)
        if e is None:
            if require_split:
                raise NonSplitError(
                    "block of dimension %d in %s has no scalar splitting"
                    % (corner.dim, block_name))
            done.append(p)
            continue
        todo.insert(0, e)
        todo.insert(1, p - e)
    return done

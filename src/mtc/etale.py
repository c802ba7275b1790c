"""Splitting of commutative etale algebras over Q, used to factor minimal
polynomials over the cyclotomic scalar field without implementing polynomial
factorization over number fields.

The one primitive beyond linear algebra is the factorization of rational
polynomials, done here by the Zassenhaus method.  Polynomial arithmetic over
Q and over k is the layer at the bottom of `scalars`.  The rest is exact
linear algebra:

  * k[t]/(q) for squarefree q over k = Q(z_N)(D) is etale over Q, so its
    primitive idempotents over Q coincide with those over k;
  * a primitive element of the form t + c*z exists for some small integer c;
  * factoring its Q-minimal polynomial and applying CRT interpolation gives
    the idempotents as polynomials in the primitive element.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, count, repeat
from math import comb, gcd, isqrt, lcm

from .scalars import (CycField, poly_trim, poly_mul, poly_divmod, poly_egcd,
                      poly_squarefree)
from .linalg import Matrix, IncrementalSpan, minimal_polynomial


# ---------------------------------------------------------------------------
# factorization over Q (Zassenhaus, "On Hensel factorization I", 1969; Cohen,
# GTM 138, section 3.5): factor modulo the smallest suitable prime p by
# Berlekamp, lift the factors p-adically past a bound on the coefficients of
# any factor, and recombine them by exact trial division.  The polynomials
# here are int lists, low degree first, with coefficients reduced mod m
# wherever an m is passed.

def _qpoly_factor(coeffs):
    """Irreducible monic factors over Q (multiplicity dropped) of a nonzero
    polynomial with Fraction coefficients, low degree first."""
    f = poly_squarefree(coeffs)
    if len(f) < 3:
        return [[c / f[-1] for c in f]] if len(f) == 2 else []
    den = lcm(*(c.denominator for c in f))
    f = [int(c * den) for c in f]
    content = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [[Fraction(c, g[-1]) for c in g]
            for g in _zfactor([c // content for c in f])]


def _zfactor(f):
    """The irreducible factors over Z of a squarefree primitive integer
    polynomial f of degree at least 2 with positive leading coefficient."""
    p, fp = _good_prime(f)
    gs = _berlekamp(fp, p)
    if len(gs) == 1:
        return [f]
    # p^a exceeds twice the coefficients of lc(f)/lc(g) * g for every
    # factor g of degree below deg f (Mignotte; Cohen, Theorem 3.5.1)
    n, lc = len(f) - 1, f[-1]
    norm = isqrt(sum(c * c for c in f)) + 1
    bound = 2 * lc * max(comb(n - 2, j) * norm + (comb(n - 2, j - 1) * lc
                                                  if j else 0)
                         for j in range(n))
    a = next(a for a in count(1) if p ** a > bound)
    return _recombine(f, _hensel_lift(f, gs, p, a), p ** a)


def _good_prime(f):
    """The smallest prime p that does not divide the leading coefficient of
    f and keeps f squarefree mod p, with f made monic mod p."""
    for p in count(2):
        if f[-1] % p == 0 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            continue
        fp = _monic(f, p)
        dfp = poly_trim([i * c % p for i, c in enumerate(fp)][1:])
        if len(_gcd(fp, dfp, p)) == 1:
            return p, fp


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mul(a, b, m):
    return poly_trim([c % m for c in poly_mul(a, b)])


def _divmod(a, b, m):
    """Quotient and remainder mod m by b, whose leading coefficient is a
    unit mod m."""
    a, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, m)
    quo = [0] * max(1, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % m
        if c:
            quo[k - db] = c
            for j in range(db):
                a[k - db + j] -= c * b[j]
    return poly_trim(quo), poly_trim([c % m for c in a[:db]] or [0])


def _gcd(a, b, p):
    """The monic gcd mod the prime p of a and b, a nonzero."""
    while any(b):
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _sub(a, b, m):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return poly_trim([(x - y) % m for x, y in zip(a, b)])


def _inverse(a, g, p):
    """The inverse of a modulo g and the prime p, for a coprime to g."""
    r0, r1, s0, s1 = g, _divmod(a, g, p)[1], [0], [1]
    while any(r1):
        quo, rem = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, rem, s1, _sub(s0, _mul(quo, s1, p), p)
    return _mul(s0, [pow(r0[0], -1, p)], p)


def _berlekamp(f, p):
    """The monic irreducible factors mod the prime p of f, monic and
    squarefree mod p, in sorted order."""
    n = len(f) - 1
    xp = [1]
    for bit in bin(p)[2:]:
        xp = _divmod(_mul(xp, xp, p), f, p)[1]
        if bit == "1":
            xp = _divmod([0] + xp, f, p)[1]
    # row i of Q - I is x^(i p) - x^i mod f.  v(x)^p = v(x) mod f exactly
    # when the coefficients of v are in the left kernel, and the dimension
    # of that kernel is the number of irreducible factors.
    rows, cur = [], [1]
    for i in range(n):
        row = cur + [0] * (n - len(cur))
        row[i] -= 1
        rows.append(row)
        cur = _divmod(_mul(cur, xp, p), f, p)[1]
    kernel = _kernel([list(col) for col in zip(*rows)], p)
    factors = [f]
    for v in kernel[1:]:  # kernel[0] is the constant 1
        if len(factors) == len(kernel):
            break
        v = poly_trim(v)
        # u is the product of the gcd(u, v - s) over s in F_p
        factors = [g for u in factors
                   for g in ([u] if len(u) == 2 else
                             (_gcd(u, _sub(v, [s], p), p) for s in range(p)))
                   if len(g) > 1]
    return sorted(factors)


def _kernel(m, p):
    """A basis of the kernel mod the prime p of the square matrix m, given
    by its rows: one vector per free column, in order."""
    m, pivots = [[x % p for x in row] for row in m], []
    for c in range(len(m)):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        inv = pow(m[k][c], -1, p)
        m[k], m[r] = m[r], [x * inv % p for x in m[k]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [(x - row[c] * y) % p for x, y in zip(row, m[r])]
        pivots.append(c)
    basis = []
    for c in range(len(m)):
        if c not in pivots:
            v = [0] * len(m)
            v[c] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][c] % p
            basis.append(v)
    return basis


def _hensel_lift(f, gs, p, a):
    """Monic lifts of the factors gs of f mod p, with f = lc(f) * prod gs
    mod p^a, found one p-adic digit at a time."""
    # t_i with lc(f) * sum_i t_i * prod_{j != i} g_j = 1 mod p
    ts = []
    for i, g in enumerate(gs):
        rest = [f[-1] % p]
        for j, h in enumerate(gs):
            if j != i:
                rest = _divmod(_mul(rest, h, p), g, p)[1]
        ts.append(_inverse(rest, g, p))
    lifts, q = list(gs), p
    for _ in range(a - 1):
        prod = [f[-1]]
        for g in lifts:
            prod = _mul(prod, g, q * p)
        # e = (f - lc(f) * prod lifts) / q mod p; lc(f) * sum_i d_i *
        # prod_{j != i} g_j = e mod p, with d_i = e * t_i mod g_i, is the
        # next digit
        e = [(x - y) // q % p for x, y in zip(f, prod)]
        for i, (g, t) in enumerate(zip(gs, ts)):
            d = _divmod(_mul(e, t, p), g, p)[1]
            lifts[i] = [x + q * y for x, y in
                        zip(lifts[i], d + [0] * (len(g) - len(d)))]
        q *= p
    return lifts


def _recombine(f, lifts, q):
    """The irreducible factors over Z of f, from monic lifts of its factors
    mod p with f = lc(f) * prod lifts mod q, q above twice the coefficients
    of lc(f)/lc(g) * g for every factor g.  Products of the lifts are tried
    in order of size."""
    found, size = [], 1
    while 2 * size <= len(lifts):
        for subset in combinations(range(len(lifts)), size):
            lc = f[-1]
            # the constant term of a factor divides lc(f) * f(0)
            c0 = lc
            for i in subset:
                c0 = c0 * lifts[i][0] % q
            c0 = c0 - q if 2 * c0 > q else c0
            if f[0] and (not c0 or lc * f[0] % c0):
                continue
            g = [lc]
            for i in subset:
                g = _mul(g, lifts[i], q)
            g = [c - q if 2 * c > q else c for c in g]
            content = gcd(*g)
            g = [c // content for c in g]
            quo, rem = poly_divmod([Fraction(c) for c in f],
                                   [Fraction(c) for c in g])
            if not any(rem):
                found.append(g)
                f = [int(c) for c in quo]
                lifts = [h for i, h in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


# ---------------------------------------------------------------------------
# the etale splitting of k[t]/(q) over Q

def split_etale_cyclic(field, q):
    """Primitive idempotents of k[t]/(q) for squarefree q over the scalar
    field k.  Returns a list of Scalar coefficient vectors (t-basis, degree
    deg(q)), one per simple factor, in deterministic order.  Each (k, q)
    is split once: the corners of an algebra repeat minimal polynomials."""
    return [list(e) for e in _split_etale_cyclic(field, tuple(poly_trim(q)))]


@cache
def _split_etale_cyclic(field, q):
    q = list(q)
    deg = len(q) - 1
    assert deg >= 1
    if deg == 1:
        return [[field.one()]]
    dimQ = deg * field.dim
    rationals = CycField(1)
    # primitive element theta = t + c*g, c a small integer and g = z (1
    # when phi(N) = 1), plus D over a D-extension: g generates k over Q
    gen = field.zeta(1) if field.phi > 1 else field.one()
    gen = gen + field.dgen() if field.extended else gen
    cs = _int_stream(deg * deg * field.dim * field.dim + 2)
    if field.dim > 1 and all(x.is_rational() for x in q):
        # the Q-minimal polynomial of t divides q: of degree below dimQ
        next(cs)
    for c in cs:
        theta = [field.from_rational(c) * gen, field.one()]  # c*g + t
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
    roots = []
    for e in split_etale_cyclic(field, p):
        # t e = c e exactly when the factor is one-dimensional over k, and
        # then c is a root
        te = poly_divmod([field.zero()] + e, p)[1]
        te = te + [field.zero()] * (deg - len(te))
        j = next(j for j, x in enumerate(e) if x)
        c = te[j] / e[j]
        if all(y == c * x for x, y in zip(e, te)):
            roots.append(c)
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
        pows = []  # w^0, w^1, ..., kept as the minimal polynomial reads them
        q_sf = poly_squarefree(minimal_polynomial(
            pows.append(v) or v
            for v in accumulate(repeat(w), sub.mul, initial=sub.unit)))
        if len(q_sf) - 1 < 2:
            continue
        idems = split_etale_cyclic(field, q_sf)
        if len(idems) < 2:
            continue
        # a nonzero, non-unit idempotent of k[t]/(q_sf) lifts to one of
        # the corner, a combination of the powers of w already made
        return [newton_lift_idempotent(field, sub.mul, sum(
            (v.scale(c) for c, v in zip(e[1:], pows[1:])),
            pows[0].scale(e[0]))) for e in idems]
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
        elif len(es) == corner.dim:
            # each e A e holds e, and they lie in p A p as a direct sum:
            # every corner is one-dimensional
            done += es
        else:
            todo[:0] = es
    return done

"""Exact scalars in a cyclotomic field Q(z_N), optionally extended by a
square root D of a field element (D^2 = zeta, fixed when the extension is
created).

Elements are stored as integer coordinate vectors over the Q-basis
{z^a} (a < phi(N)), or {z^a, z^a*D} when the extension is active, together
with a single positive denominator.  All arithmetic is exact.  Each field
keeps one 0 and one 1, shared by every caller since scalars are immutable.
Inverses come from the polynomial layer: the Bezout coefficient against
Phi_N in Q(z_N), and the conjugate over the norm in the D-extension.

The bottom of the module is the one polynomial layer of the package:
coefficient lists over any exact field (Fraction for Q, Scalar for
Q(z_N)(D)), used for the cyclotomic polynomials here and for the etale
splitting, the ribbon solve and the defect minimal polynomials elsewhere.
"""

import json
from fractions import Fraction
from math import gcd, lcm


def cyclotomic_poly(n):
    """Integer coefficient list (low degree first) of the n-th cyclotomic
    polynomial, computed by dividing x^n - 1 by the proper divisors."""
    assert n >= 1
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q = [Fraction(c) for c in cyclotomic_poly(d)]
            p, rem = poly_divmod(p, q)
            assert not any(rem)
    return [int(c) for c in p]


class CycField:
    """Q(z_N), optionally extended by D with D^2 equal to a fixed element.

    dsquare, when present, is an integer coefficient tuple plus denominator
    describing an element of Q(z_N) itself (the modularity parameter).
    """

    _cache = {}

    def __new__(cls, order, dsquare=None):
        key = (order, dsquare)
        if key in cls._cache:
            return cls._cache[key]
        self = object.__new__(cls)
        self.order = order
        self.dsquare = dsquare  # ((int coeffs over phi basis), den) or None
        # Scalar.inv takes Bezout coefficients against Phi_N
        phi_poly = self._phi_poly = [Fraction(c) for c in cyclotomic_poly(order)]
        self.phi = len(phi_poly) - 1
        self.dim = self.phi * (2 if dsquare is not None else 1)
        # coefficients of 1: Scalar arithmetic tests for the unit against it
        self._one_num = (1,) + (0,) * (self.dim - 1)
        self._zero = Scalar(self, (0,) * self.dim, 1)
        self._one = Scalar(self, self._one_num, 1)
        # reduction of z^k for k up to 2*(phi-1): integer vectors of length phi
        red = []
        for k in range(2 * self.phi - 1):
            _, rem = poly_divmod([Fraction(0)] * k + [Fraction(1)], phi_poly)
            red.append(tuple(int(c) for c in rem) + (0,) * (self.phi - len(rem)))
        self._zred = red
        cls._cache[key] = self
        return self

    @property
    def extended(self):
        return self.dsquare is not None

    def __repr__(self):
        if self.extended:
            return "CycField(%d, D^2 adjoined)" % self.order
        return "CycField(%d)" % self.order

    # ------------------------------------------------------------------
    # construction of elements

    def scalar(self, num, den=1):
        return Scalar(self, tuple(num), den)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_rational(self, q):
        q = Fraction(q)
        v = [0] * self.dim
        v[0] = q.numerator
        return Scalar(self, tuple(v), q.denominator)

    def zeta(self, power=1):
        """z^power as a field element (power taken mod N)."""
        power %= self.order
        acc = self.one()
        z = self._gen_zeta()
        for _ in range(power):
            acc = acc * z
        return acc

    def _gen_zeta(self):
        v = [0] * self.dim
        if self.phi == 1:
            # z is rational: z = root of Phi_N, degree 1 (N = 1 or 2)
            v[0] = 1 if self.order == 1 else -1
        else:
            v[1] = 1
        return Scalar(self, tuple(v), 1)

    def dgen(self):
        assert self.extended, "no D adjoined in this field"
        v = [0] * self.dim
        v[self.phi] = 1
        return Scalar(self, tuple(v), 1)

    def extend_sqrt(self, dsquare_scalar):
        """Return the extension Q(z_N)(D) with D^2 = dsquare_scalar."""
        assert not self.extended
        assert dsquare_scalar.field is self
        return CycField(self.order, (dsquare_scalar.num, dsquare_scalar.den))

    def promote(self, s):
        """Map a scalar of the unextended base field into this field."""
        if s.field is self:
            return s
        assert s.field.order == self.order and not s.field.extended
        v = list(s.num) + [0] * (self.dim - len(s.num))
        return Scalar(self, tuple(v), s.den)

    # multiplication of basis vectors: index a (z-degree) with optional D flag
    def _basis_mul(self, i, j):
        """Product of basis elements i and j as (int vector, den)."""
        phi = self.phi
        if not self.extended:
            return self._zred[i + j], 1
        ai, di = i % phi, i // phi
        aj, dj = j % phi, j // phi
        zpart = self._zred[ai + aj]
        if di + dj == 0:
            return tuple(zpart) + (0,) * phi, 1
        if di + dj == 1:
            return (0,) * phi + tuple(zpart), 1
        # D^2 = dsquare: multiply zpart by dsquare in Q(z)
        dnum, dden = self.dsquare
        prod = [0] * phi
        for a, ca in enumerate(zpart):
            if ca:
                for b, cb in enumerate(dnum):
                    if cb:
                        r = self._zred[a + b]
                        for k, ck in enumerate(r):
                            prod[k] += ca * cb * ck
        return tuple(prod) + (0,) * phi, dden


def _normalize(num, den):
    if den < 0:
        num = tuple(-x for x in num)
        den = -den
    g = den
    for x in num:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        num = tuple(x // g for x in num)
        den //= g
    return num, den


class Scalar:
    """An element of a CycField.  Immutable, canonical form, decidable
    equality."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, num, den=1):
        assert len(num) == field.dim
        num, den = _normalize(tuple(num), den)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates ----------------------------------------------------
    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_one(self):
        return self.den == 1 and self.num == self.field._one_num

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        assert self.is_rational(), "not a rational scalar: %s" % self
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is self.field:
                return self, other
            if self.field.extended and not other.field.extended:
                return self, self.field.promote(other)
            if other.field.extended and not self.field.extended:
                return other.field.promote(self), other
            raise TypeError("scalars from incompatible fields")
        if isinstance(other, (int, Fraction)):
            return self, self.field.from_rational(other)
        return self, NotImplemented

    def __add__(self, other):
        # two elements of one field need no coercion
        a, b = ((self, other) if other.__class__ is Scalar and
                other.field is self.field else self._coerce(other))
        if b is NotImplemented:
            return NotImplemented
        # a zero summand hands back the other operand: Scalars are immutable
        if not any(b.num):
            return a
        if not any(a.num):
            return b
        da, db = a.den, b.den
        num = tuple(x * db + y * da for x, y in zip(a.num, b.num))
        return Scalar(a.field, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        if not any(self.num):
            return self
        return Scalar(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = ((self, other) if other.__class__ is Scalar and
                other.field is self.field else self._coerce(other))
        if b is NotImplemented:
            return NotImplemented
        fld = a.field
        # a factor 1 or 0 hands back an operand: Scalars are immutable
        one = fld._one_num
        if a.den == 1 and a.num == one:
            return b
        if b.den == 1 and b.num == one:
            return a
        if not any(a.num):
            return a
        if not any(b.num):
            return b
        acc = [0] * fld.dim
        den = a.den * b.den
        extra_den = 1
        for i, x in enumerate(a.num):
            if not x:
                continue
            for j, y in enumerate(b.num):
                if not y:
                    continue
                vec, d = fld._basis_mul(i, j)
                if d == 1:
                    for k, c in enumerate(vec):
                        if c:
                            acc[k] += x * y * c
                else:
                    # bring accumulated terms over a common denominator lazily
                    if extra_den % d:
                        m = d // gcd(extra_den, d)
                        acc = [v * m for v in acc]
                        extra_den *= m
                    m = extra_den // d
                    for k, c in enumerate(vec):
                        if c:
                            acc[k] += x * y * c * m
        return Scalar(fld, tuple(acc), den * extra_den)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse: q/p for a rational p/q (1 and -1 hand
        back themselves), the Bezout coefficient of the numerator against
        Phi_N in Q(z_N), and (a - bD) / (a^2 - b^2 D^2) in the
        D-extension."""
        num, den = self.num, self.den
        if not any(num):
            raise ZeroDivisionError("scalar division by zero")
        fld = self.field
        if not any(num[1:]):
            if den == 1 and num[0] in (1, -1):
                return self
            return Scalar(fld, (den,) + num[1:], num[0])
        if fld.extended:
            base, phi = CycField(fld.order), fld.phi
            a, b = Scalar(base, num[:phi], den), Scalar(base, num[phi:], den)
            norm = a * a - b * b * Scalar(base, *fld.dsquare)
            conj = Scalar(fld, num[:phi] + tuple(-c for c in num[phi:]), den)
            return conj * fld.promote(norm.inv())
        s = poly_egcd([Fraction(c) for c in num], fld._phi_poly)[1]
        q = lcm(*(c.denominator for c in s))
        s = [c.numerator * (q // c.denominator) * den for c in s]
        return Scalar(fld, tuple(s) + (0,) * (fld.dim - len(s)), q)

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        assert isinstance(k, int)
        if k < 0:
            return self.inv() ** (-k)
        acc = self.field.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field:
            try:
                a, b = self._coerce(other)
            except TypeError:
                return False
            return a.num == b.num and a.den == b.den
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- rational coordinate access (for the Q-linear algebra layer) ----
    def q_coords(self):
        """Coordinates over the Q-basis of the field, as Fractions."""
        return [Fraction(x, self.den) for x in self.num]

    # -- printing / parsing (the Scalar literal grammar) ----------------
    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)

    def sort_key(self):
        return (self.den,) + self.num


def format_scalar(s):
    """Render per the literal grammar: sums of rational*z^k and rational*D
    terms.  z-degree ascending, D-part last."""
    fld = s.field
    phi = fld.phi
    terms = []
    for i, x in enumerate(s.num):
        if not x:
            continue
        a = i % phi
        dflag = i >= phi
        q = Fraction(x, s.den)
        rat = str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
        if a == 0:
            base = None
        elif a == 1:
            base = "z"
        else:
            base = "z^%d" % a
        if base is None and not dflag:
            terms.append(rat)
        else:
            tail = base if base is not None else ""
            if dflag:
                tail = tail + "*D" if tail else "D"
            if q == 1:
                terms.append(tail)
            elif q == -1:
                terms.append("-" + tail)
            else:
                terms.append(rat + "*" + tail)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


class ScalarParseError(ValueError):
    pass


def parse_count(x, what, least):
    """x itself when it is a JSON integer >= least (a cyclotomic order, a
    dimension); a ValueError naming `what` otherwise."""
    if type(x) is not int or x < least:
        raise ValueError("%s must be an integer >= %d, got %s"
                         % (what, least, json.dumps(x)))
    return x


def parse_scalar(field, text):
    """Parse the Scalar literal grammar into an element of `field`.

    coeff    := polyterm { ('+'|'-') polyterm }
    polyterm := rational ['*' 'z' ['^' int]] | 'z' ['^' int]
              | rational ['*' 'D'] | 'D' | rational '*' 'z' ['^' int] '*' 'D'
              | 'z' ['^' int] '*' 'D'
    rational := int ['/' posint]
    """
    s = text.replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar literal")
    pos = 0
    total = field.zero()
    sign = 1
    if s[pos] in "+-":
        sign = -1 if s[pos] == "-" else 1
        pos += 1
    while True:
        term, pos = _parse_term(field, s, pos)
        total = total + (term if sign == 1 else -term)
        if pos == len(s):
            return total
        if s[pos] not in "+-":
            raise ScalarParseError("unexpected %r at column %d in %r" % (s[pos], pos, text))
        sign = -1 if s[pos] == "-" else 1
        pos += 1


def _parse_int(s, pos):
    start = pos
    if pos < len(s) and s[pos] in "+-":
        pos += 1
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    if pos == start or not s[start:pos].lstrip("+-"):
        raise ScalarParseError("expected integer at column %d" % start)
    return int(s[start:pos]), pos


def _parse_term(field, s, pos):
    rat = Fraction(1)
    have_rat = False
    if pos < len(s) and (s[pos].isdigit() or s[pos] in "+-"):
        n, pos = _parse_int(s, pos)
        if pos < len(s) and s[pos] == "/":
            d, pos = _parse_int(s, pos + 1)
            if d <= 0:
                raise ScalarParseError("denominator must be positive")
            rat = Fraction(n, d)
        else:
            rat = Fraction(n)
        have_rat = True
        if pos < len(s) and s[pos] == "*":
            pos += 1
        else:
            return field.from_rational(rat), pos
    zpow = 0
    if pos < len(s) and s[pos] == "z":
        pos += 1
        zpow = 1
        if pos < len(s) and s[pos] == "^":
            zpow, pos = _parse_int(s, pos + 1)
        if pos < len(s) and s[pos] == "*":
            pos += 1
    elif not have_rat and not (pos < len(s) and s[pos] == "D"):
        raise ScalarParseError("expected term at column %d" % pos)
    dflag = False
    if pos < len(s) and s[pos] == "D":
        pos += 1
        dflag = True
    val = field.from_rational(rat)
    if zpow:
        val = val * field.zeta(zpow)
    if dflag:
        val = val * field.dgen()
    return val, pos


def embed_scalar(s, target):
    """Embed an element of Q(z_N) into Q(z_M) for N | M, sending z_N to
    z_M^(M/N)."""
    src = s.field
    if src is target:
        return s
    assert not src.extended and not target.extended, \
        "embedding of extended fields is not supported"
    assert target.order % src.order == 0, \
        "no canonical embedding of Q(z_%d) into Q(z_%d)" % (src.order, target.order)
    step = target.order // src.order
    acc = target.zero()
    zpow = target.one()
    z = target.zeta(step)
    for i, c in enumerate(s.num):
        if c:
            acc = acc + zpow * Fraction(c, s.den)
        zpow = zpow * z
    return acc


def sqrt_in_field(value):
    """All square roots of `value` inside its own field, sorted
    deterministically; empty when no root exists in the field.

    Works by splitting k[t]/(t^2 - value) as an etale Q-algebra.
    """
    from .etale import poly_roots_in_field
    if value.is_zero():
        return [value.field.zero()]
    f = value.field
    return poly_roots_in_field([-value, f.zero(), f.one()])


def sqrt_adjoin(value):
    """A square root of `value`: the in-field root whose first nonzero
    coordinate is positive when one exists, else a fresh symbol D adjoined
    with D^2 = value.

    Returns (root scalar, field containing it)."""
    from .etale import sign_normalized_first
    roots = sqrt_in_field(value)
    if roots:
        return sign_normalized_first(roots), value.field
    assert not value.field.extended, "cannot stack a second square root extension"
    ext = value.field.extend_sqrt(value)
    return ext.dgen(), ext


# ---------------------------------------------------------------------------
# polynomials: coefficient lists, low degree first.  Coefficients are exact
# field elements (Fraction, Scalar) that support + - * / and are false
# exactly when zero.  Trimmed results have a nonzero leading coefficient,
# except the zero polynomial, which is [0].

def poly_trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def poly_mul(p, q):
    zero = p[0] - p[0]
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def _poly_sub(p, q):
    zero = q[0] - q[0]
    n = max(len(p), len(q))
    p, q = p + [zero] * (n - len(p)), q + [zero] * (n - len(q))
    return poly_trim([a - b for a, b in zip(p, q)])


def poly_divmod(p, q):
    """(quo, rem) with p = q*quo + rem and deg rem < deg q, for q != 0."""
    p, q = poly_trim(p), poly_trim(q)
    if not q[-1]:
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(q) - 1
    lead_inv = 1 / q[-1]
    zero = q[-1] - q[-1]
    quo = [zero] * max(1, len(p) - dq)
    for k in range(len(p) - 1, dq - 1, -1):
        if p[k]:
            c = p[k] * lead_inv
            quo[k - dq] = c
            for j in range(dq):
                p[k - dq + j] = p[k - dq + j] - c * q[j]
    return poly_trim(quo), poly_trim(p[:dq] or [zero])


def poly_gcd(a, b):
    """The monic gcd of a and b, not both zero."""
    a, b = poly_trim(a), poly_trim(b)
    while b[-1]:
        a, b = b, poly_divmod(a, b)[1]
    lead_inv = 1 / a[-1]
    return [c * lead_inv for c in a]


def poly_egcd(a, b):
    """(g, s, t) with s*a + t*b = g, g the monic gcd of a and b, not both
    zero."""
    r0, r1 = poly_trim(a), poly_trim(b)
    lead = r0[-1] or r1[-1]
    one, zero = lead / lead, lead - lead
    s0, s1, t0, t1 = [one], [zero], [zero], [one]
    while r1[-1]:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, poly_mul(quo, s1))
        t0, t1 = t1, _poly_sub(t0, poly_mul(quo, t1))
    lead_inv = 1 / r0[-1]
    return tuple([c * lead_inv for c in x] for x in (r0, s0, t0))


def poly_squarefree(p):
    """p / gcd(p, p'): the product of the distinct irreducible factors of p
    (characteristic 0), with the leading coefficient of p."""
    p = poly_trim(p)
    if len(p) == 1:
        return p
    g = poly_gcd(p, [p[i] * i for i in range(1, len(p))])
    return p if len(g) == 1 else poly_divmod(p, g)[0]

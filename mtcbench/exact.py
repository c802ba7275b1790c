"""Exact arithmetic in Q(zeta_N), written apart from mtc so that payload
checks do not rest on the code they check.

Elements are tuples of Fractions: coefficients of 1, z, ..., z^(phi-1) in
the power basis reduced modulo the N-th cyclotomic polynomial.  Literals
follow the spec-file grammar (`1/2*z^3-2`); a D term raises ValueError.
"""

import re
from fractions import Fraction


def cyclotomic(n):
    """Integer coefficients of the n-th cyclotomic polynomial, low first."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_exact(poly, cyclotomic(d))
    return poly


def _divide_exact(p, q):
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = p[i + len(q) - 1] // q[-1]
        out[i] = c
        for j, qc in enumerate(q):
            p[i + j] -= c * qc
    assert not any(p), "not an exact division"
    return out


class Field:
    def __init__(self, order):
        self.order = order
        self.modulus = cyclotomic(order)
        self.phi = len(self.modulus) - 1
        self.zero = (Fraction(0),) * self.phi
        self.one = (Fraction(1),) + (Fraction(0),) * (self.phi - 1)

    def reduce(self, coeffs):
        c = list(coeffs)
        m = self.modulus
        for i in range(len(c) - 1, self.phi - 1, -1):
            lead = c[i]
            if lead:
                for j in range(self.phi + 1):
                    c[i - self.phi + j] -= lead * m[j]
        c = c[:self.phi] + [Fraction(0)] * (self.phi - len(c))
        return tuple(c)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self.reduce(out)

    def parse(self, text):
        text = text.replace(" ", "")
        if "D" in text:
            raise ValueError("D terms are outside Q(zeta_%d): %r"
                             % (self.order, text))
        coeffs = [Fraction(0)] * max(self.order, self.phi)
        for sign, body in re.findall(r"([+-]?)([^+-]+)", text):
            rat, _, power = body.partition("z")
            rat = rat.rstrip("*")
            q = Fraction(rat) if rat else Fraction(1)
            if power:
                k = int(power.lstrip("^"))
            elif "z" in body:
                k = 1
            else:
                k = 0
            coeffs[k % self.order] += -q if sign == "-" else q
        return self.reduce(coeffs)


def dense(field, payload):
    """A matrix_payload dict ({rows, cols, entries}) as a list of rows."""
    rows, cols = payload["rows"], payload["cols"]
    m = [[field.zero] * cols for _ in range(rows)]
    for i, j, text in payload["entries"]:
        m[i][j] = field.parse(text)
    return m


def matmul(field, a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if any(x):
                row = out[i]
                for j in range(m):
                    if any(b[t][j]):
                        row[j] = field.add(row[j], field.mul(x, b[t][j]))
    return out


def is_identity(field, m):
    return all(m[i][j] == (field.one if i == j else field.zero)
               for i in range(len(m)) for j in range(len(m[0])))

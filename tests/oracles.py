"""Independent brute-force oracles for the derived expected values.  These
deliberately avoid the library's own computation paths."""

from fractions import Fraction

import sympy

from mtc import repcat
from mtc.diagrams import Compose, Tensor
from mtc.linalg import Matrix, kernel_basis, kron, invert, IncrementalSpan


def rank_oracle_fraction(rows):
    """Row-reduction rank over Fraction lists (independent of mtc.linalg)."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def tensor_action_oracle(t, x, y):
    """The action on X (x) Y of the 2-tensor t = {(i, j): c} in H (x) H as
    the dense sum of c kron(x.action[i], y.action[j]), one Kronecker
    product and one matrix addition per term."""
    d = x.dim * y.dim
    m = Matrix.zeros(x.algebra.field, d, d)
    for (i, j), c in t.items():
        m = m + kron(x.action[i], y.action[j]).scale(c)
    return m


def dense_word_oracle(ast, env, boxes=None):
    """The matrix of a parsed diagram word composed densely from repcat's
    morphisms on materialized modules: kron for '*', matrix products for
    ';', brinv as the inverse of the braiding matrix and twinv as the
    inverse of the twist.  `boxes` maps box names to their matrices."""
    if isinstance(ast, (Tensor, Compose)):
        ms = [dense_word_oracle(p, env, boxes) for p in ast.parts]
        m = ms[0]
        for nxt in ms[1:]:
            m = kron(m, nxt) if isinstance(ast, Tensor) else nxt * m
        return m
    k = ast.kind
    if k == "box":
        return boxes[ast.args[0]]
    x = env.module_of(ast.args[0])
    if k == "id":
        return Matrix.identity(x.algebra.field, x.dim)
    if k in ("tw", "twinv"):
        m = repcat.twist_morphism(x).matrix
        return m if k == "tw" else invert(m)
    if k in ("br", "brinv"):
        m = repcat.braiding(x, env.module_of(ast.args[1])).matrix
        return m if k == "br" else invert(m)
    return {"ev": repcat.ev_morphism, "coev": repcat.coev_morphism,
            "evt": repcat.ev_tilde_morphism,
            "coevt": repcat.coev_tilde_morphism}[k](x).matrix


def radical_filtration_factors(x, sd):
    """[X : S_i] through the radical filtration of X: the simple
    multiplicities of each layer rad^k X / rad^(k+1) X, independent of
    the dim Hom(P_i, X) of repcat.composition_factors."""
    f = x.algebra.field
    rad = repcat.radical_basis(x.algebra)
    mult = [0] * sd.count
    cur = x
    while cur.dim > 0:
        vecs = []
        for r in rad:
            act = cur.act(r)
            for j in range(cur.dim):
                v = Matrix.column(f, act.col_list(j))
                if not v.is_zero():
                    vecs.append(v)
        span = IncrementalSpan(f, cur.dim)
        sub_basis = [v for v in vecs if span.add(v)]
        layer = repcat.quotient_module(cur, span)
        for i, s in enumerate(sd.simples):
            mult[i] += len(repcat.hom_basis(layer, s))
        if not sub_basis:
            break
        cur = repcat.sub_module(cur, sub_basis)
    return mult


def partial_trace_left_oracle(entries, d, k):
    """Brute-force index sum for the left partial trace of a (d*k)-square
    matrix given as a dict {(row, col): value}."""
    out = {}
    for a in range(k):
        for b in range(k):
            s = 0
            for i in range(d):
                s += entries.get((i * k + a, i * k + b), 0)
            out[(a, b)] = s
    return out


def brute_ribbon_elements(h):
    """All v with v central, S(v) = v, eps(v) = 1 and (R21 R) Delta(v) =
    v (x) v, found by a sympy solve of the full quadratic system over the
    S-fixed centre.  Returns coordinate vectors as Matrix columns."""
    f = h.field
    n = h.dim
    rows = None
    for i in range(n):
        d = h.left_regular(i) - h.right_mult_matrix(h.basis_vec(i))
        rows = d if rows is None else rows.vstack(d)
    rows = rows.vstack(h.antipode - Matrix.identity(f, n))
    zb = kernel_basis(rows)
    m = len(zb)
    ts = sympy.symbols("t0:%d" % m)
    I = sympy.I

    def to_sym(s):
        co = s.q_coords()
        if f.phi == 1:
            return sympy.Rational(co[0].numerator, co[0].denominator)
        assert f.order == 4, "oracle only supports Q and Q(i) scalars"
        return sympy.Rational(co[0].numerator, co[0].denominator) + \
            I * sympy.Rational(co[1].numerator, co[1].denominator)

    v = [sum(ts[a] * to_sym(zb[a].data[i]) for a in range(m)) for i in range(n)]
    eqs = [sum(v[i] * to_sym(h.counit.data[i]) for i in range(n)) - 1]
    mono = h.monodromy_sparse()
    dv = {}
    for i in range(n):
        for (j, k), c in h.comult[i].items():
            dv[(j, k)] = dv.get((j, k), 0) + v[i] * to_sym(c)
    mdv = {}
    for (a, b), cm in mono.items():
        cs = to_sym(cm)
        for (j, k), val in dv.items():
            for p, c1 in h.mult[a][j].items():
                for q, c2 in h.mult[b][k].items():
                    mdv[(p, q)] = mdv.get((p, q), 0) + \
                        cs * to_sym(c1) * to_sym(c2) * val
    for p in range(n):
        for q in range(n):
            eqs.append(sympy.expand(mdv.get((p, q), 0) - v[p] * v[q]))
    sols = sympy.solve(eqs, list(ts), dict=True)
    out = []
    for sol in sols:
        vec = Matrix.zeros(f, n, 1)
        for a in range(m):
            val = sympy.nsimplify(sol.get(ts[a], 0))
            val = sympy.expand(val)
            re, im = val.as_real_imag()
            re = Fraction(sympy.Rational(re).p, sympy.Rational(re).q)
            im = Fraction(sympy.Rational(im).p, sympy.Rational(im).q)
            if f.phi == 1:
                assert im == 0
                coeff = f.from_rational(re)
            else:
                coeff = f.from_rational(re) + f.zeta() * f.from_rational(im)
            vec = vec + zb[a].scale(coeff)
        out.append(vec)
    return out


def group_double_table_z2():
    """Hand multiplication table of D(k[Z/2]) = F(Z/2) (x) k[Z/2]: basis
    delta_a (x) g^b with pointwise product on functions."""
    table = {}
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    i = a1 * 2 + b1
                    j = a2 * 2 + b2
                    # (delta_{a1} g^{b1})(delta_{a2} g^{b2}):
                    # group Z/2 acts trivially, so delta_{a1} delta_{a2}
                    # = [a1 == a2] delta_{a1}
                    if a1 == a2:
                        table[(i, j)] = a1 * 2 + ((b1 + b2) % 2)
    return table


# -- index formulas of the coend's derived morphisms --------------------------
# Each takes the flat matrices of the structure it is built from; L has
# dimension n and X dimension d.

def copairing_oracle(pairing, copair, n):
    """(pairing x id)(id x copair): L -> L for a pairing L (x) L -> 1, as
    S[r, c] = sum_p pairing(e_c, e_p) copair(e_p, e_r)."""
    f = copair.field
    s = Matrix.zeros(f, n, n)
    for r in range(n):
        for c in range(n):
            acc = f.zero()
            for p in range(n):
                v = copair.data[p * n + r]
                if not v.is_zero():
                    acc = acc + pairing.data[c * n + p] * v
            s.data[r * n + c] = acc
    return s


def frobenius_coproduct_oracle(mu, copair, n):
    """(mu x id)(id x copair): L -> L (x) L, entry by entry."""
    f = copair.field
    out = Matrix.zeros(f, n * n, n)
    for c in range(n):
        for pq in range(n * n):
            v = copair.data[pq]
            if v.is_zero():
                continue
            p, q = divmod(pq, n)
            for r in range(n):
                x = mu.data[r * n * n + c * n + p]
                if not x.is_zero():
                    out.data[(r * n + q) * n + c] += v * x
    return out


def coaction_oracle(iota_x, d, n):
    """delta_X = (id x iota_X)(coev_X x id): X -> X (x) L, as
    delta[(i, k), j] = iota_X[k, (i, j)]."""
    m = Matrix.zeros(iota_x.field, d * n, d)
    for j in range(d):
        for i in range(d):
            for k, v in enumerate(iota_x.col_list(i * d + j)):
                if not v.is_zero():
                    m.data[(i * n + k) * d + j] = v
    return m


def action_oracle(coact, omega, d, n):
    """rho_X = (id x omega)(delta_X x id): X (x) L -> X, as
    rho[i, (j, c)] = sum_k delta[(i, k), j] omega(e_k, e_c)."""
    rho = Matrix.zeros(coact.field, d, d * n)
    for j in range(d):
        for r in range(d * n):
            v = coact.data[r * d + j]
            if v.is_zero():
                continue
            i, k = divmod(r, n)
            for c in range(n):
                om = omega.data[k * n + c]
                if not om.is_zero():
                    rho.data[i * d * n + j * n + c] += v * om
    return rho


def mirror_action_oracle(inner, da, db, n):
    """id_X (x) rho_Xbar on X (x) Xbar (x) L, entry by entry."""
    rho = Matrix.zeros(inner.field, da * db, da * db * n)
    for a in range(da):
        for i in range(db):
            for jn in range(db * n):
                v = inner.data[i * (db * n) + jn]
                if not v.is_zero():
                    j, k = divmod(jn, n)
                    rho.data[(a * db + i) * (da * db * n) +
                             ((a * db + j) * n + k)] = v
    return rho


def character_oracle(rho, ginv, d, n):
    """chi_X[c] = sum_{i,k} rho[i, (k, c)] g^{-1}[k, i]: the trace over X
    of rho_X(- x e_c) twisted by the inverse pivot."""
    f = rho.field
    chi = Matrix.zeros(f, 1, n)
    for c in range(n):
        for i in range(d):
            for k in range(d):
                chi.data[c] += rho.data[i * d * n + k * n + c] * ginv.data[k * d + i]
    return chi

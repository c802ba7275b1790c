"""Independent brute-force oracles for the derived expected values.  These
deliberately avoid the library's own computation paths."""

import math
from fractions import Fraction

import sympy

from itertools import product

from mtc import repcat, coend, cli
from mtc.hopf import check_words
from mtc.report import Report
from mtc.etale import Subalgebra, orthogonal_primitive_idempotents
from mtc.scalars import Scalar, poly_squarefree, sqrt_in_field
from mtc.diagrams import (Compose, Tensor, Env, apply_word, words_agree,
                          _layers, _gen_colfn)
from mtc.linalg import (Matrix, kernel_basis, kron, invert, IncrementalSpan,
                        solve_right, NoSolution)


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


def regular_inverse_oracle(s):
    """The inverse of a nonzero scalar by Gauss-Jordan over Fraction on its
    regular representation: the y with (s * b_j)_j y = e_0 (independent of
    the polynomial layer that Scalar.inv uses)."""
    fld = s.field
    n = fld.dim
    # columns: s * basis_j, as fractions
    cols = []
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        p = s * Scalar(fld, tuple(unit), 1)
        cols.append([Fraction(x, p.den) for x in p.num])
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    rhs = [Fraction(1 if i == 0 else 0) for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    den = math.lcm(*(v.denominator for v in rhs))
    return Scalar(fld, tuple(int(v * den) for v in rhs), den)


def matmul_oracle(a, b):
    """The product a b by the triple loop that `Matrix.__mul__` ran before
    it visited only nonzeros: every entry of a is read, and for each
    nonzero one the whole row of b.  The operands are taken over the
    extended field when either one is."""
    f = b.field if b.field.extended else a.field
    a, b = a.promote(f), b.promote(f)
    n, k, m = a.rows, a.cols, b.cols
    out = [f.zero()] * (n * m)
    for i in range(n):
        for t in range(k):
            x = a.data[i * k + t]
            if x.is_zero():
                continue
            for j in range(m):
                y = b.data[t * m + j]
                if not y.is_zero():
                    out[i * m + j] = out[i * m + j] + x * y
    return Matrix(f, n, m, out)


def evaluate_applied_oracle(ast, env, columns):
    """`diagrams.evaluate_applied` by the layer loop it ran before it
    applied one generator at a time: each entry of a column is split into
    one index per atom of the layer, and the product of the atoms' columns
    is expanded term by term."""
    layers, _, cod = _layers(ast, env)
    atom_cache = {}
    cur = columns
    for layer in layers:
        atoms = []
        for gen, d_expr, c_expr in layer:
            key = (gen.kind,) + (tuple(gen.args) if gen.kind == "box" else
                                 (tuple(d_expr), tuple(c_expr)))
            if key not in atom_cache:
                atom_cache[key] = _gen_colfn(gen, env)
            atoms.append(atom_cache[key])
        dims_in = [a[0] for a in atoms]
        dims_out = [a[1] for a in atoms]
        new = []
        for col in cur:
            out = {}
            for flat, val in col.items():
                idxs = []
                rest = flat
                for dd in reversed(dims_in):
                    idxs.append(rest % dd)
                    rest //= dd
                idxs.reverse()
                parts = []
                for (_, _, colfn), sub in zip(atoms, idxs):
                    hits = [(sub, None)] if colfn is None else colfn(sub)
                    if not hits:
                        break
                    parts.append(hits)
                if len(parts) < len(atoms):
                    continue
                acc = [(0, val)]
                for hits, dout in zip(parts, dims_out):
                    acc = [(base * dout + row, v if w is None else v * w)
                           for base, v in acc for row, w in hits]
                for pos, v in acc:
                    out[pos] = out[pos] + v if pos in out else v
            new.append({p: v for p, v in out.items() if not v.is_zero()})
        cur = new
    return cur, env.dim_of(cod)


def tensor_action_oracle(t, x, y):
    """The action on X (x) Y of the 2-tensor t = {(i, j): c} in H (x) H as
    the dense sum of c kron(x.action[i], y.action[j]), one Kronecker
    product and one matrix addition per term."""
    d = x.dim * y.dim
    m = Matrix.zeros(x.algebra.field, d, d)
    for (i, j), c in t.items():
        m = m + kron(x.action[i], y.action[j]).scale(c)
    return m


def dense_act_oracle(x, a):
    """The action of the element a of H on X as the dense sum of the
    a_i x.action[i]."""
    m = Matrix.zeros(x.algebra.field, x.dim, x.dim)
    for i, c in enumerate(a.data):
        if not c.is_zero():
            m = m + x.action[i].scale(c)
    return m


def dense_module_oracle(env, expr):
    """The module of an object expression of env on dense matrices: a
    product through tensor_action_oracle over the comultiplication, a dual
    as rho(S(e_i))^T by dense_act_oracle."""
    h = env.algebra
    if len(expr) != 1:
        m = dense_module_oracle(env, expr[:1]) if expr else \
            repcat.trivial_module(h)
        for k in range(1, len(expr)):
            y = dense_module_oracle(env, expr[k:k + 1])
            m = repcat.ModuleObject(
                h, m.dim * y.dim,
                [tensor_action_oracle(t, m, y) for t in h.comult])
        return m
    kind, payload = expr[0]
    if kind == "name":
        return env.objects[payload]
    x = dense_module_oracle(env, payload)
    return repcat.ModuleObject(h, x.dim, [
        dense_act_oracle(x, Matrix.column(h.field, h.antipode.col_list(i)))
        .transpose() for i in range(h.dim)])


def dense_word_oracle(ast, env, boxes=None):
    """The matrix of a parsed diagram word composed densely on modules
    that dense_module_oracle materializes: kron for '*', matrix products
    for ';', the braiding as the flip after the dense R action, brinv as
    the inverse of the braiding matrix, the twist as the dense action of
    v^{-1} and twinv as its inverse.  `boxes` maps box names to their
    matrices."""
    if isinstance(ast, (Tensor, Compose)):
        ms = [dense_word_oracle(p, env, boxes) for p in ast.parts]
        m = ms[0]
        for nxt in ms[1:]:
            m = kron(m, nxt) if isinstance(ast, Tensor) else nxt * m
        return m
    k = ast.kind
    if k == "box":
        return boxes[ast.args[0]]
    h = env.algebra
    f = h.field
    x = dense_module_oracle(env, ast.args[0])
    d = x.dim
    if k == "id":
        return Matrix.identity(f, d)
    if k in ("tw", "twinv"):
        m = dense_act_oracle(x, h.ribbon_inv())
        return m if k == "tw" else invert(m)
    if k in ("br", "brinv"):
        y = dense_module_oracle(env, ast.args[1])
        m = flip_matrix_oracle(f, d, y.dim) * \
            tensor_action_oracle(h.rmatrix, x, y)
        return m if k == "br" else invert(m)
    # ev, coev: the pairing xi (x) v -> xi(v) and its copairing; evt,
    # coevt: the same with the pivot g = u v^{-1} on X
    g = Matrix.identity(f, d) if k in ("ev", "coev") else \
        dense_act_oracle(x, h.pivot() if k == "evt" else h.pivot_inv())
    if k in ("ev", "evt"):
        return Matrix.row(f, [g[a, b] for b in range(d) for a in range(d)])
    return Matrix.column(f, [g[b, a] for a in range(d) for b in range(d)])


def structural_checks_oracle(h, sd, have_ribbon):
    """The verdicts of the hexagon and twist checks of
    `cli._structural_checks` by the loops it ran before it checked each
    word once on the sum of the simples: the hexagon words on every triple
    of simples, the twist words on every pair.  {check name: verdict}."""
    def holds(words, **objects):
        env = Env(h)
        for name, x in objects.items():
            env.bind_object(name, x)
        return words_agree(env, words)

    ss = sd.simples
    out = {}
    if h.rmatrix is not None:
        out["hexagon on simples"] = all(
            holds(cli.HEXAGON_WORDS, X=x, Y=y, Z=z)
            for x in ss for y in ss for z in ss)
    if have_ribbon:
        out["twist of a product"] = all(
            holds(cli.TWIST_WORDS, X=x, Y=y) for x in ss for y in ss)
    return out


def sub_module(x, basis):
    """The submodule of X spanned by the given independent vectors, in that
    basis."""
    h = x.algebra
    stack = basis[0].hstack(*basis[1:])
    action = [solve_right(stack, x.action[i] * stack) for i in range(h.dim)]
    return repcat.ModuleObject(h, len(basis), action, "%s'" % x.name)


def quotient_module(x, span):
    """X / span with the induced action, in the basis of the free (non-pivot)
    coordinates."""
    h = x.algebra
    free = span.free_indices()
    action = []
    for i in range(h.dim):
        cols = [span.reduce(Matrix.column(h.field, x.action[i].col_list(j)))
                for j in free]
        action.append(Matrix(h.field, len(free), len(free),
                             [c.data[r] for r in free for c in cols]))
    return repcat.ModuleObject(h, len(free), action, "%s/." % x.name)


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
        layer = quotient_module(cur, span)
        for i, s in enumerate(sd.simples):
            mult[i] += len(repcat.hom_basis(layer, s))
        if not sub_basis:
            break
        cur = sub_module(cur, sub_basis)
    return mult


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


# -- the coend's carrier and iota on a pair as index loops --------------------
# The contractions over Delta that `mtc.coend` used before it read both off
# the bimodule F = H* and the dual algebra.

def coadjoint_oracle(h):
    """The action matrices of H* with (h.f)(a) = f(S(h_(1)) a h_(2)), by
    multiplying out S(h_(1)) e_k h_(2) for every basis element e_k."""
    n = h.dim
    f = h.field
    action = []
    for m in range(n):
        mat = Matrix.zeros(f, n, n)
        for (j1, j2), c in h.comult[m].items():
            s = h.antipode.col_list(j1)  # S(e_j1)
            for k in range(n):
                v = h.mul_vec(Matrix.column(f, s), h.basis_vec(k))
                v = h.mul_vec(v, h.basis_vec(j2))
                for i in range(n):
                    if not v.data[i].is_zero():
                        mat.data[k * n + i] = mat.data[k * n + i] + c * v.data[i]
        action.append(mat)
    return action


def iota_pair_oracle(h, x, y):
    """Column idx of iota_{X (x) Y} on the flat (X x Y)* (x) (X x Y) basis
    as a sorted list of nonzero (row, coeff) pairs: entry m is
    sum_{(m1, m2) in Delta(e_m)} c X(e_m1)[i, k] Y(e_m2)[j, l]."""
    dx, dy = x.dim, y.dim
    d = dx * dy

    def col(idx):
        q, p = divmod(idx, d)
        i, j = divmod(q, dy)
        k, l = divmod(p, dy)
        acc = {}
        for m_i in range(h.dim):
            s = None
            for (m1, m2), c in h.comult[m_i].items():
                vx = x.action[m1].data[i * dx + k]
                if vx.is_zero():
                    continue
                vy = y.action[m2].data[j * dy + l]
                if vy.is_zero():
                    continue
                t = c * vx * vy
                s = t if s is None else s + t
            if s is not None and not s.is_zero():
                acc[m_i] = s
        return list(acc.items())
    return col


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


# -- the Hopf and quasitriangular axioms as index loops -----------------------
# Each oracle returns the (name, status, witness) checks of the matching
# Report, with the first violating basis tuple as witness.

def _check(out, name, bad, noun):
    out.append((name, "pass" if bad is None else "fail",
                None if bad is None or noun is None
                else "basis %s %s" % (noun, bad)))


def _unit2(h):
    """1 (x) 1 as a sparse element of H (x) H."""
    return {(i, j): a * b for i, a in enumerate(h.unit.data)
            for j, b in enumerate(h.unit.data)
            if not a.is_zero() and not b.is_zero()}


def hopf_axioms_oracle(h):
    f = h.field
    n = h.dim
    z = f.zero()
    out = []

    def differ(x, y):
        return any(x.get(t, z) != y.get(t, z) for t in set(x) | set(y))

    bad = None
    for i, j, k in ((i, j, k) for i in range(n) for j in range(n)
                    for k in range(n)):
        left, right = {}, {}
        for m, c in h.mult[i][j].items():
            for l, d in h.mult[m][k].items():
                left[l] = left.get(l, z) + c * d
        for m, c in h.mult[j][k].items():
            for l, d in h.mult[i][m].items():
                right[l] = right.get(l, z) + c * d
        if differ(left, right):
            bad = (i, j, k)
            break
    _check(out, "associativity", bad, "triple")

    bad = next(((i,) for i in range(n)
                if h.mul_vec(h.unit, h.basis_vec(i)) != h.basis_vec(i)
                or h.mul_vec(h.basis_vec(i), h.unit) != h.basis_vec(i)), None)
    _check(out, "unit", bad, "index")

    bad = None
    for i in range(n):
        lhs, rhs = {}, {}
        for (j, k), v in h.comult[i].items():
            for (p, q), w in h.comult[j].items():
                lhs[(p, q, k)] = lhs.get((p, q, k), z) + v * w
            for (p, q), w in h.comult[k].items():
                rhs[(j, p, q)] = rhs.get((j, p, q), z) + v * w
        if differ(lhs, rhs):
            bad = (i,)
            break
    _check(out, "coassociativity", bad, "index")

    bad = None
    for i in range(n):
        le = Matrix.zeros(f, n, 1)
        ri = Matrix.zeros(f, n, 1)
        for (j, k), v in h.comult[i].items():
            le.data[k] = le.data[k] + h.counit.data[j] * v
            ri.data[j] = ri.data[j] + h.counit.data[k] * v
        if le != h.basis_vec(i) or ri != h.basis_vec(i):
            bad = (i,)
            break
    _check(out, "counit", bad, "index")

    bad = None
    for i, j in ((i, j) for i in range(n) for j in range(n)):
        dprod = {}
        for k, c in h.mult[i][j].items():
            for t, v in h.comult[k].items():
                dprod[t] = dprod.get(t, z) + c * v
        if differ(dprod, h.tensor_mul(dict(h.comult[i]), dict(h.comult[j]))):
            bad = (i, j)
            break
    if bad is None and not h.sparse_eq(h.comult_sparse(h.unit), _unit2(h)):
        bad = ("Delta(1)",)
    _check(out, "comultiplication is an algebra map", bad, "pair")

    bad = None
    for i, j in ((i, j) for i in range(n) for j in range(n)):
        lhs = z
        for k, c in h.mult[i][j].items():
            lhs = lhs + c * h.counit.data[k]
        if lhs != h.counit.data[i] * h.counit.data[j]:
            bad = (i, j)
            break
    if bad is None and h.counit_of(h.unit) != f.one():
        bad = ("eps(1)",)
    _check(out, "counit is an algebra map", bad, "pair")

    bad = None
    for i in range(n):
        left = Matrix.zeros(f, n, 1)
        right = Matrix.zeros(f, n, 1)
        for (j, k), v in h.comult[i].items():
            left = left + h.mul_vec(h.antipode * h.basis_vec(j),
                                    h.basis_vec(k)).scale(v)
            right = right + h.mul_vec(h.basis_vec(j),
                                      h.antipode * h.basis_vec(k)).scale(v)
        expect = h.unit.scale(h.counit.data[i])
        if left != expect or right != expect:
            bad = (i,)
            break
    _check(out, "antipode", bad, "index")
    return out


def invert_tensor2_oracle(h, r):
    """The inverse of a sparse element r of H (x) H, by a solve against the
    n^2 x n^2 matrix of left multiplication by r; None if there is none."""
    n = h.dim
    lm = Matrix.zeros(h.field, n * n, n * n)
    for (i, j), c in r.items():
        li, lj = h.left_regular(i), h.left_regular(j)
        for a, b, p, q in ((a, b, p, q) for a in range(n) for b in range(n)
                           for p in range(n) for q in range(n)):
            x, y = li.data[a * n + b], lj.data[p * n + q]
            if not x.is_zero() and not y.is_zero():
                idx = (a * n + p) * n * n + (b * n + q)
                lm.data[idx] = lm.data[idx] + c * x * y
    one2 = Matrix.zeros(h.field, n * n, 1)
    for (i, j), v in _unit2(h).items():
        one2.data[i * n + j] = v
    try:
        inv = solve_right(lm, one2)
    except NoSolution:
        return None
    inv = {divmod(k, n): v for k, v in enumerate(inv.data) if not v.is_zero()}
    if not h.sparse_eq(h.tensor_mul(r, inv), _unit2(h)):
        return None
    return inv


def quasitriangular_oracle(h):
    f = h.field
    n = h.dim
    z = f.zero()
    if h.rmatrix is None:
        return [("rmatrix present", "fail", "no R-matrix")]
    out = [("rmatrix present", "pass", None)]
    r = dict(h.rmatrix)
    if invert_tensor2_oracle(h, r) is None:
        return out + [("R invertible", "fail", None)]
    out.append(("R invertible", "pass", None))
    units = [(u, w) for u, w in enumerate(h.unit.data) if not w.is_zero()]
    r13 = {(i, u, j): c * w for (i, j), c in r.items() for u, w in units}
    r23 = {(u, i, j): c * w for (i, j), c in r.items() for u, w in units}
    r12 = {(i, j, u): c * w for (i, j), c in r.items() for u, w in units}

    lhs = {}
    for (i, j), c in r.items():
        for (p, q), v in h.comult[i].items():
            lhs[(p, q, j)] = lhs.get((p, q, j), z) + c * v
    lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
    ok = h.sparse_eq(lhs, h.tensor_mul(r13, r23))
    _check(out, "hexagon (Delta x id)R = R13 R23", None if ok else (), None)

    lhs = {}
    for (i, j), c in r.items():
        for (p, q), v in h.comult[j].items():
            lhs[(i, p, q)] = lhs.get((i, p, q), z) + c * v
    lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
    ok = h.sparse_eq(lhs, h.tensor_mul(r13, r12))
    _check(out, "hexagon (id x Delta)R = R13 R12", None if ok else (), None)

    bad = None
    for i in range(n):
        dop = {(k, j): v for (j, k), v in h.comult[i].items()}
        if not h.sparse_eq(h.tensor_mul(dop, r),
                           h.tensor_mul(r, dict(h.comult[i]))):
            bad = (i,)
            break
    _check(out, "Delta^op(a) R = R Delta(a)", bad, "index")

    ce1 = Matrix.zeros(f, n, 1)
    ce2 = Matrix.zeros(f, n, 1)
    for (i, j), c in r.items():
        ce1.data[j] = ce1.data[j] + c * h.counit.data[i]
        ce2.data[i] = ce2.data[i] + c * h.counit.data[j]
    ok = ce1 == h.unit and ce2 == h.unit
    _check(out, "(eps x id)R = 1 = (id x eps)R", None if ok else (), None)
    return out


def operator_minimal_polynomial_oracle(op):
    """Monic minimal polynomial, low degree first, of a square matrix: the
    first power op^d that is a combination of op^0, ..., op^{d-1}, with
    every power formed as an n x n operator."""
    f = op.field
    cols = [Matrix.column(f, Matrix.identity(f, op.rows).data)]
    power = op
    while True:
        target = Matrix.column(f, power.data)
        try:
            sol = solve_right(cols[0].hstack(*cols[1:]), target)
        except NoSolution:
            cols.append(target)
            power = power * op
            continue
        return [-x for x in sol.data] + [f.one()]


def sqrt_branch_ribbon_elements(h):
    """All ribbon elements of a quasitriangular H, in the order of
    `hopf.solve_ribbon`, by the square-root branch search it replaced.

    Every ribbon element is S-fixed, central, and squares to u S(u); the
    candidates are found by taking square roots of u S(u) in each local
    factor of the S-fixed part of the centre, then filtered by the counit
    and Delta(v) relations."""
    if h.rmatrix is None:
        raise ValueError("%s has no R-matrix: a ribbon element needs a "
                         "quasitriangular structure" % h.name)
    f = h.field
    n = h.dim
    u = h.drinfeld_u()
    c = h.mul_vec(u, h.antipode * u)

    # centre: [L_i - R_i] x = 0 for all i
    rows = [h.left_regular(i) - h.right_mult_matrix(h.basis_vec(i))
            for i in range(n)]
    stack = rows[0].vstack(*rows[1:], h.antipode - Matrix.identity(f, n))
    zbasis = kernel_basis(stack)
    if not zbasis:
        return []
    idems = orthogonal_primitive_idempotents(
        f, h.mul_vec, zbasis, h.unit, require_split=False,
        block_name="S-fixed centre of %s" % h.name)
    idems.sort(key=lambda e: tuple(s.sort_key() for s in e.data))

    per_factor = []
    for e in idems:
        corner = Subalgebra(f, h.mul_vec, zbasis, e)
        ce = h.mul_vec(c, e)
        q = corner.min_poly(ce)
        q_sf = poly_squarefree(q)
        if len(q_sf) - 1 != 1:
            # residue field strictly larger than the scalar field
            return []
        gamma = -(q_sf[0] * q_sf[1].inv())
        roots = sqrt_in_field(gamma)
        if not roots:
            return []
        # nilpotent part: n0 = ce/gamma - e; sqrt(e + n0) by binomial series
        n0 = ce.scale(gamma.inv()) - e
        series = e
        term = e
        kk = 1
        while True:
            term = h.mul_vec(term, n0)
            if term.is_zero():
                break
            coeff = _binom_half_oracle(kk)
            series = series + term.scale(f.from_rational(coeff))
            kk += 1
        branch = []
        for r in sorted(roots, key=lambda s: s.sort_key()):
            branch.append(h.mul_vec(series, e.scale(r)))
        per_factor.append(branch)

    candidates = [Matrix.zeros(f, n, 1)]
    for branch in per_factor:
        candidates = [cand + y for cand in candidates for y in branch]

    out = []
    mono = h.monodromy_sparse()
    for v in candidates:
        if h.counit_of(v) != f.one():
            continue
        lhs = h.tensor_mul(mono, h.comult_sparse(v))
        if not h.sparse_eq(lhs, _outer_sparse_oracle(v, v)):
            continue
        out.append(v)
    out.sort(key=lambda m: tuple(s.sort_key() for s in m.data))
    return out


def _binom_half_oracle(k):
    num = Fraction(1)
    x = Fraction(1, 2)
    for i in range(k):
        num *= (x - i)
    return num / math.factorial(k)


def _outer_sparse_oracle(a, b):
    return {(i, j): x * y for i, x in enumerate(a.data) if not x.is_zero()
            for j, y in enumerate(b.data) if not y.is_zero()}


def regular_witness_structure(cd):
    """The coend's structure morphisms solved with the regular module H as
    every argument of every defining word, through the section
    xi -> xi (x) 1 of iota_H: {CoendData attribute: matrix}.  It reads the
    words of coend.STRUCTURE on another witness than the library, which
    reads a word on a pair on (H, the sum of the projective covers)."""
    h = cd.h
    reg = repcat.regular_module(h)
    sec = cd.section_columns()
    n2 = h.dim * h.dim
    pair = [{ia * n2 + ib: va * vb for ia, va in ca.items()
             for ib, vb in cb.items()} for ca in sec for cb in sec]
    out = {"eta": h.counit.transpose()}
    for e in coend.STRUCTURE:
        if e.word is None:
            continue
        if len(e.dom) == 1:
            env, cols = coend._object_env(cd, reg), sec
        else:
            env, cols = coend._pair_env(cd, reg, reg), pair
        out[e.attr] = apply_word(env, e.word, cols)
    return out


# -- the coend's two certificates on dense matrices ----------------------------
# `coend.verify_hopf_on_coend` and `coend.dinaturality_certificate` as they
# were before they read the action on L (x) L from sparse columns and
# evaluated each certificate word once on the direct sum of the objects.

def flip_matrix_oracle(field, dx, dy):
    """The dense matrix of the flip X (x) Y -> Y (x) X."""
    m = Matrix.zeros(field, dx * dy, dx * dy)
    one = field.one()
    for i in range(dx):
        for j in range(dy):
            m.data[(j * dx + i) * dx * dy + (i * dy + j)] = one
    return m


def verify_hopf_on_coend_oracle(cd):
    """The report of `coend.verify_hopf_on_coend`, its intertwiner block
    by dense products with the action of each generator on 1, L and
    L (x) L, the last a sum of Kronecker products over Delta(g)."""
    rep = Report("Hopf structure of the coend")
    h = cd.h
    L = cd.carrier
    one = repcat.trivial_module(h)
    ok = dict.fromkeys((e.check for e in coend.STRUCTURE), True)
    for g in repcat.generating_indices(h):
        act = (one.action[g], L.action[g],
               tensor_action_oracle(h.comult[g], L, L))
        for e in coend.STRUCTURE:
            m = getattr(cd, e.attr)
            ok[e.check] = ok[e.check] and \
                m * act[len(e.dom)] == act[len(e.cod)] * m
    for check, good in ok.items():
        rep.add("%s is an intertwiner" % check, good)
    return check_words(rep, coend._structure_env(cd), coend.HOPF_AXIOMS)


def dinaturality_certificate_oracle(cd):
    """The report of `coend.dinaturality_certificate`, one environment per
    object and per pair, with the dense flip as the box kap: each word on
    every basis column against the dense m . iota_X or
    m . kron(iota_X, iota_Y), and dinaturality as dense products with
    Kronecker products."""
    rep = Report("dinaturality certificate")
    h = cd.h
    f = h.field
    sd = repcat.simples_data(h)
    objects = []
    seen = set()
    for m in list(sd.simples) + list(sd.projectives):
        if m.fingerprint() not in seen:
            seen.add(m.fingerprint())
            objects.append(m)
    for k in (1, 2):
        entries = [e for e in coend.STRUCTURE if len(e.dom) == k]
        for xs in product(objects, repeat=k):
            if k == 1:
                env = coend._object_env(cd, *xs)
            else:
                x, y = xs
                env = coend._pair_env(cd, x, y)
                _, dom, cod = env.boxes["kap"]
                env.bind_box("kap", flip_matrix_oracle(f, y.dim, x.dim),
                             dom, cod)
            iotas = [cd.iota_matrix(x) for x in xs]
            iota = iotas[0] if k == 1 else kron(*iotas)
            label = " x ".join("iota_%s" % x.name for x in xs)
            label = label if k == 1 else "(%s)" % label
            cols = [{i: f.one()} for i in range(iota.cols)]
            for e in entries:
                rep.add("%s . %s" % (e.check, label),
                        getattr(cd, e.attr) * iota ==
                        apply_word(env, e.word, cols))
    for x in objects:
        for y in objects:
            for k, fm in enumerate(repcat.hom_basis(x, y)):
                lhs = cd.iota_matrix(x) * kron(fm.matrix.transpose(),
                                               Matrix.identity(f, x.dim))
                rhs = cd.iota_matrix(y) * kron(Matrix.identity(f, y.dim),
                                               fm.matrix)
                rep.add("dinaturality %s->%s #%d" % (x.name, y.name, k),
                        lhs == rhs)
    return rep


def qpoly_factor_oracle(coeffs):
    """Irreducible monic factors over Q (multiplicity dropped) of a
    polynomial with Fraction coefficients, low degree first, by sympy's
    factor_list: the factorizer `mtc.etale` used before it had its own."""
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

"""Finite-dimensional ribbon Hopf algebras presented by exact structure
constants: verifiers for the axioms, Drinfeld doubles, mirrors, tensor
products, ribbon elements as pivotal grouplikes, and a library of built-in
presets.

`Algebra` is the one algebra given by structure constants, with its element
calculus; `HopfAlgebraData` extends it by the coalgebra, R and the ribbon
element.  The coend's (L, mu, eta) and the defect fusion algebras are
plain `Algebra` instances.

The Hopf axioms are one table of diagram words, `hopf_axiom_words(x, br)`,
shared with the coend: H checks it with its structure constants bound as
sparse boxes on its regular module and the flip as the braiding, the coend
with its solved structure and br(L, L).  The quasitriangular identities
are a second table with R as a box 1 -> H (x) H.

Elements of H are column Matrices over the scalar field; elements of tensor
powers H^{x m} are sparse dicts {index tuple: Scalar}.
"""

import json

from .scalars import (CycField, parse_scalar, parse_count, format_scalar,
                      poly_squarefree)
from .linalg import (Matrix, kron, solve_right, NoSolution, invert,
                     IncrementalSpan, columns_matrix)
from .etale import corner_subalgebra, orthogonal_primitive_idempotents
from . import diagrams, repcat
from .report import Report


class HopfError(Exception):
    pass


class Algebra:
    """A finite-dimensional unital algebra given by structure constants:
    mult[i][j] is the sparse product e_i e_j as {k: coeff} and unit the
    dense column of 1.  H, the coend's (L, mu, eta) and the defect fusion
    algebras are instances; `repcat.regular_module(a).validate()` checks
    associativity and unit, and `repcat.radical_basis(a)` gives the
    radical."""

    def __init__(self, field, dim, basis_labels, mult, unit, name="A"):
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.mult = mult
        self.unit = unit
        self.name = name
        assert len(basis_labels) == dim
        assert len(mult) == dim and all(len(row) == dim for row in mult)
        assert unit.rows == dim and unit.cols == 1
        self._cache = {}

    # -- element calculus -------------------------------------------------
    def basis_vec(self, i):
        v = Matrix.zeros(self.field, self.dim, 1)
        v.data[i] = self.field.one()
        return v

    def mul_vec(self, a, b):
        out = Matrix.zeros(self.field, self.dim, 1)
        bs = [(j, y) for j, y in enumerate(b.data) if any(y.num)]
        for i, x in enumerate(a.data):
            if not any(x.num):
                continue
            row = self.mult[i]
            for j, y in bs:
                xy = x * y
                for k, c in row[j].items():
                    out.data[k] = out.data[k] + xy * c
        return out

    def left_mult_matrix(self, a):
        m = Matrix.zeros(self.field, self.dim, self.dim)
        for i in range(self.dim):
            x = a.data[i]
            if x.is_zero():
                continue
            for j in range(self.dim):
                for k, c in self.mult[i][j].items():
                    m.data[k * self.dim + j] = m.data[k * self.dim + j] + x * c
        return m

    def right_mult_matrix(self, a):
        m = Matrix.zeros(self.field, self.dim, self.dim)
        for j in range(self.dim):
            y = a.data[j]
            if y.is_zero():
                continue
            for i in range(self.dim):
                for k, c in self.mult[i][j].items():
                    m.data[k * self.dim + i] = m.data[k * self.dim + i] + y * c
        return m

    def noncentral_index(self, v):
        """The first basis index i with v e_i != e_i v, None if v is central."""
        return next((i for i in range(self.dim)
                     if self.mul_vec(v, self.basis_vec(i)) !=
                     self.mul_vec(self.basis_vec(i), v)), None)

    def inv_vec(self, a):
        try:
            return solve_right(self.left_mult_matrix(a), self.unit)
        except NoSolution:
            raise HopfError("element is not invertible")

    # sparse tensor-power elements ----------------------------------------
    def tensor_mul(self, x, y):
        """Product in A^{x m} of sparse elements (componentwise algebra)."""
        out = {}
        for ix, cx in x.items():
            for iy, cy in y.items():
                parts = [self.mult[a][b] for a, b in zip(ix, iy)]
                idxs = [()]
                vals = [cx * cy]
                for p in parts:
                    nidx, nval = [], []
                    for base, v in zip(idxs, vals):
                        for k, c in p.items():
                            nidx.append(base + (k,))
                            nval.append(v * c)
                    idxs, vals = nidx, nval
                for t, v in zip(idxs, vals):
                    if t in out:
                        out[t] = out[t] + v
                    else:
                        out[t] = v
        return {t: v for t, v in out.items() if not v.is_zero()}

    def sparse_eq(self, x, y):
        keys = set(x) | set(y)
        z = self.field.zero()
        return all(x.get(k, z) == y.get(k, z) for k in keys)

    def quotient(self, ideal):
        """A/I on the canonical representatives modulo the two-sided ideal
        I, an IncrementalSpan: (mul, basis, unit), where basis holds the
        unit vectors at the span's free indices."""
        def mul(a, b):
            return ideal.reduce(self.mul_vec(a, b))
        return (mul if ideal.rank else self.mul_vec,
                [self.basis_vec(j) for j in ideal.free_indices()],
                ideal.reduce(self.unit))

    # -- characters ---------------------------------------------------------
    def characters(self):
        """The algebra maps A -> k as columns of their values on the basis,
        in deterministic order.  They factor through A/I, I the two-sided
        ideal generated by the commutators.  A block of A/I gives one when
        each basis element acts on it as a scalar plus a nilpotent (its
        minimal polynomial there has a squarefree part of degree 1), else
        none: a block need not split over k, having no k-point."""
        return self._derived("characters", self._characters)

    def _characters(self):
        f, n = self.field, self.dim
        ideal = IncrementalSpan(f, n)
        todo = [self.mul_vec(self.basis_vec(i), self.basis_vec(j))
                - self.mul_vec(self.basis_vec(j), self.basis_vec(i))
                for i in range(n) for j in range(i + 1, n)
                if self.mult[i][j] != self.mult[j][i]]
        while todo:
            w = todo.pop()
            if ideal.add(w):
                for k in range(n):
                    e = self.basis_vec(k)
                    todo += [self.mul_vec(e, w), self.mul_vec(w, e)]
        if ideal.rank == n:
            return []
        mul, basis, unit = self.quotient(ideal)
        out = []
        for e in orthogonal_primitive_idempotents(
                f, mul, basis, unit, require_split=False,
                block_name="%s/[%s, %s]" % ((self.name,) * 3)):
            j = next(j for j, x in enumerate(e.data) if not x.is_zero())
            corner, chi = None, []
            for i in range(n):
                # A/I is commutative, so w is in e (A/I) e; e_i acts there
                # as c when w = c e, always so on a block of dimension 1
                w = mul(self.basis_vec(i), e)
                c = w.data[j] / e.data[j]
                if w == e.scale(c):
                    chi.append(c)
                    continue
                if corner is None:
                    corner = corner_subalgebra(f, mul, basis, e)
                p = poly_squarefree(corner.min_poly(w))
                if len(p) != 2:
                    break
                chi.append(-p[0] / p[1])
            else:
                out.append(Matrix.column(f, chi))
        out.sort(key=lambda m: tuple(s.sort_key() for s in m.data))
        return out

    # -- derived data -------------------------------------------------------
    # computed once per algebra and kept in _cache: callers must not
    # mutate what is returned
    def _derived(self, key, compute):
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = compute()
        return got

    def __repr__(self):
        return "%s(%s, dim=%d)" % (type(self).__name__, self.name, self.dim)


class HopfAlgebraData(Algebra):
    """Structure constants of a finite-dimensional (quasitriangular, ribbon)
    Hopf algebra: the algebra part as in `Algebra`, plus comult[i], the
    sparse Delta(e_i) as {(j, k): coeff}, the sparse rmatrix {(i, j):
    coeff}, and dense counit, antipode and ribbon matrices."""

    def __init__(self, field, dim, basis_labels, mult, unit, comult, counit,
                 antipode, rmatrix=None, ribbon=None, name="H"):
        super().__init__(field, dim, basis_labels, mult, unit, name)
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.rmatrix = rmatrix
        self.ribbon = ribbon
        assert len(comult) == dim
        assert counit.rows == 1 and counit.cols == dim
        assert antipode.rows == dim and antipode.cols == dim

    def counit_of(self, a):
        s = self.field.zero()
        for i in range(self.dim):
            if not a.data[i].is_zero():
                s = s + self.counit.data[i] * a.data[i]
        return s

    def comult_sparse(self, a):
        out = {}
        for i in range(self.dim):
            c = a.data[i]
            if c.is_zero():
                continue
            for (j, k), v in self.comult[i].items():
                key = (j, k)
                cv = c * v
                out[key] = out[key] + cv if key in out else cv
        return {t: v for t, v in out.items() if not v.is_zero()}

    def comult2_sparse(self, a):
        """(Delta x id) Delta a as {(p,q,r): coeff}."""
        out = {}
        for (j, k), v in self.comult_sparse(a).items():
            for (p, q), w in self.comult[j].items():
                key = (p, q, k)
                vw = v * w
                out[key] = out[key] + vw if key in out else vw
        return {t: v for t, v in out.items() if not v.is_zero()}

    # -- derived elements (cached by Algebra._derived) ----------------------
    def drinfeld_u(self):
        """u = m (S x id) flip(R)."""
        def compute():
            u = Matrix.zeros(self.field, self.dim, 1)
            for (i, j), c in self.rmatrix.items():
                su = self.antipode * self.basis_vec(j)
                u = u + self.mul_vec(su, self.basis_vec(i)).scale(c)
            return u
        return self._derived("u", compute)

    def ribbon_inv(self):
        """v^{-1}, which acts as the twist."""
        assert self.ribbon is not None, "no ribbon element chosen"
        return self._derived("v_inv", lambda: self.inv_vec(self.ribbon))

    def pivot(self):
        """g = u v^{-1}, grouplike for an accepted ribbon element."""
        return self._derived("pivot", lambda: self.mul_vec(
            self.drinfeld_u(), self.ribbon_inv()))

    def pivot_inv(self):
        """g^{-1}."""
        return self._derived("pivot_inv", lambda: self.inv_vec(self.pivot()))

    def antipode_u_inv(self):
        """S(u)^{-1}."""
        return self._derived("s_u_inv", lambda: self.inv_vec(
            self.antipode * self.drinfeld_u()))

    def r_inverse(self):
        """R^{-1} = (S x id)(R) (Drinfeld), sparse in H x H."""
        def compute():
            out = {}
            for (i, j), c in self.rmatrix.items():
                for k, s in enumerate(self.antipode.col_list(i)):
                    if not s.is_zero():
                        out[(k, j)] = out.get((k, j), self.field.zero()) + c * s
            return {t: v for t, v in sorted(out.items()) if not v.is_zero()}
        return self._derived("r_inv", compute)

    def dual(self):
        """H* as an algebra on the dual basis e^i: e^j e^k = sum_i
        Delta(e_i)_{jk} e^i, with unit eps.  Its characters are the
        grouplikes of H."""
        def compute():
            mult = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
            for i, d in enumerate(self.comult):
                for (j, k), c in d.items():
                    mult[j][k][i] = c
            return Algebra(self.field, self.dim,
                           ["e^" + b for b in self.basis_labels], mult,
                           self.counit.transpose(), "%s*" % self.name)
        return self._derived("dual", compute)

    def monodromy_sparse(self):
        """R_21 R as a sparse element of H x H."""
        r = self.rmatrix
        r21 = {(j, i): c for (i, j), c in r.items()}
        return self.tensor_mul(r21, dict(r))

    def with_ribbon(self, v):
        h = HopfAlgebraData(self.field, self.dim, self.basis_labels, self.mult,
                            self.unit, self.comult, self.counit, self.antipode,
                            self.rmatrix, v, self.name)
        return h


# ---------------------------------------------------------------------------
# verifiers

def hopf_axiom_words(x, br):
    """The Hopf-algebra axioms of the object `x` with boxes mu, eta, delta,
    eps and S, where `br` is the word of the braiding of x (x) x: the flip
    for H in vector spaces, br(L, L) for the coend L in H-mod.

    One (check name, words, at_one) entry per check; all the words of an
    entry must evaluate to the same matrix.  `at_one` is None or a (label,
    words) pair: the check's equality at the unit 1, named by the label in
    a witness."""
    i = "id(%s)" % x
    return (
        ("associativity", ("(box(mu) * %s) ; box(mu)" % i,
                           "(%s * box(mu)) ; box(mu)" % i), None),
        ("unit", (i, "(box(eta) * %s) ; box(mu)" % i,
                  "(%s * box(eta)) ; box(mu)" % i), None),
        ("coassociativity", ("box(delta) ; (box(delta) * %s)" % i,
                             "box(delta) ; (%s * box(delta))" % i), None),
        ("counit", (i, "box(delta) ; (box(eps) * %s)" % i,
                    "box(delta) ; (%s * box(eps))" % i), None),
        ("comultiplication is an algebra map", (
            "box(mu) ; box(delta)",
            "(box(delta) * box(delta)) ; (%s * %s * %s) ; (box(mu) * box(mu))"
            % (i, br, i)),
         ("Delta(1)", ("box(eta) ; box(delta)", "box(eta) * box(eta)"))),
        ("counit is an algebra map", ("box(mu) ; box(eps)",
                                      "box(eps) * box(eps)"),
         ("eps(1)", ("(box(eta) ; box(eps)) * %s" % i, i))),
        ("antipode", ("box(eps) ; box(eta)",
                      "box(delta) ; (box(S) * %s) ; box(mu)" % i,
                      "box(delta) ; (%s * box(S)) ; box(mu)" % i), None),
    )


# H's axioms, with the flip as the braiding
HOPF_AXIOMS = hopf_axiom_words("H", "box(flip)")

# The quasitriangular structure of H, with R a box 1 -> H (x) H; the words
# leave out the unit factors of R13, R23 and R12, so they presuppose the
# unit axiom.
QUASITRIANGULAR_AXIOMS = (
    ("hexagon (Delta x id)R = R13 R23", (
        "box(R) ; (box(delta) * id(H))",
        "(box(R) * box(R)) ; (id(H) * box(flip) * id(H)) ; "
        "(id(H) * id(H) * box(mu))"), None),
    ("hexagon (id x Delta)R = R13 R12", (
        "box(R) ; (id(H) * box(delta))",
        "(box(R) * box(R)) ; (id(H) * box(flip) * id(H)) ; "
        "(id(H) * id(H) * box(flip)) ; (box(mu) * id(H) * id(H))"), None),
    ("Delta^op(a) R = R Delta(a)", (
        "(box(delta) * box(R)) ; (box(flip) * id(H) * id(H)) ; "
        "(id(H) * box(flip) * id(H)) ; (box(mu) * box(mu))",
        "(box(R) * box(delta)) ; (id(H) * box(flip) * id(H)) ; "
        "(box(mu) * box(mu))"), None),
    ("(eps x id)R = 1 = (id x eps)R", (
        "box(eta)", "box(R) ; (box(eps) * id(H))",
        "box(R) ; (id(H) * box(eps))"), None),
)

_BASIS_TUPLE = {1: "basis index", 2: "basis pair", 3: "basis triple"}


def check_words(rep, env, table):
    """Add one check per (name, words, at_one) entry of a word table to
    rep.  A failure is witnessed by the first basis tuple of the domain on
    which the words disagree, or by the label of a failing equality at 1;
    a check whose domain is the unit object has no witness."""
    for name, words, at_one in table:
        at = diagrams.first_disagreement(env, words)
        if at is None and at_one is not None \
                and diagrams.first_disagreement(env, at_one[1]) is not None:
            at = (at_one[0],)
        witness = None
        if at:
            dom, _ = diagrams.typecheck(diagrams.parse(words[0]), env)
            witness = "%s %s" % (_BASIS_TUPLE[len(dom)], at)
        rep.add(name, at is None, witness)
    return rep


def _structure_env(h):
    """H's regular module bound as H, and its structure constants as
    sparse column-function boxes with no zero entries: mu, eta, delta,
    eps, S, the flip of H (x) H, and R when H has one."""
    n = h.dim
    one = h.field.one()
    hh = (("name", "H"),)
    reg = repcat.regular_module(h)
    env = diagrams.Env(h).bind_object("H", reg)
    eta = [(i, c) for i, c in enumerate(h.unit.data) if not c.is_zero()]
    delta = [[(j * n + k, v) for (j, k), v in d.items() if not v.is_zero()]
             for d in h.comult]
    eps = [[] if c.is_zero() else [(0, c)] for c in h.counit.data]
    env.bind_box("mu", lambda c: reg.action_colfn(c // n)(c % n), hh + hh, hh)
    env.bind_box("eta", lambda c: eta, (), hh)
    env.bind_box("delta", delta.__getitem__, hh, hh + hh)
    env.bind_box("eps", eps.__getitem__, hh, ())
    env.bind_box("S", h.antipode, hh, hh)
    env.bind_box("flip", lambda c: [((c % n) * n + c // n, one)],
                 hh + hh, hh + hh)
    if h.rmatrix is not None:
        r = [(i * n + j, c) for (i, j), c in h.rmatrix.items()
             if not c.is_zero()]
        env.bind_box("R", lambda c: r, (), hh + hh)
    return env


def verify_hopf_axioms(h):
    """The Hopf-algebra axioms of H, as the word table HOPF_AXIOMS on its
    structure constants.  The report carries the first violating basis
    tuple per failed axiom."""
    return check_words(Report("hopf axioms of %s" % h.name),
                       _structure_env(h), HOPF_AXIOMS)


def verify_quasitriangular(h):
    """R invertibility, both hexagon identities, the almost-
    cocommutativity intertwining Delta^op = R Delta R^{-1}, and the counit
    on R.  R is invertible when R x = 1 (x) 1 has a solution in H (x) H:
    when (S x id)(R) R = 1 (x) 1, the closed form of R^{-1} in a
    quasitriangular Hopf algebra, without a solve; the other checks are
    the word table QUASITRIANGULAR_AXIOMS."""
    rep = Report("quasitriangular structure of %s" % h.name)
    if h.rmatrix is None:
        rep.add("rmatrix present", False, "no R-matrix")
        return rep
    rep.add("rmatrix present", True)
    env = _structure_env(h)
    reg = env.objects["H"]
    try:
        # a left inverse in the finite-dimensional H (x) H is two-sided
        if not h.sparse_eq(h.tensor_mul(h.r_inverse(), h.rmatrix),
                           _outer_sparse(h, h.unit, h.unit)):
            solve_right(columns_matrix(
                h.field, h.dim ** 2, h.dim ** 2,
                repcat.tensor_action_colfn(h.rmatrix, reg, reg)),
                kron(h.unit, h.unit))
    except NoSolution:
        rep.add("R invertible", False)
        return rep
    rep.add("R invertible", True)
    return check_words(rep, env, QUASITRIANGULAR_AXIOMS)


def verify_ribbon(h, rep=None):
    """Ribbon-element identities: centrality, invertibility, S(v) = v,
    eps(v) = 1, and (R21 R) Delta(v) = v x v."""
    if rep is None:
        rep = Report("ribbon structure of %s" % h.name)
    f = h.field
    if h.ribbon is None:
        rep.add("ribbon element present", False, "no ribbon element set; use solve_ribbon")
        return rep
    rep.add("ribbon element present", True)
    v = h.ribbon
    bad = h.noncentral_index(v)
    rep.add("v central", bad is None, None if bad is None else "basis index %d" % bad)
    try:
        h.inv_vec(v)
        rep.add("v invertible", True)
    except HopfError:
        rep.add("v invertible", False)
        return rep
    rep.add("S(v) = v", h.antipode * v == v)
    rep.add("eps(v) = 1", h.counit_of(v) == f.one())
    if h.rmatrix is None:
        rep.add("(R21 R) Delta(v) = v x v", False, "no R-matrix")
        return rep
    lhs = h.tensor_mul(h.monodromy_sparse(), h.comult_sparse(v))
    rep.add("(R21 R) Delta(v) = v x v", h.sparse_eq(lhs, _outer_sparse(h, v, v)))
    return rep


def _outer_sparse(h, a, b):
    out = {}
    for i, x in enumerate(a.data):
        if x.is_zero():
            continue
        for j, y in enumerate(b.data):
            if not y.is_zero():
                out[(i, j)] = x * y
    return out


def verify_all(h):
    rep = verify_hopf_axioms(h)
    rep.merge(verify_quasitriangular(h))
    if h.ribbon is not None:
        verify_ribbon(h, rep)
    return rep


# ---------------------------------------------------------------------------
# constructors

def mirror(h):
    """Same underlying Hopf algebra with R -> flip(R)^{-1} and v -> v^{-1}.
    flip(R)^{-1} is ((S x id)R)_21, since R^{-1} = (S x id)(R) in any
    quasitriangular Hopf algebra (Drinfeld)."""
    if h.rmatrix is None:
        raise HopfError("%s has no R-matrix to mirror" % h.name)
    rinv = dict(sorted(((j, k), c) for (k, j), c in h.r_inverse().items()))
    rflip = {(j, i): c for (i, j), c in h.rmatrix.items()}
    if not h.sparse_eq(h.tensor_mul(rflip, rinv),
                       _outer_sparse(h, h.unit, h.unit)):
        raise HopfError("(S x id)(R) is not the inverse of R in %s" % h.name)
    ribbon = h.ribbon_inv() if h.ribbon is not None else None
    return HopfAlgebraData(h.field, h.dim, h.basis_labels, h.mult, h.unit,
                           h.comult, h.counit, h.antipode, rinv, ribbon,
                           "mirror(%s)" % h.name)


def change_field(h, target):
    """The same Hopf data over a larger cyclotomic field (N | M)."""
    if h.field is target:
        return h
    from .scalars import embed_scalar

    def emb_mat(m):
        return Matrix(target, m.rows, m.cols,
                      [embed_scalar(x, target) for x in m.data])

    mult = [[{k2: embed_scalar(c, target) for k2, c in cell.items()}
             for cell in row] for row in h.mult]
    comult = [{t: embed_scalar(c, target) for t, c in d.items()}
              for d in h.comult]
    rmat = None
    if h.rmatrix is not None:
        rmat = {t: embed_scalar(c, target) for t, c in h.rmatrix.items()}
    ribbon = emb_mat(h.ribbon) if h.ribbon is not None else None
    return HopfAlgebraData(target, h.dim, h.basis_labels, mult,
                           emb_mat(h.unit), comult, emb_mat(h.counit),
                           emb_mat(h.antipode), rmat, ribbon, h.name)


def _smash(a, b, cross):
    """Structure constants of the algebra A # B on a_x (x) b_i, at index
    x dim B + i: (a_x b_i)(a_k b_j) = (a_x 1) cross[i][k] (1 b_j), where
    cross[i][k] = (1 b_i)(a_k 1) is a sparse element {(y, q): c} of
    A (x) B.  A and B are subalgebras, and cross is the one relation
    between them."""
    m, zero = b.dim, a.field.zero()
    mult = [[None] * (a.dim * m) for _ in range(a.dim * m)]
    for i, row in enumerate(cross):
        for k, cr in enumerate(row):
            for x in range(a.dim):
                left = {}  # (a_x 1) cross[i][k]
                for (y, q), c in cr.items():
                    for z, u in a.mult[x][y].items():
                        left[z, q] = left.get((z, q), zero) + c * u
                for j in range(m):
                    out = {}
                    for (z, q), c in left.items():
                        for w, v in b.mult[q][j].items():
                            out[z * m + w] = out.get(z * m + w, zero) + c * v
                    mult[x * m + i][k * m + j] = {
                        t: v for t, v in out.items() if not v.is_zero()}
    return mult


def _kron2(x, y, m):
    """Sparse x in A (x) A and y in B (x) B as one element of
    (A (x) B) (x) (A (x) B), componentwise, with dim B = m."""
    return {(a1 * m + b1, a2 * m + b2): u * v for (a1, a2), u in x.items()
            for (b1, b2), v in y.items()}


def tensor_hopf(h, k):
    """Componentwise Hopf structure on H x K with R = (R_H)_13 (R_K)_24 and
    v = v_H x v_K, each when both operands carry one: the smash product
    with the trivial cross relation (1 x b)(a x 1) = a x b.  Operands over
    different cyclotomic fields are embedded into the lcm field."""
    if h.field is not k.field:
        from math import lcm
        target = CycField(lcm(h.field.order, k.field.order))
        h = change_field(h, target)
        k = change_field(k, target)
    m, one = k.dim, h.field.one()
    labels = ["%s*%s" % (a, b) for a in h.basis_labels for b in k.basis_labels]
    cross = [[{(x, i): one} for x in range(h.dim)] for i in range(m)]
    rmatrix = ribbon = None
    if h.rmatrix is not None and k.rmatrix is not None:
        rmatrix = _kron2(h.rmatrix, k.rmatrix, m)
    if h.ribbon is not None and k.ribbon is not None:
        ribbon = kron(h.ribbon, k.ribbon)
    return HopfAlgebraData(
        h.field, h.dim * m, labels, _smash(h, k, cross), kron(h.unit, k.unit),
        [_kron2(x, y, m) for x in h.comult for y in k.comult],
        kron(h.counit, k.counit), kron(h.antipode, k.antipode),
        rmatrix, ribbon, "%s(x)%s" % (h.name, k.name))


def drinfeld_double(h):
    """The Drinfeld double D(H) = H*^cop # H on basis f_a x e_i (dual
    functions first), with the canonical R-matrix sum_i (eps x e_i) x
    (f_i x 1).  Its cross relation is (1 x a)(f x 1) = f(S^{-1}(a_(3)) ?
    a_(1)) x a_(2) (Kassel, Quantum Groups, GTM 155, IX.4)."""
    f, n = h.field, h.dim
    labels = ["%s*.%s" % (a, i) for a in h.basis_labels
              for i in h.basis_labels]
    sinv = invert(h.antipode)

    def cross(i):
        # (1 x e_i)(f_b x 1) for every b, summed over the terms
        # c e_p x e_q x e_r of Delta^2(e_i): the functional y ->
        # f_b(S^{-1}(e_r) y e_p) is row b of L_{S^{-1} e_r} R_{e_p}
        row = [{} for _ in range(n)]
        for (p, q, r), c in h.comult2_sparse(h.basis_vec(i)).items():
            lr = h.left_mult_matrix(sinv * h.basis_vec(r)) \
                * h.right_mult_matrix(h.basis_vec(p))
            for b, d in enumerate(row):
                for y, w in enumerate(lr.row_list(b)):
                    if not w.is_zero():
                        d[y, q] = d.get((y, q), f.zero()) + c * w
        return row

    eps = h.counit.transpose()
    d = Algebra(f, n * n, labels,
                _smash(h.dual(), h, [cross(i) for i in range(n)]),
                kron(eps, h.unit))
    # Delta of H*^cop: f_c -> sum_{a, b} (e_a e_b)_c f_b x f_a
    dual_cop = [{} for _ in range(n)]
    for a, row in enumerate(h.mult):
        for b, cell in enumerate(row):
            for c, v in cell.items():
                dual_cop[c][b, a] = v
    # S_D(f x a) = (eps x S(a)) (f S^{-1} x 1)
    sinv_t = sinv.transpose()
    cols = [d.mul_vec(kron(eps, h.antipode * h.basis_vec(i)),
                      kron(sinv_t * h.basis_vec(c), h.unit))
            for c in range(n) for i in range(n)]
    rmat = {(x * n + a, a * n + y): cx * cy for a in range(n)
            for x, cx in enumerate(eps.data) if not cx.is_zero()
            for y, cy in enumerate(h.unit.data) if not cy.is_zero()}
    return HopfAlgebraData(
        f, n * n, labels, d.mult, d.unit,
        [_kron2(x, y, n) for x in dual_cop for y in h.comult],
        kron(h.unit.transpose(), h.counit), cols[0].hstack(*cols[1:]), rmat,
        None, "D(%s)" % h.name)


# ---------------------------------------------------------------------------
# ribbon elements

def solve_ribbon(h):
    """All ribbon elements of a quasitriangular H, in deterministic order.

    Ribbon elements are v = l^{-1} u for the grouplikes l with l^2 =
    u S(u)^{-1} and l^{-1} u central, one for each such l (Kauffman-Radford,
    J. Algebra 159, 1993); l is the pivot.  The grouplikes of H are the
    characters of the dual algebra H*, and l^{-1} = S(l)."""
    if h.rmatrix is None:
        raise HopfError("%s has no R-matrix: a ribbon element needs a "
                        "quasitriangular structure" % h.name)
    u = h.drinfeld_u()
    g = h.mul_vec(u, h.antipode_u_inv())
    out = []
    for l in h.dual().characters():
        assert h.sparse_eq(h.comult_sparse(l), _outer_sparse(h, l, l)), \
            "a character of %s* is not grouplike" % h.name
        if h.mul_vec(l, l) != g:
            continue
        v = h.mul_vec(h.antipode * l, u)
        if h.noncentral_index(v) is None:
            out.append(v)
    out.sort(key=lambda m: tuple(s.sort_key() for s in m.data))
    return out


# ---------------------------------------------------------------------------
# built-in presets

# name -> (the one --param key the builtin reads, None for none; its
# constructor on the list of parameter values, empty for the default)
BUILTINS = {
    "trivial": (None, lambda p: group_algebra([1])),
    "group_algebra": ("orders", lambda p: group_algebra(p or [2])),
    "sweedler": (None, lambda p: sweedler()),
    "double_group_algebra": (
        "orders", lambda p: drinfeld_double(group_algebra(p or [2]))),
    "double_z2": (None, lambda p: drinfeld_double(group_algebra([2]))),
    "double_sweedler": (None, lambda p: drinfeld_double(sweedler())),
    "taft": ("n", lambda p: taft(p[0] if p else 3)),
    "double_taft": ("n", lambda p: drinfeld_double(taft(p[0] if p else 3))),
}
BUILTIN_NAMES = list(BUILTINS)


def builtin(name, params=None):
    """The preset algebra `name` of BUILTINS, from a list of parameter
    values or None."""
    if name not in BUILTINS:
        raise HopfError("unknown builtin algebra %r" % name)
    return BUILTINS[name][1](list(params) if params is not None else [])


def group_algebra(orders):
    """k[Z/n1 x ... x Z/nk] with the trivial R-matrix and ribbon v = 1."""
    from math import lcm
    if not all(isinstance(m, int) and m >= 1 for m in orders):
        raise ValueError("group orders must be integers >= 1, got %s"
                         % ",".join(map(str, orders)))
    order = lcm(1, *orders)
    f = CycField(order)
    elems = [()]
    for m in orders:
        elems = [t + (i,) for t in elems for i in range(m)]
    index = {t: i for i, t in enumerate(elems)}
    n = len(elems)
    labels = ["g" + "".join(str(x) for x in t) if t else "1" for t in elems]
    one = f.one()
    mult = [[{} for _ in range(n)] for _ in range(n)]
    for s in elems:
        for t in elems:
            p = tuple((a + b) % m for a, b, m in zip(s, t, orders))
            mult[index[s]][index[t]][index[p]] = one
    unit = Matrix.zeros(f, n, 1)
    unit.data[index[tuple(0 for _ in orders)]] = one
    comult = [{(i, i): one} for i in range(n)]
    counit = Matrix.row(f, [one] * n)
    antipode = Matrix.zeros(f, n, n)
    for s in elems:
        inv = tuple((-a) % m for a, m in zip(s, orders))
        antipode.data[index[inv] * n + index[s]] = one
    rmat = {(index[tuple(0 for _ in orders)],) * 2: one}
    h = HopfAlgebraData(f, n, labels, mult, unit, comult, counit, antipode,
                        rmat, unit.copy(),
                        "k[Z%s]" % "xZ".join(str(m) for m in orders))
    return h


def sweedler():
    """The 4-dimensional Sweedler algebra (g^2 = 1, x^2 = 0, xg = -gx) with
    its lambda = 0 quasitriangular structure and ribbon element 1."""
    f = CycField(4)
    one = f.one()
    mone = -one
    half = f.from_rational(1) / 2
    n = 4
    labels = ["1", "g", "x", "gx"]
    I, G, X, GX = 0, 1, 2, 3
    mult = [[{} for _ in range(n)] for _ in range(n)]

    def setm(i, j, terms):
        for k, c in terms:
            mult[i][j][k] = c

    setm(I, I, [(I, one)]); setm(I, G, [(G, one)]); setm(I, X, [(X, one)]); setm(I, GX, [(GX, one)])
    setm(G, I, [(G, one)]); setm(G, G, [(I, one)]); setm(G, X, [(GX, one)]); setm(G, GX, [(X, one)])
    setm(X, I, [(X, one)]); setm(X, G, [(GX, mone)]); setm(X, X, []); setm(X, GX, [])
    setm(GX, I, [(GX, one)]); setm(GX, G, [(X, mone)]); setm(GX, X, []); setm(GX, GX, [])
    unit = Matrix.column(f, [one, f.zero(), f.zero(), f.zero()])
    comult = [
        {(I, I): one},
        {(G, G): one},
        {(X, I): one, (G, X): one},
        {(GX, G): one, (I, GX): one},
    ]
    # Delta(gx) = Delta(g)Delta(x) = (g x g)(x x 1 + g x x) = gx x g + 1 x gx
    counit = Matrix.row(f, [one, one, f.zero(), f.zero()])
    antipode = Matrix.zeros(f, n, n)
    antipode.data[I * n + I] = one
    antipode.data[G * n + G] = one
    antipode.data[GX * n + X] = mone   # S(x) = -gx
    antipode.data[X * n + GX] = one    # S(gx) = S(x)S(g) = -gx g = x
    rmat = {(I, I): half, (I, G): half, (G, I): half, (G, G): -half}
    return HopfAlgebraData(f, n, labels, mult, unit, comult, counit, antipode,
                           rmat, unit.copy(), "sweedler")


def taft(n):
    """The Taft algebra of dimension n^2 over Q(zeta_n): g^n = 1, x^n = 0,
    g x g^{-1} = q x with q a primitive n-th root of unity, Delta(x) =
    x (x) 1 + g (x) x.  Not quasitriangular for n > 2; its Drinfeld double
    is, and is ribbon exactly for odd n."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("the Taft algebra needs an integer n >= 2, got %s" % n)
    f = CycField(n)
    q = f.zeta(1)
    dim = n * n

    def idx(a, b):
        return (a % n) * n + b

    labels = ["g%dx%d" % (a, b) for a in range(n) for b in range(n)]
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for a1 in range(n):
        for b1 in range(n):
            for a2 in range(n):
                for b2 in range(n):
                    if b1 + b2 >= n:
                        continue
                    # x^b1 g^a2 = q^{-b1 a2} g^a2 x^b1
                    mult[idx(a1, b1)][idx(a2, b2)][idx(a1 + a2, b1 + b2)] = \
                        q ** (-b1 * a2)
    unit = Matrix.zeros(f, dim, 1)
    unit.data[idx(0, 0)] = f.one()
    counit = Matrix.zeros(f, 1, dim)
    for a in range(n):
        counit.data[idx(a, 0)] = f.one()

    # Delta and S on g^a x^b as products: Delta is multiplicative, with
    # Delta(g) = g (x) g; S(g) = g^{-1} and S(x) = -g^{-1} x, extended
    # anti-multiplicatively
    alg = Algebra(f, dim, labels, mult, unit)
    dg = {(idx(1, 0), idx(1, 0)): f.one()}
    dx = {(idx(0, 1), idx(0, 0)): f.one(), (idx(1, 0), idx(0, 1)): f.one()}
    sg = alg.basis_vec(idx(n - 1, 0))
    sx = alg.basis_vec(idx(n - 1, 1)).scale(-f.one())
    comult = [None] * dim
    antipode = Matrix.zeros(f, dim, dim)
    for a in range(n):
        for b in range(n):
            cur = {(idx(0, 0), idx(0, 0)): f.one()}
            for _ in range(a):
                cur = alg.tensor_mul(cur, dg)
            for _ in range(b):
                cur = alg.tensor_mul(cur, dx)
            comult[idx(a, b)] = cur
            s = unit
            for _ in range(b):
                s = alg.mul_vec(s, sx)
            for _ in range(a):
                s = alg.mul_vec(s, sg)
            for k, v in enumerate(s.data):
                antipode.data[k * dim + idx(a, b)] = v
    return HopfAlgebraData(f, dim, labels, mult, unit, comult, counit,
                           antipode, None, None, "taft(%d)" % n)


# ---------------------------------------------------------------------------
# serialization (the algebra spec file format)

def to_json_dict(h):
    def fmt(s):
        return format_scalar(s)
    d = {
        "name": h.name,
        "scalar": {"cyclotomic_order": h.field.order},
        "dim": h.dim,
        "basis": list(h.basis_labels),
        "mult": sorted([i, j, k, fmt(c)] for i in range(h.dim) for j in range(h.dim)
                       for k, c in h.mult[i][j].items()),
        "unit": sorted([i, fmt(c)] for i, c in enumerate(h.unit.data) if not c.is_zero()),
        "comult": sorted([i, j, k, fmt(c)] for i in range(h.dim)
                         for (j, k), c in h.comult[i].items()),
        "counit": sorted([i, fmt(c)] for i, c in enumerate(h.counit.data) if not c.is_zero()),
        "antipode": sorted([j, i, fmt(h.antipode.data[i * h.dim + j])]
                           for i in range(h.dim) for j in range(h.dim)
                           if not h.antipode.data[i * h.dim + j].is_zero()),
        "rmatrix": sorted([i, j, fmt(c)] for (i, j), c in h.rmatrix.items()) if h.rmatrix else [],
    }
    if h.ribbon is not None:
        d["ribbon"] = sorted([i, fmt(c)] for i, c in enumerate(h.ribbon.data)
                             if not c.is_zero())
    return d


class AlgebraFormatError(Exception):
    pass


def from_json_dict(d):
    """The Hopf data of a spec-file dict.  A missing field, a bad index or
    a bad scalar literal raises AlgebraFormatError."""
    try:
        return _from_json_dict(d)
    except (ValueError, TypeError, KeyError, IndexError) as e:
        raise AlgebraFormatError("malformed algebra spec: %s" % e)


def _from_json_dict(d):
    for fieldname in ["name", "scalar", "dim", "basis", "mult", "unit",
                      "comult", "counit", "antipode", "rmatrix"]:
        if fieldname not in d:
            raise AlgebraFormatError("missing field %r in algebra spec" % fieldname)
    if "cyclotomic_order" not in d["scalar"]:
        raise AlgebraFormatError("missing field 'scalar.cyclotomic_order'")
    f = CycField(parse_count(d["scalar"]["cyclotomic_order"],
                             "scalar.cyclotomic_order", 1))
    n = parse_count(d["dim"], "dim", 1)
    labels = list(d["basis"])
    if len(labels) != n:
        raise AlgebraFormatError("basis has %d labels, dim is %d" % (len(labels), n))

    def chk(i, what):
        if type(i) is not int or not 0 <= i < n:
            raise AlgebraFormatError("index %s out of range in %s"
                                     % (json.dumps(i), what))
        return i

    mult = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k, c in d["mult"]:
        mult[chk(i, "mult")][chk(j, "mult")][chk(k, "mult")] = parse_scalar(f, c)
    unit = Matrix.zeros(f, n, 1)
    for i, c in d["unit"]:
        unit.data[chk(i, "unit")] = parse_scalar(f, c)
    comult = [{} for _ in range(n)]
    for i, j, k, c in d["comult"]:
        comult[chk(i, "comult")][(chk(j, "comult"), chk(k, "comult"))] = parse_scalar(f, c)
    counit = Matrix.zeros(f, 1, n)
    for i, c in d["counit"]:
        counit.data[chk(i, "counit")] = parse_scalar(f, c)
    antipode = Matrix.zeros(f, n, n)
    for j, i, c in d["antipode"]:
        antipode.data[chk(i, "antipode") * n + chk(j, "antipode")] = parse_scalar(f, c)
    rmat = {}
    for i, j, c in d["rmatrix"]:
        rmat[(chk(i, "rmatrix"), chk(j, "rmatrix"))] = parse_scalar(f, c)
    ribbon = None
    if "ribbon" in d and d["ribbon"]:
        ribbon = Matrix.zeros(f, n, 1)
        for i, c in d["ribbon"]:
            ribbon.data[chk(i, "ribbon")] = parse_scalar(f, c)
    return HopfAlgebraData(f, n, labels, mult, unit, comult, counit, antipode,
                           rmat if rmat else None, ribbon, str(d["name"]))


def save_algebra(h, path):
    with open(path, "w") as fp:
        json.dump(to_json_dict(h), fp, indent=1, sort_keys=True)


def load_algebra(path):
    try:
        with open(path) as fp:
            d = json.load(fp)
    except OSError as e:
        raise AlgebraFormatError("cannot read %s: %s" % (path, e.strerror))
    except json.JSONDecodeError as e:
        raise AlgebraFormatError("malformed JSON in %s: %s" % (path, e))
    return from_json_dict(d)

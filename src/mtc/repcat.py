"""The module category of a Hopf algebra H: modules read only as the sparse
action columns of the basis elements of H, tensor products and duals, one
statement of the intertwining equations as sparse rows, simples with
projective covers, the Cartan matrix, and the Grothendieck ring.  The
structure maps ev, coev, their tilde versions, the braiding and the twist
are generators of the one diagram evaluator, `mtc.diagrams`.
"""

import json

from .scalars import parse_scalar, parse_count, format_scalar
from .linalg import (Matrix, solve_right, kernel_basis, sparse_kernel,
                     IncrementalSpan, columns_matrix, _step)
# unused here; mtcbench's tracer tests check that the binding is patched
from .linalg import kron  # noqa: F401
from .etale import orthogonal_primitive_idempotents, newton_lift_idempotent


class ModuleObject:
    """A finite-dimensional H-module, given and read only as its action
    columns: for each basis element e_i of H a column function j ->
    [(row, Scalar)] of the action of e_i, with no zero entries.  A
    module's action never changes, and it has no dense form."""

    def __init__(self, algebra, dim, columns, name="X"):
        assert len(columns) == algebra.dim
        self.algebra = algebra
        self.dim = dim
        self._columns = columns
        self.name = name
        self._dual = None  # dual_obj(self), built on first use

    def act_colfn(self, a):
        """The action of an element a of H as a column function j ->
        [(row, Scalar)], the sum of the a_i times the action columns of
        e_i.  Each column is built on first use and kept."""
        terms = [(self.action_colfn(i), c) for i, c in enumerate(a.data)
                 if any(c.num)]
        cache = {}

        def col(j):
            got = cache.get(j)
            if got is None:
                acc = {}
                for colfn, c in terms:
                    for r, v in colfn(j):
                        acc[r] = acc[r] + c * v if r in acc else c * v
                got = cache[j] = [(r, v) for r, v in acc.items()
                                  if any(v.num)]
            return got
        return col

    def action_colfn(self, i):
        """The sparse columns of the action of e_i, as a column function
        j -> [(row, Scalar)]."""
        return self._columns[i]

    def validate(self):
        """Whether 1 acts as the identity and e_i (e_j v) = (e_i e_j) v,
        compared column by column on the basis vectors v."""
        h, d = self.algebra, self.dim
        unit, one = self.act_colfn(h.unit), h.field.one()
        prods = ((self.action_colfn(i), self.action_colfn(j),
                  self.act_colfn(h.mul_vec(h.basis_vec(i), h.basis_vec(j))))
                 for i in range(h.dim) for j in range(h.dim))
        return all(unit(k) == [(k, one)] for k in range(d)) and all(
            _step([dict(ej(k)) for k in range(d)], ei, d, d, 1) ==
            [dict(eij(k)) for k in range(d)] for ei, ej, eij in prods)

    def fingerprint(self):
        """The sort keys of every entry of every action matrix, row by row,
        from dense views that are not kept."""
        f, d = self.algebra.field, self.dim
        return (d, tuple(x.sort_key() for c in self._columns
                         for x in columns_matrix(f, d, d, c).data))

    def __repr__(self):
        return "ModuleObject(%s, dim=%d)" % (self.name, self.dim)


class Morphism:
    """An intertwiner between modules, stored as a cod.dim x dom.dim
    matrix."""

    def __init__(self, dom, cod, matrix):
        assert matrix.rows == cod.dim and matrix.cols == dom.dim, \
            "matrix shape %dx%d does not match cod %d, dom %d" % (
                matrix.rows, matrix.cols, cod.dim, dom.dim)
        self.dom = dom
        self.cod = cod
        self.matrix = matrix

    def is_intertwiner(self, generators=None):
        """Whether f X_g = Y_g f for every basis element g of H, or for the
        given ones: the equations of `hom_basis` evaluated at f, whose
        unknown r * dim X + k is the flat index of f[r, k]."""
        f, zero = self.matrix.data, self.dom.algebra.field.zero()
        gens = range(self.dom.algebra.dim) if generators is None else generators
        return all(sum((v * f[p] for p, v in row.items()), zero).is_zero()
                   for row in _intertwining_rows(self.dom, self.cod, gens))

    def __mul__(self, other):
        assert other.cod.dim == self.dom.dim
        return Morphism(other.dom, self.cod, self.matrix * other.matrix)

    def __eq__(self, other):
        return self.matrix == other.matrix

    def __repr__(self):
        return "Morphism(%s -> %s)" % (self.dom.name, self.cod.name)


# ---------------------------------------------------------------------------
# basic objects

def _sparse_columns(cols):
    """The column function of stored columns, each a dict {row: Scalar},
    with the zero entries dropped and the rows in increasing order."""
    cols = [sorted((r, v) for r, v in c.items() if any(v.num)) for c in cols]
    return cols.__getitem__


def trivial_module(h):
    return ModuleObject(h, 1, [_sparse_columns([{0: c}])
                               for c in h.counit.data], "1")


def regular_module(h):
    """H acting on itself by left multiplication: column j of the action of
    e_i is the product e_i e_j.  Not cached on h: the module refers to h,
    and that cycle would keep an algebra that `with_ribbon` replaced alive
    until the cyclic garbage collector runs."""
    return ModuleObject(h, h.dim, [_sparse_columns(row) for row in h.mult],
                        "H")


def module_from_vectors(h, vectors, name, left_action=None):
    """Module spanned by coordinate vectors closed under the given left
    action (default: left multiplication in the regular module).  The
    action of every basis element of H on every basis vector comes out of
    one solve against the span."""
    if left_action is None:
        left_action = lambda i, v: h.mul_vec(h.basis_vec(i), v)
    span = IncrementalSpan(h.field, h.dim)
    basis = [v for v in vectors if span.add(v)]
    d = len(basis)
    img = [left_action(i, b) for i in range(h.dim) for b in basis]
    # column i * d + j of the solution is column j of the action of e_i
    sol = solve_right(basis[0].hstack(*basis[1:]), img[0].hstack(*img[1:]))
    return ModuleObject(h, d, [_sparse_columns(
        [{r: sol[r, i * d + j] for r in range(d)} for j in range(d)])
        for i in range(h.dim)], name)


def tensor_action_colfn(t, x, y, flip=False):
    """The action on X (x) Y of the 2-tensor t = {(i, j): c}, an element of
    H (x) K stored as in `comult[g]` and `rmatrix`, as a column function
    p -> [(row, Scalar)] read from the factors' action columns: column
    a * dim Y + b is the sum of c (e_i . x_a) (x) (e_j . y_b).
    With `flip` the rows are indexed in Y (x) X: the action followed by the
    flip of the factors, which is the braiding when t = R.  Each column is
    built on first use and kept."""
    dx, dy = x.dim, y.dim
    terms = [(x.action_colfn(i), y.action_colfn(j), c)
             for (i, j), c in t.items()]
    cache = {}

    def col(p):
        got = cache.get(p)
        if got is not None:
            return got
        a, b = divmod(p, dy)
        acc = {}
        for xcol, ycol, c in terms:
            for ra, va in xcol(a):
                cva = c * va
                for rb, vb in ycol(b):
                    key = rb * dx + ra if flip else ra * dy + rb
                    w = cva * vb
                    acc[key] = acc[key] + w if key in acc else w
        got = cache[p] = [(r, v) for r, v in acc.items() if any(v.num)]
        return got
    return col


def tensor_obj(x, y):
    """Tensor product module via the comultiplication, given by its action
    columns, read from the factors' columns."""
    h = x.algebra
    return ModuleObject(h, x.dim * y.dim,
                        [tensor_action_colfn(t, x, y) for t in h.comult],
                        "(%s x %s)" % (x.name, y.name))


def dual_obj(x):
    """Left dual: rho*(a) = rho(S(a))^T, whose column j is row j of
    rho(S(a)).  Built once per module and kept on it: a module's action
    never changes after construction."""
    if x._dual is None:
        h = x.algebra
        columns = []
        for i in range(h.dim):
            act = x.act_colfn(Matrix.column(h.field, h.antipode.col_list(i)))
            rows = [{} for _ in range(x.dim)]
            for j in range(x.dim):
                for r, v in act(j):
                    rows[r][j] = v
            columns.append(_sparse_columns(rows))
        x._dual = ModuleObject(h, x.dim, columns, "%s*" % x.name)
    return x._dual


def direct_sum(*modules):
    """The direct sum of the modules, in the order given: each summand's
    action columns shifted by the sum of the dimensions before it."""
    h = modules[0].algebra
    columns = []
    for i in range(h.dim):
        cols, off = [], 0
        for m in modules:
            act = m.action_colfn(i)
            cols += [[(r + off, v) for r, v in act(j)] for j in range(m.dim)]
            off += m.dim
        columns.append(cols.__getitem__)
    return ModuleObject(h, sum(m.dim for m in modules), columns,
                        "(%s)" % " + ".join(m.name for m in modules))


# ---------------------------------------------------------------------------
# intertwiner spaces

def generating_indices(h):
    """A small set of basis indices generating H as a unital algebra."""
    return h._derived("generators", lambda: _generating_indices(h))


def _generating_indices(h):
    gens = []

    def closure(idxs):
        span = IncrementalSpan(h.field, h.dim)
        span.add(h.unit)
        frontier = [h.unit]
        while frontier:
            new = []
            for v in frontier:
                for i in idxs:
                    w = h.mul_vec(h.basis_vec(i), v)
                    if span.add(w):
                        new.append(w)
            frontier = new
        return span

    span = closure(gens)
    for i in range(h.dim):
        if span.contains(h.basis_vec(i)):
            continue
        gens.append(i)
        span = closure(gens)
        if span.rank == h.dim:
            break
    return gens


def _intertwining_rows(x, y, gens):
    """The equations f X_g - Y_g f = 0 for g in gens on the dim Y x dim X
    unknowns f[r, k], at index r * dim X + k, as sparse rows {index:
    Scalar} with no zero entries, written from the action columns."""
    dx, dy = x.dim, y.dim
    rows = []
    for g in gens:
        xg, yg = x.action_colfn(g), y.action_colfn(g)
        yrows = [[] for _ in range(dy)]
        for k in range(dy):
            for r, v in yg(k):
                yrows[r].append((k, v))
        # equation (r, c): X_g[k, c] at unknown (r, k), -Y_g[r, k] at (k, c)
        for r in range(dy):
            for c in range(dx):
                row = {r * dx + k: v for k, v in xg(c)}
                for k, v in yrows[r]:
                    p = k * dx + c
                    row[p] = row[p] - v if p in row else -v
                row = {p: v for p, v in row.items() if any(v.num)}
                if row:
                    rows.append(row)
    return rows


def hom_basis(x, y):
    """Basis of Hom_H(X, Y), deterministic ordering: the kernel of
    `_intertwining_rows` on the basis elements that `generating_indices`
    picks, which is equivalent to the full set of basis constraints."""
    h = x.algebra
    rows = _intertwining_rows(x, y, generating_indices(h))
    return [Morphism(x, y, Matrix(h.field, y.dim, x.dim, vec))
            for vec in sparse_kernel(rows, x.dim * y.dim, h.field)]


def is_isomorphic_simple(x, y):
    """Isomorphism test for modules that are known simple."""
    if x.dim != y.dim:
        return False
    return len(hom_basis(x, y)) > 0


# ---------------------------------------------------------------------------
# simples, projective covers, Cartan matrix

class SimplesData:
    def __init__(self, algebra, simples, projectives, idempotents, cartan):
        self.algebra = algebra
        self.simples = simples
        self.projectives = projectives
        self.idempotents = idempotents
        self.cartan = cartan

    @property
    def count(self):
        return len(self.simples)

    def trivial_index(self):
        one = trivial_module(self.algebra)
        for i, s in enumerate(self.simples):
            if is_isomorphic_simple(s, one):
                return i
        raise AssertionError("trivial module missing from the simples")

    def dual_permutation(self):
        """The involution U -> U* on simple indices."""
        perm = []
        for s in self.simples:
            d = dual_obj(s)
            matches = [i for i, t in enumerate(self.simples)
                       if is_isomorphic_simple(t, d)]
            assert len(matches) == 1, "dual of a simple matched %d simples" % len(matches)
            perm.append(matches[0])
        return perm


def radical_basis(h):
    """Jacobson radical via the trace form of the regular representation
    (valid in characteristic zero): tr(L_i L_j) is the sum over a, b of
    (e_i e_b)_a (e_j e_a)_b, read from the structure constants."""
    f = h.field
    n = h.dim
    gram = Matrix.zeros(f, n, n)
    for i in range(n):
        for j in range(n):
            t = f.zero()
            for b in range(n):
                for a, v in h.mult[i][b].items():
                    w = h.mult[j][a].get(b)
                    if w is not None:
                        t = t + v * w
            gram.data[i * n + j] = t
    return kernel_basis(gram)


def simples_data(h):
    """Simple modules, projective covers, primitive idempotent data, and the
    Cartan matrix.  Raises NonSplitError when the scalar field does not
    split the semisimple quotient."""
    return h._derived("simples", lambda: _simples_data(h))


def _simples_data(h):
    f = h.field
    rad = IncrementalSpan(f, h.dim)
    for v in radical_basis(h):
        rad.add(v)
    mul, qbasis, unit_bar = h.quotient(rad)
    prims = orthogonal_primitive_idempotents(
        f, mul, qbasis, unit_bar, require_split=True,
        block_name="semisimple quotient of %s" % h.name)

    entries = []
    for cls in _isomorphism_classes(f, mul, qbasis, prims):
        p = cls[0]
        simple_vectors = [mul(b, p) for b in qbasis]
        s = module_from_vectors(h, simple_vectors, "S?",
                                left_action=lambda i, v: mul(h.basis_vec(i), v))
        # lift the idempotent to H and take the projective cover H e
        e = newton_lift_idempotent(f, h.mul_vec, p)
        proj_vectors = [h.mul_vec(h.basis_vec(i), e) for i in range(h.dim)]
        pm = module_from_vectors(h, proj_vectors, "P?")
        entries.append((s, pm, e, len(cls)))

    # regular decomposition bookkeeping: multiplicity of P_i equals dim S_i
    for s, pm, e, mult in entries:
        assert mult == s.dim, "class size %d != dim of simple %d" % (mult, s.dim)
    assert sum(s.dim * pm.dim for s, pm, e, _ in entries) == h.dim

    entries.sort(key=lambda t: t[0].fingerprint())
    simples, projectives, idems = [], [], []
    for i, (s, pm, e, _) in enumerate(entries):
        s.name = "S%d" % i
        pm.name = "P%d" % i
        simples.append(s)
        projectives.append(pm)
        idems.append(e)

    m = len(simples)
    for i in range(m):
        assert len(hom_basis(simples[i], simples[i])) == 1, \
            "End(S%d) is not one-dimensional" % i
        for j in range(i + 1, m):
            assert len(hom_basis(simples[i], simples[j])) == 0, \
                "S%d and S%d are isomorphic" % (i, j)

    cartan = [[len(hom_basis(projectives[v], projectives[u]))
               for v in range(m)] for u in range(m)]
    return SimplesData(h, simples, projectives, idems, cartan)


def _isomorphism_classes(field, mul, qbasis, prims):
    """The primitive idempotents of the semisimple algebra Abar with basis
    qbasis, in isomorphism classes in order of first appearance: p joins
    the first class whose representative r has r Abar p != 0.  x -> x p
    is linear, so p is tested on a basis of r Abar kept per class."""
    classes = []
    for p in prims:
        for cls, basis in classes:
            if any(not mul(v, p).is_zero() for v in basis):
                cls.append(p)
                break
        else:
            span = IncrementalSpan(field, p.rows)
            classes.append(([p], [v for v in (mul(p, b) for b in qbasis)
                                  if span.add(v)]))
    return [cls for cls, _ in classes]


def composition_factors(x, sd):
    """Multiset of simple indices with multiplicities [X : S_i], via
    dim Hom(P_i, X)."""
    mult = [len(hom_basis(p, x)) for p in sd.projectives]
    assert sum(m * s.dim for m, s in zip(mult, sd.simples)) == x.dim, \
        "composition series does not fill the module"
    return mult


def grothendieck_ring(h):
    """Structure constants N_ij^k = [S_i x S_j : S_k] on classes of
    simples."""
    def compute():
        sd = simples_data(h)
        return [[composition_factors(tensor_obj(s, t), sd) for t in sd.simples]
                for s in sd.simples]
    return h._derived("grring", compute)


# ---------------------------------------------------------------------------
# module serialization (same JSON-syntax format as algebras)

def module_to_json_dict(x):
    return {
        "name": x.name,
        "dim": x.dim,
        "action": sorted([k, i, j, format_scalar(v)]
                         for k in range(x.algebra.dim) for j in range(x.dim)
                         for i, v in x.action_colfn(k)(j)),
    }


class ModuleFormatError(ValueError):
    pass


def module_from_json_dict(h, d):
    """The H-module of a module-file dict.  A missing field, a bad index
    or literal, or an action that is not a module raises
    ModuleFormatError."""
    try:
        for fieldname in ["name", "dim", "action"]:
            if fieldname not in d:
                raise ValueError("missing field %r" % fieldname)
        dim = parse_count(d["dim"], "dim", 0)
        # columns[k][j] = {i: entry (i, j) of the action of e_k}: a
        # repeated entry overwrites, and an explicit 0 clears the entry
        columns = [[{} for _ in range(dim)] for _ in range(h.dim)]
        for k, i, j, c in d["action"]:
            if not (all(type(t) is int for t in (k, i, j))
                    and 0 <= k < h.dim and 0 <= i < dim and 0 <= j < dim):
                raise ValueError("action entry (%s, %s, %s) out of range"
                                 % (k, i, j))
            columns[k][j][i] = parse_scalar(h.field, c)
    except (ValueError, TypeError, KeyError) as e:
        raise ModuleFormatError("malformed module spec: %s" % e)
    m = ModuleObject(h, dim, [_sparse_columns(cols) for cols in columns],
                     str(d["name"]))
    if not m.validate():
        raise ModuleFormatError(
            "module action does not respect the algebra structure")
    return m


def save_module(x, path):
    with open(path, "w") as fp:
        json.dump(module_to_json_dict(x), fp, indent=1, sort_keys=True)


def load_module(h, path):
    try:
        with open(path) as fp:
            d = json.load(fp)
    except OSError as e:
        raise ModuleFormatError("cannot read %s: %s" % (path, e.strerror))
    except json.JSONDecodeError as e:
        raise ModuleFormatError("malformed JSON in %s: %s" % (path, e))
    return module_from_json_dict(h, d)

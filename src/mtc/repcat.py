"""The module category of a Hopf algebra H: objects with per-basis-element
action matrices, intertwiner spaces, monoidal / rigid / braided / ribbon
structure, simples with projective covers, the Cartan matrix, and the
Grothendieck ring.
"""

import json

from .scalars import parse_scalar, parse_count, format_scalar
from .linalg import (Matrix, kron, solve_right, kernel_basis, IncrementalSpan,
                     _matrix_colfn, columns_matrix)
from .etale import orthogonal_primitive_idempotents, newton_lift_idempotent


class ModuleObject:
    """A finite-dimensional H-module.  The action of each basis element of H
    has two forms, dense matrices (`action`) and column functions j ->
    [(row, Scalar)] (`columns`, with action=None), each built from the other
    on first use and kept: a module's action never changes."""

    def __init__(self, algebra, dim, action, name="X", columns=None):
        assert all(m.rows == dim == m.cols for m in action or ())
        self.algebra = algebra
        self.dim = dim
        self._action = action
        self.name = name
        self._dual = None  # dual_obj(self), built on first use
        self._action_cols = columns or [None] * len(action)
        assert len(self._action_cols) == algebra.dim

    @property
    def action(self):
        """One dense action matrix per basis element of H."""
        if self._action is None:
            f, d = self.algebra.field, self.dim
            self._action = [columns_matrix(f, d, d, c)
                            for c in self._action_cols]
        return self._action

    def act(self, a):
        """Action matrix of an element a of H, the dense view of act_colfn."""
        return columns_matrix(self.algebra.field, self.dim, self.dim,
                              self.act_colfn(a))

    def act_colfn(self, a):
        """The action of an element a of H as a column function j ->
        [(row, Scalar)], the sum of the a_i action[i] read from the action
        columns.  Each column is built on first use and kept."""
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
        """The sparse columns of action[i], as a column function j ->
        [(row, Scalar)]."""
        got = self._action_cols[i]
        if got is None:
            got = self._action_cols[i] = _matrix_colfn(self._action[i])
        return got

    def validate(self):
        h = self.algebra
        return self.act(h.unit) == Matrix.identity(h.field, self.dim) and all(
            self.action[i] * self.action[j] ==
            self.act(h.mul_vec(h.basis_vec(i), h.basis_vec(j)))
            for i in range(h.dim) for j in range(h.dim))

    def fingerprint(self):
        key = []
        for m in self.action:
            for x in m.data:
                key.append(x.sort_key())
        return (self.dim, tuple(key))

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
        h = self.dom.algebra
        idxs = generators if generators is not None else range(h.dim)
        for i in idxs:
            if self.matrix * self.dom.action[i] != self.cod.action[i] * self.matrix:
                return False
        return True

    def __mul__(self, other):
        assert other.cod.dim == self.dom.dim
        return Morphism(other.dom, self.cod, self.matrix * other.matrix)

    def __eq__(self, other):
        return self.matrix == other.matrix

    def __repr__(self):
        return "Morphism(%s -> %s)" % (self.dom.name, self.cod.name)


# ---------------------------------------------------------------------------
# basic objects

def trivial_module(h):
    f = h.field
    action = [Matrix.from_rows(f, [[h.counit.data[i]]]) for i in range(h.dim)]
    return ModuleObject(h, 1, action, "1")


def regular_module(h):
    action = [h.left_regular(i) for i in range(h.dim)]
    return ModuleObject(h, h.dim, action, "H")


def module_from_vectors(h, vectors, name, left_action=None):
    """Module spanned by coordinate vectors closed under the given left
    action (default: left multiplication in the regular module)."""
    if left_action is None:
        left_action = lambda i, v: h.mul_vec(h.basis_vec(i), v)
    span = IncrementalSpan(h.field, h.dim)
    basis = [v for v in vectors if span.add(v)]
    stack = basis[0].hstack(*basis[1:])
    action = []
    for i in range(h.dim):
        img = [left_action(i, b) for b in basis]
        action.append(solve_right(stack, img[0].hstack(*img[1:])))
    m = ModuleObject(h, len(basis), action, name)
    m.embedding = stack  # basis vectors inside the ambient coordinates
    return m


def tensor_action_colfn(t, x, y, flip=False):
    """The action on X (x) Y of the 2-tensor t = {(i, j): c}, an element of
    H (x) K stored as in `comult[g]` and `rmatrix`, as a column function
    p -> [(row, Scalar)] read from the factors' action columns: column
    a * dim Y + b is the sum of c (x.action[i] e_a) (x) (y.action[j] e_b).
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


def tensor_action(t, x, y, flip=False):
    """The dense view of `tensor_action_colfn`."""
    d = x.dim * y.dim
    return columns_matrix(x.algebra.field, d, d,
                          tensor_action_colfn(t, x, y, flip))


def tensor_obj(x, y):
    """Tensor product module via the comultiplication, given by its action
    columns, read from the factors' columns: no dense matrix is built until
    a caller reads `.action`."""
    h = x.algebra
    return ModuleObject(h, x.dim * y.dim, None,
                        "(%s x %s)" % (x.name, y.name),
                        [tensor_action_colfn(t, x, y) for t in h.comult])


def dual_obj(x):
    """Left dual: rho*(a) = rho(S(a))^T.  Built once per module and kept on
    it: a module's action never changes after construction."""
    if x._dual is None:
        h = x.algebra
        action = [x.act(Matrix.column(h.field, h.antipode.col_list(i)))
                  .transpose() for i in range(h.dim)]
        x._dual = ModuleObject(h, x.dim, action, "%s*" % x.name)
    return x._dual


def direct_sum(*modules):
    """The direct sum of the modules, in the order given: the action
    matrices are block diagonal, each summand's block at the sum of the
    dimensions before it."""
    h = modules[0].algebra
    dim = sum(m.dim for m in modules)
    action = []
    for i in range(h.dim):
        data = [h.field.zero()] * (dim * dim)
        off = 0
        for m in modules:
            src = m.action[i].data
            for a in range(m.dim):
                row = (off + a) * dim + off
                data[row:row + m.dim] = src[a * m.dim:(a + 1) * m.dim]
            off += m.dim
        action.append(Matrix(h.field, dim, dim, data))
    return ModuleObject(h, dim, action,
                        "(%s)" % " + ".join(m.name for m in modules))


# ---------------------------------------------------------------------------
# rigid structure

def ev_morphism(x):
    """ev: X* x X -> 1, xi x v -> xi(v)."""
    h = x.algebra
    f = h.field
    m = Matrix.zeros(f, 1, x.dim * x.dim)
    one = f.one()
    for a in range(x.dim):
        m.data[a * x.dim + a] = one
    return Morphism(tensor_obj(dual_obj(x), x), trivial_module(h), m)


def coev_morphism(x):
    """coev: 1 -> X x X*."""
    h = x.algebra
    f = h.field
    m = Matrix.zeros(f, x.dim * x.dim, 1)
    one = f.one()
    for a in range(x.dim):
        m.data[a * x.dim + a] = one
    return Morphism(trivial_module(h), tensor_obj(x, dual_obj(x)), m)


def ev_tilde_morphism(x):
    """ev~: X x X* -> 1, v x xi -> xi(g v), with g the pivot u v^{-1}."""
    h = x.algebra
    g = x.act(h.pivot())
    m = Matrix.zeros(h.field, 1, x.dim * x.dim)
    for b in range(x.dim):
        for a in range(x.dim):
            m.data[b * x.dim + a] = g.data[a * x.dim + b]
    return Morphism(tensor_obj(x, dual_obj(x)), trivial_module(h), m)


def coev_tilde_morphism(x):
    """coev~: 1 -> X* x X, 1 -> sum xi^i x g^{-1} e_i."""
    h = x.algebra
    ginv = x.act(h.pivot_inv())
    m = Matrix.zeros(h.field, x.dim * x.dim, 1)
    for i in range(x.dim):
        for j in range(x.dim):
            m.data[i * x.dim + j] = ginv.data[j * x.dim + i]
    return Morphism(trivial_module(h), tensor_obj(dual_obj(x), x), m)


def duality(x):
    return (ev_morphism(x), coev_morphism(x),
            ev_tilde_morphism(x), coev_tilde_morphism(x))


def braiding(x, y):
    """beta_{X,Y} = flip . (action of R): x x y -> R2 y x R1 x."""
    h = x.algebra
    assert h.rmatrix is not None, "braiding needs a quasitriangular structure"
    return Morphism(tensor_obj(x, y), tensor_obj(y, x),
                    tensor_action(h.rmatrix, x, y, flip=True))


def twist_morphism(x):
    """theta_X = action of v^{-1}: the categorical twist matching the
    braiding convention (see ledger: the monodromy acts by R21 R, so the
    element satisfying Delta(v) = (R21 R)^{-1}(v x v) acts as the inverse
    twist)."""
    h = x.algebra
    assert h.ribbon is not None, "twist needs a ribbon element"
    return Morphism(x, x, x.act(h.ribbon_inv()))


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


def hom_basis(x, y):
    """Basis of Hom_H(X, Y), deterministic ordering.

    Intertwining is imposed only against the basis elements that
    `generating_indices` picks, which is equivalent to the full set of
    basis constraints."""
    h = x.algebra
    f = h.field
    pairs = [(x.action[g], y.action[g]) for g in generating_indices(h)]
    dx, dy = x.dim, y.dim
    iy = Matrix.identity(f, dy)
    ix = Matrix.identity(f, dx)
    blocks = [kron(iy, ax.transpose()) - kron(ay, ix) for ax, ay in pairs] \
        or [Matrix.zeros(f, 1, dx * dy)]
    stack = blocks[0].vstack(*blocks[1:])
    basis = []
    for vec in kernel_basis(stack):
        m = Matrix(f, dy, dx, vec.data)
        basis.append(Morphism(x, y, m))
    return basis


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
    (valid in characteristic zero)."""
    f = h.field
    n = h.dim
    sparse = []
    for i in range(n):
        li = h.left_regular(i)
        sparse.append([(a, b, li.data[a * n + b]) for a in range(n)
                       for b in range(n) if not li.data[a * n + b].is_zero()])
    gram = Matrix.zeros(f, n, n)
    for i in range(n):
        for j in range(n):
            lj = h.left_regular(j)
            t = f.zero()
            for a, b, v in sparse[i]:
                w = lj.data[b * n + a]
                if not w.is_zero():
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

    # group into isomorphism classes: P ~ P' iff P Abar P' != 0
    classes = []
    for p in prims:
        placed = False
        for cls in classes:
            rep = cls[0]
            linked = False
            for b in qbasis:
                if not mul(mul(rep, b), p).is_zero():
                    linked = True
                    break
            if linked:
                cls.append(p)
                placed = True
                break
        if not placed:
            classes.append([p])

    entries = []
    for cls in classes:
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
        "action": sorted([k, i, j, format_scalar(x.action[k][i, j])]
                         for k in range(x.algebra.dim)
                         for i in range(x.dim) for j in range(x.dim)
                         if not x.action[k][i, j].is_zero()),
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
        action = [Matrix.zeros(h.field, dim, dim) for _ in range(h.dim)]
        for k, i, j, c in d["action"]:
            if not (all(type(t) is int for t in (k, i, j))
                    and 0 <= k < h.dim and 0 <= i < dim and 0 <= j < dim):
                raise ValueError("action entry (%s, %s, %s) out of range"
                                 % (k, i, j))
            action[k][i, j] = parse_scalar(h.field, c)
    except (ValueError, TypeError, KeyError) as e:
        raise ModuleFormatError("malformed module spec: %s" % e)
    m = ModuleObject(h, dim, action, str(d["name"]))
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

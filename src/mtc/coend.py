"""The canonical coend L = int^X X* (x) X of the module category, as the
coadjoint module on H*: the bulk object F = H* of `carrier_bimodule`
restricted along Delta, with its universal dinatural family (iota on a
pair is a product in H*), Hopf structure, Hopf pairing, integrals,
Frobenius (Radford) pairing, and the modular S and T transformations.

The structure morphisms are listed once, in STRUCTURE.  Each is solved from
its defining diagram with X = H (regular module), through the explicit
section xi -> xi (x) 1 of iota_H, and, for a word on a pair, Y = the sum of
the projective covers, through a solved right inverse of iota_Y.  Each is
then certified by re-checking its defining relation on all simples and
projective covers, or on all pairs of them.  Diagram words are evaluated
column-by-column on sparse vectors.

The derived morphisms are diagram words in the solved structure, evaluated
by the same evaluator.  One copairing word (rho x id)(id x copairing)
gives the S transformation (rho = omega), the Frobenius coproduct
(rho = mu) and the coaction delta^Lambda of an L-module (rho its action).
The words on an object X are the canonical coaction delta_X =
(id x iota_X)(coev_X x id), the action rho_X = (id x omega)(delta_X x id)
with delta_X inlined, the character chi_X as the pivotal trace of that
action word, and the cocharacter iota_X coev~_X.
"""

from collections import namedtuple
from itertools import product
from math import prod

from .scalars import sqrt_adjoin
from .linalg import Matrix, kron, solve_right, kernel_basis, rank, invert, \
    NoSolution, rank_factor, _matrix_colfn, columns_matrix
from . import repcat, diagrams
from .hopf import Algebra, hopf_axiom_words, check_words
from .diagrams import apply_word, word_matrix, obj_dual, _step
from .repcat import (ModuleObject, Morphism, trivial_module, regular_module,
                     tensor_obj, dual_obj, hom_basis, simples_data,
                     generating_indices)
from .report import Report


class CoendError(Exception):
    pass


class NotModularError(Exception):
    """The Hopf pairing of the coend is degenerate: the input is not a
    modular category, which is a check failure, not an inconsistency."""


class CoendData:
    """Carrier, dinatural family, and (once solved) the full Hopf, Frobenius
    and modular structure of the canonical coend.  `algebra` is (L, mu, eta)
    as an `Algebra` on the carrier's basis, built once from the solved mu."""

    def __init__(self, h):
        assert h.ribbon is not None, "coend construction needs a ribbon element"
        self.h = h
        self.field = h.field
        self.carrier = coadjoint_module(h)
        self.mu = None
        self.eta = None
        self.algebra = None
        self.delta = None
        self.eps = None
        self.antipode_L = None
        self.omega = None
        self.omega_bar = None
        self.Lambda = None
        self.lambda_ = None
        self.zeta = None
        self.D = None
        self.D_field = None
        self.Delta_plus = None
        self.Delta_minus = None
        self.kappa = None
        self.kappa_copair = None
        self.delta_Lambda = None
        self.S_transform = None
        self.T_transform = None
        self.sl2z_scalars = None

    # -- dinatural family -------------------------------------------------
    @staticmethod
    def iota_matrix(x):
        """The n x dim(X)^2 matrix of iota_X: (xi (x) v) -> (h -> xi(h v));
        row k is the action of e_k, flattened."""
        return Matrix(x.algebra.field, len(x.action), x.dim * x.dim,
                      [v for act in x.action for v in act.data])

    def iota(self, x):
        """iota_X as a Morphism (materializes the small domain module)."""
        return Morphism(tensor_obj(dual_obj(x), x), self.carrier,
                        self.iota_matrix(x))

    @staticmethod
    def iota_pair_colfn(x, y):
        """Lazy columns of iota_{X (x) Y} indexed by the flat
        (X x Y)* (x) (X x Y) basis; never materializes the tensor module.
        Column (xi (x) eta) (x) (v (x) w) is the product in H* of the
        columns iota_X(xi (x) v) and iota_Y(eta (x) w)."""
        dual = x.algebra.dual()
        xcol = _matrix_colfn(CoendData.iota_matrix(x))
        ycol = _matrix_colfn(CoendData.iota_matrix(y))
        dx, dy = x.dim, y.dim
        d = dx * dy
        cache = {}

        def col(idx):
            got = cache.get(idx)
            if got is None:
                q, p = divmod(idx, d)
                i, j = divmod(q, dy)
                k, l = divmod(p, dy)
                prod = dual.tensor_mul({(a,): v for a, v in xcol(i * dx + k)},
                                       {(b,): v for b, v in ycol(j * dy + l)})
                got = cache[idx] = sorted((a, v) for (a,), v in prod.items())
            return got
        return col

    def section_columns(self):
        """The right inverse xi -> xi (x) 1 of iota_H as sparse columns."""
        n = self.h.dim
        one = [(k, c) for k, c in enumerate(self.h.unit.data)
               if not c.is_zero()]
        return [{a * n + k: c for k, c in one} for a in range(n)]

    def omega_gram(self):
        """omega as the n x n matrix of the pairing."""
        n = self.h.dim
        return Matrix(self.field, n, n, self.omega.data)


def carrier_bimodule(h):
    """F = H* with the coregular bimodule action (a (x) b) . xi =
    xi(S(a) . b): the bulk object int^X X* (x) X of C x Cbar, and the one
    definition of the coend's carrier.  A module over H (x) mirror(H) is a
    pair of commuting H-module structures, so F is given by its two
    factors.  Returns (left, right), built once per algebra."""
    def compute():
        n = h.dim
        # left factor: xi -> xi(S(a) . ); right factor: xi -> xi( . b); on
        # the dual basis these are the transposes of the multiplication
        # matrices
        left = ModuleObject(
            h, n, [h.left_mult_matrix(h.antipode * h.basis_vec(a)).transpose()
                   for a in range(n)], "L-carrier left")
        right = ModuleObject(
            h, n, [h.right_mult_matrix(h.basis_vec(a)).transpose()
                   for a in range(n)], "L-carrier right")
        return left, right
    return h._derived("carrier_bimodule", compute)


def coadjoint_module(h):
    """L: F restricted along Delta, (h . xi)(a) = xi(S(h_(1)) a h_(2)).
    e_m acts by the sum of c left(e_j1) right(e_j2) over the terms of
    Delta(e_m), multiplied column by column on sparse columns that L keeps."""
    left, right = carrier_bimodule(h)
    columns = []
    for d in h.comult:
        cols = [{} for _ in range(h.dim)]
        for (j1, j2), c in d.items():
            lcol, rcol = left.action_colfn(j1), right.action_colfn(j2)
            for i, col in enumerate(cols):
                for l, y in rcol(i):
                    cy = c * y
                    for k, x in lcol(l):
                        col[k] = col[k] + cy * x if k in col else cy * x
        columns.append([[(k, v) for k, v in col.items() if any(v.num)]
                        for col in cols].__getitem__)
    return ModuleObject(h, h.dim, None, "L", columns)


# ---------------------------------------------------------------------------
# the structure morphisms and their defining diagram words

# The derived morphisms.  The copairing word is read on a module W with a
# map rho: W (x) L -> V and a copairing copair: 1 -> L (x) L; the other
# words on an object X with iota_x = iota_X and the Hopf pairing omega
COPAIRING_WORD = "(id(W) * box(copair)) ; (box(rho) * id(L))"
COACTION_WORD = "(coev(X) * id(X)) ; (id(X) * box(iota_x))"
COCHARACTER_WORD = "coevt(X) ; box(iota_x)"
ACTION_WORD = ("(coev(X) * id(X) * id(L)) ; "
               "(id(X) * box(iota_x) * id(L)) ; (id(X) * box(omega))")
CHARACTER_WORD = ("(coevt(X) * id(L)) ; "
                  "(id(X.dual) * coev(X) * id(X) * id(L)) ; "
                  "(id(X.dual) * id(X) * box(iota_x) * id(L)) ; "
                  "(id(X.dual) * id(X) * box(omega)) ; ev(X)")
_L, _X, _W, _V = ((("name", s),) for s in "LXWV")

Structure = namedtuple("Structure", "check box attr dom cod word")

# The one list of the coend's structure morphisms: the name its checks use,
# its box in _structure_env, its CoendData attribute, its domain and
# codomain as powers of L, and its defining word through the dinatural
# family (coend structure figure).  A word on one L is read on an object XX
# (the boxes of _object_env), a word on L (x) L on a pair XX, YY (those of
# _pair_env); eta = eps_H has no word.
STRUCTURE = (
    Structure("mu", "mu", "mu", _L + _L, _L,
              "(id(XX.dual) * br(XX, YY.dual) * id(YY)) ; "
              "(br(XX.dual, YY.dual) * id(XX) * id(YY)) ; "
              "(box(kap) * id(XX) * id(YY)) ; box(iota_t)"),
    Structure("eta", "eta", "eta", (), _L, None),
    Structure("Delta", "delta", "delta", _L, _L + _L,
              "(id(XX.dual) * coev(XX) * id(XX)) ; "
              "(box(iota_x) * box(iota_x))"),
    Structure("eps", "eps", "eps", _L, (), "ev(XX)"),
    Structure("S", "S", "antipode_L", _L, _L,
              "br(XX.dual, XX) ; (box(piv) * id(XX.dual)) ; box(iota_d)"),
    Structure("T", "T", "T_transform", _L, _L,
              "(id(XX.dual) * tw(XX)) ; box(iota_x)"),
    Structure("omega", "omega", "omega", _L + _L, (),
              "(id(XX.dual) * br(XX, YY.dual) * id(YY)) ; "
              "(id(XX.dual) * br(YY.dual, XX) * id(YY)) ; "
              "(ev(XX) * ev(YY))"),
    Structure("omega_bar", "omega_bar", "omega_bar", _L + _L, (),
              "(id(XX.dual) * brinv(YY.dual, XX) * id(YY)) ; "
              "(id(XX.dual) * brinv(XX, YY.dual) * id(YY)) ; "
              "(ev(XX) * ev(YY))"),
)
_XX, _YY, _LL = (("name", "XX"),), (("name", "YY"),), (("name", "_L"),)


def _object_env(cd, x):
    """Environment with boxes for the defining words on one object XX."""
    h = cd.h
    env = diagrams.Env(h).bind_object("XX", x).bind_object("_L", cd.carrier)
    dxx = obj_dual(_XX)
    env.bind_box("iota_x", cd.iota_matrix(x), dxx + _XX, _LL)
    env.bind_box("iota_d", cd.iota_matrix(dual_obj(x)), obj_dual(dxx) + dxx,
                 _LL)
    # the curl in the antipode diagram: the canonical X -> X** built from
    # braiding and duality alone acts by S(u)^{-1} (u the Drinfeld element)
    env.bind_box("piv", x.act(h.antipode_u_inv()), _XX, obj_dual(dxx))
    return env


def _pair_env(cd, x, y):
    """Environment with boxes for the defining words on the pair
    (X, Y) = (XX, YY)."""
    env = diagrams.Env(cd.h).bind_object("XX", x).bind_object("YY", y)
    env.bind_object("_L", cd.carrier)
    dxy = obj_dual(_XX + _YY)
    one = cd.field.one()
    dx, dy = x.dim, y.dim
    # the canonical Y* (x) X* -> (X (x) Y)* is the flip of the factors
    env.bind_box("kap", lambda p: [((p % dx) * dy + p // dx, one)],
                 obj_dual(_YY) + obj_dual(_XX), dxy)
    env.bind_box("iota_t", cd.iota_pair_colfn(x, y), dxy + _XX + _YY, _LL)
    return env


def build_coend(h):
    """Carrier and dinatural family; certifies that iota_H composed with the
    section is the identity (the surjectivity witness)."""
    cd = CoendData(h)
    cols = cd.section_columns()
    sec = columns_matrix(h.field, h.dim ** 2, h.dim, lambda j: cols[j].items())
    ih = cd.iota_matrix(regular_module(h))
    assert ih * sec == Matrix.identity(h.field, h.dim), \
        "section is not a right inverse of iota_H"
    return cd


def _faithful_witness(h):
    """The direct sum of one copy of each projective cover, with a right
    inverse of its iota.  That sum is a progenerator, hence faithful, and
    no smaller sum is: H is Frobenius, so a faithful module contains every
    indecomposable projective as a summand."""
    mod = repcat.direct_sum(*simples_data(h).projectives)
    tau = solve_right(CoendData.iota_matrix(mod),
                      Matrix.identity(h.field, h.dim))
    return mod, tau


def solve_structure_morphisms(cd):
    """Solve the structure morphisms of STRUCTURE from their defining
    diagrams, verify the Hopf axioms, run the dinaturality certificate,
    and build cd.algebra.

    A word on one L is read on the regular module through the section
    xi -> xi (x) 1 of iota_H.  A word on L (x) L only needs iota_X (x)
    iota_Y jointly surjective: its second argument is the faithful witness,
    no larger than H, through the solved right inverse of its iota."""
    h = cd.h
    n = h.dim
    reg = regular_module(h)
    sec_cols = cd.section_columns()
    wit, tau = _faithful_witness(h)
    wdim2 = wit.dim * wit.dim
    tau_cols = [{i: v for i, v in enumerate(tau.col_list(b)) if not v.is_zero()}
                for b in range(n)]
    pair_cols = [{ia * wdim2 + ib: va * vb for ia, va in ca.items()
                  for ib, vb in cb.items()}
                 for ca in sec_cols for cb in tau_cols]
    witnesses = {1: (_object_env(cd, reg), sec_cols),
                 2: (_pair_env(cd, reg, wit), pair_cols)}
    for e in STRUCTURE:
        if e.word is not None:
            env, cols = witnesses[len(e.dom)]
            setattr(cd, e.attr, apply_word(env, e.word, cols))
    cd.eta = h.counit.transpose()

    rep = verify_hopf_on_coend(cd)
    if not rep.ok:
        raise CoendError("coend Hopf structure failed verification:\n%s" % rep)
    rep = dinaturality_certificate(cd)
    if not rep.ok:
        raise CoendError("dinaturality certificate failed:\n%s" % rep)
    # column i*n + j of mu is e_i e_j
    mult = [[{k: c for k, c in enumerate(cd.mu.col_list(i * n + j))
              if not c.is_zero()} for j in range(n)] for i in range(n)]
    cd.algebra = Algebra(h.field, n, ["%s*" % x for x in h.basis_labels],
                         mult, cd.eta, "L")
    return cd


def _structure_env(cd):
    """Environment with the carrier bound as L and the solved structure
    morphisms of the coend as boxes on it."""
    env = diagrams.Env(cd.h).bind_object("L", cd.carrier)
    for e in STRUCTURE:
        env.bind_box(e.box, getattr(cd, e.attr), e.dom, e.cod)
    return env


# The Hopf-algebra identities of the coend in the braided category: H's
# axiom table with br(L, L) as the braiding, plus the omega_bar entry
HOPF_AXIOMS = hopf_axiom_words("L", "br(L, L)") + (
    ("omega(S x id) = omega_bar = omega(id x S)", (
        "box(omega_bar)",
        "(box(S) * id(L)) ; box(omega)",
        "(id(L) * box(S)) ; box(omega)"), None),
)


def verify_hopf_on_coend(cd):
    """Exact Hopf-axiom identities for (mu, eta, Delta, eps, S) on L, as
    the word table HOPF_AXIOMS, plus the check that every entry of
    STRUCTURE intertwines the actions on 1, L and L (x) L, one generator
    at a time: m(g . e_j) = g . (m e_j) on every basis column e_j, with g
    acting on L (x) L through Delta(g) on sparse columns."""
    rep = Report("Hopf structure of the coend")
    h = cd.h
    L = cd.carrier
    one = trivial_module(h)
    env = _structure_env(cd)
    ok = dict.fromkeys((e.check for e in STRUCTURE), True)
    for g in generating_indices(h):
        # the action of g on L^{(x) k} as the box g<k>
        env.bind_box("g0", one.action[g], (), ())
        env.bind_box("g1", L.action_colfn(g), _L, _L)
        env.bind_box("g2", repcat.tensor_action_colfn(h.comult[g], L, L),
                     _L + _L, _L + _L)
        for e in STRUCTURE:
            ok[e.check] = ok[e.check] and diagrams.words_agree(env, (
                "box(g%d) ; box(%s)" % (len(e.dom), e.box),
                "box(%s) ; box(g%d)" % (e.box, len(e.cod))))
    for check, good in ok.items():
        rep.add("%s is an intertwiner" % check, good)
    return check_words(rep, env, HOPF_AXIOMS)


# The domain columns that dinaturality_certificate evaluates at once.  Each
# batch gets a fresh environment, so the column caches of iota on pairs and
# of the braidings stay bounded by it.
CERT_BLOCK = 4096


def dinaturality_certificate(cd):
    """Re-check the defining word of every entry of STRUCTURE on the simples
    and projective covers, one object or a pair as its domain says, plus
    dinaturality of iota along a basis of every intertwiner space.

    Each word is evaluated once, on S, the direct sum of those objects, or
    on the pair (S, S), and only on the basis columns of the diagonal
    blocks X* (x) X, or X* (x) X (x) Y* (x) Y.  Its values there are split
    back into one entry per object or pair, and each is compared with
    m . iota_X, or m . (iota_X (x) iota_Y), built from the sparse columns
    of the objects' own iotas."""
    rep = Report("dinaturality certificate")
    h = cd.h
    f = h.field
    n = h.dim
    one = f.one()
    sd = simples_data(h)
    objects = []
    seen = set()
    for m in list(sd.simples) + list(sd.projectives):
        if m.fingerprint() not in seen:
            seen.add(m.fingerprint())
            objects.append(m)

    s = repcat.direct_sum(*objects)
    ss = s.dim * s.dim
    # block[a]: the basis columns of X_a* (x) X_a inside S* (x) S, in the
    # order of the columns of iota_{X_a}
    blocks = []
    off = 0
    for x in objects:
        blocks.append([(off + i) * s.dim + off + k
                       for i in range(x.dim) for k in range(x.dim)])
        off += x.dim
    iotas = [_matrix_colfn(cd.iota_matrix(x)) for x in objects]

    def domain(xs):
        """The columns of xs's diagonal block in S's domain, and the
        sparse columns of the tensor product of the iotas of xs."""
        flat, cols = [0], [{0: one}]
        for a in xs:
            flat = [p * ss + q for p in flat for q in blocks[a]]
            cols = [{r * n + t: v * w for r, v in c.items()
                     for t, w in iotas[a](q)}
                    for c in cols for q in range(len(blocks[a]))]
        return flat, cols

    for k in (1, 2):
        entries = [e for e in STRUCTURE if len(e.dom) == k]
        mcols = [_matrix_colfn(getattr(cd, e.attr)) for e in entries]
        for batch in _batches(product(range(len(objects)), repeat=k),
                              lambda xs: prod(len(blocks[a]) for a in xs)):
            env = _object_env(cd, s) if k == 1 else _pair_env(cd, s, s)
            doms = [domain(xs) for xs in batch]
            units = [{p: one} for flat, _ in doms for p in flat]
            # one word's values are held at a time
            good = [_agree_by_block(
                diagrams.evaluate_applied(diagrams.parse(e.word), env,
                                          units)[0],
                doms, mcol, n ** k, n ** len(e.cod))
                for e, mcol in zip(entries, mcols)]
            for i, xs in enumerate(batch):
                label = " x ".join("iota_%s" % objects[a].name for a in xs)
                label = label if k == 1 else "(%s)" % label
                for e, verdicts in zip(entries, good):
                    rep.add("%s . %s" % (e.check, label), verdicts[i])

    # iota_X (f^T x id) = iota_Y (id x f) on Y* (x) X for f: X -> Y; column
    # (j, l) is sum_i f[j, i] iota_X(i, l) = sum_m f[m, l] iota_Y(j, m)
    for a, x in enumerate(objects):
        for b, y in enumerate(objects):
            if a != b and max(a, b) < sd.count:  # two simples: Hom is 0
                continue
            for k, fm in enumerate(hom_basis(x, y)):
                fcol = _matrix_colfn(fm.matrix)
                frow = _matrix_colfn(fm.matrix.transpose())
                good = all(
                    _step({i * x.dim + l: v for i, v in frow(j)}, iotas[a],
                          x.dim * x.dim, n, 1) ==
                    _step({j * y.dim + m: v for m, v in fcol(l)}, iotas[b],
                          y.dim * y.dim, n, 1)
                    for j in range(y.dim) for l in range(x.dim))
                rep.add("dinaturality %s->%s #%d" % (x.name, y.name, k), good)
    return rep


def _agree_by_block(vals, doms, mcol, din, dout):
    """Per block (flat, cols) of doms, whether m, the din -> dout map with
    column function mcol, takes each of cols to the word's value in vals,
    the values of all the blocks in order."""
    out, start = [], 0
    for flat, cols in doms:
        out.append(all(_step(c, mcol, din, dout, 1) == v for c, v in
                       zip(cols, vals[start:start + len(flat)])))
        start += len(flat)
    return out


def _batches(items, size):
    """The items in order, in consecutive lists of total size at most
    CERT_BLOCK; an item larger than that is a list of its own."""
    batch, total = [], 0
    for it in items:
        if batch and total + size(it) > CERT_BLOCK:
            yield batch
            batch, total = [], 0
        batch.append(it)
        total += size(it)
    if batch:
        yield batch


# ---------------------------------------------------------------------------
# integrals, modularity, S/T

def solve_integrals(cd):
    """The (1-dimensional) two-sided integral and cointegral spaces of L,
    normalized so lambda . Lambda = 1 with the deterministic lambda pivot.
    Returns (Lambda, lambda)."""
    h = cd.h
    f = cd.field
    n = h.dim
    L = cd.carrier
    a = cd.algebra
    eye = Matrix.identity(f, n)
    gens = generating_indices(h)
    basis = [a.basis_vec(i) for i in range(n)]

    # Lambda: invariant, and mu(e_a x Lambda) = eps(e_a) Lambda =
    # mu(Lambda x e_a)
    rows = [L.action[g] - eye.scale(h.counit.data[g]) for g in gens]
    for i, eps_a in enumerate(cd.eps.data):
        rows += [a.left_regular(i) - eye.scale(eps_a),
                 a.right_mult_matrix(basis[i]) - eye.scale(eps_a)]
    space = kernel_basis(rows[0].vstack(*rows[1:]))
    if len(space) != 1:
        raise CoendError("integral space has dimension %d (expected 1: "
                         "non-unimodularity contradicts modularity)" % len(space))
    Lam = space[0]

    # lambda (as a column): invariant, with (e^a x lambda) Delta =
    # eta_a lambda = (lambda x e^a) Delta
    rows = [L.action[g].transpose() - eye.scale(h.counit.data[g]) for g in gens]
    for e, eta_a in zip(basis, cd.eta.data):
        e = e.transpose()
        rows += [(kron(e, eye) * cd.delta).transpose() - eye.scale(eta_a),
                 (kron(eye, e) * cd.delta).transpose() - eye.scale(eta_a)]
    space = kernel_basis(rows[0].vstack(*rows[1:]))
    if len(space) != 1:
        raise CoendError("cointegral space has dimension %d (expected 1)" % len(space))
    lam = space[0].transpose()

    piv = next(i for i in range(n) if not lam.data[i].is_zero())
    lam = lam.scale(lam.data[piv].inv())
    pairing = (lam * Lam).data[0]
    if pairing.is_zero():
        raise CoendError("lambda(Lambda) = 0: integrals cannot be normalized")
    Lam = Lam.scale(pairing.inv())
    return Lam, lam


def integrals_and_zeta(cd):
    """Two-sided integral and cointegral of L, normalized per the modularity
    parameter and the vacuum compatibility eps . S = lambda; fixes D as a
    square root of zeta and the constants Delta^{+-}."""
    f = cd.field
    n = cd.h.dim
    eye = Matrix.identity(f, n)
    Lam, lam = solve_integrals(cd)

    def zeta_of(lam, Lam):
        w = cd.omega * kron(eye, Lam)
        if w.is_zero():
            raise CoendError("zeta = 0: the Hopf pairing is degenerate")
        zeta = _proportionality(w, lam)
        if zeta is None:
            raise CoendError("omega(id x Lambda) is not proportional to lambda")
        return zeta

    zeta = zeta_of(lam, Lam)

    # The pair (lambda, Lambda) is only fixed up to (c lambda, Lambda/c),
    # which rescales zeta by c^{-2}.  The representative is pinned by the
    # vacuum compatibility eps . S_transform = lambda (the relation that
    # makes the character/cocharacter transformation laws and the two
    # defect-operator formulas hold on the nose): solve c^2 from the
    # measured proportionality and rescale when the root is in the field.
    from .scalars import sqrt_in_field
    from .etale import sign_normalized_first
    eps_s = cd.eps * through_copairing(cd, cd.carrier, cd.omega,
                                       trivial_module(cd.h),
                                       _copairing(cd, Lam))
    ratio = _proportionality(eps_s, lam)
    if ratio is None:
        raise CoendError("eps . S_transform is not proportional to lambda")
    roots = sqrt_in_field(ratio)
    if roots:
        c = sign_normalized_first(roots)
        lam = lam.scale(c)
        Lam = Lam.scale(c.inv())
        zeta = zeta_of(lam, Lam)

    tinv = invert(cd.T_transform)
    dplus = (cd.eps * (cd.T_transform * Lam)).data[0]
    dminus = (cd.eps * (tinv * Lam)).data[0]
    if dplus.is_zero() or dminus.is_zero():
        raise CoendError("Delta^+- vanished")
    # residual overall sign: make the first nonzero coordinate of Delta^+
    # positive via (lambda, Lambda) -> (-lambda, -Lambda)
    lead = next(x for x in dplus.num if x != 0)
    if lead < 0:
        lam = lam.scale(-f.one())
        Lam = Lam.scale(-f.one())
        dplus = -dplus
        dminus = -dminus

    cd.Lambda = Lam
    cd.lambda_ = lam
    cd.zeta = zeta
    cd.D, cd.D_field = sqrt_adjoin(zeta)
    cd.Delta_plus = dplus
    cd.Delta_minus = dminus
    if cd.Delta_plus * cd.Delta_minus != zeta:
        raise CoendError("zeta != Delta^+ Delta^-")
    return cd


def modularity_test(cd):
    """Non-degeneracy of the Hopf pairing."""
    return rank(cd.omega_gram()) == cd.h.dim


def radford_pairing(cd):
    """kappa = lambda . mu and its copairing (S x id) Delta Lambda, with the
    Frobenius snake identities verified."""
    eye = Matrix.identity(cd.field, cd.h.dim)
    cd.kappa = cd.lambda_ * cd.mu
    cd.kappa_copair = _copairing(cd, cd.Lambda)
    snake1 = kron(cd.kappa, eye) * kron(eye, cd.kappa_copair)
    snake2 = kron(eye, cd.kappa) * kron(cd.kappa_copair, eye)
    if snake1 != eye or snake2 != eye:
        raise CoendError("Frobenius snake identities fail for the Radford pairing")
    return cd.kappa, cd.kappa_copair


def _copairing(cd, Lam):
    """(S x id) Delta Lambda: 1 -> L (x) L."""
    eye = Matrix.identity(cd.field, cd.h.dim)
    return kron(cd.antipode_L, eye) * (cd.delta * Lam)


def through_copairing(cd, w, rho, v, copair):
    """(rho x id)(id x copair): W -> V (x) L, the copairing word for
    rho: W (x) L -> V on the modules w and v."""
    env = diagrams.Env(cd.h).bind_object("L", cd.carrier)
    env.bind_object("W", w).bind_object("V", v)
    env.bind_box("copair", copair, (), _L + _L)
    env.bind_box("rho", rho, _W + _L, _V)
    return word_matrix(env, COPAIRING_WORD)


def frobenius_coproduct(cd):
    """Delta_Lambda = (mu x id)(id x copairing): the Frobenius coalgebra
    structure with counit lambda, evaluated once and kept on cd."""
    if cd.delta_Lambda is None:
        cd.delta_Lambda = through_copairing(cd, cd.carrier, cd.mu, cd.carrier,
                                            cd.kappa_copair)
    return cd.delta_Lambda


def s_t_transforms(cd):
    """S = (omega x id)(id x copairing); checks S^2 = zeta S^{-1},
    kappa(S x id) = omega = kappa(id x S), S^4 = zeta^2 S_L^{-2}, and the
    projective SL(2,Z) relations on Hom(L, 1)."""
    f = cd.field
    n = cd.h.dim
    if cd.kappa is None:
        radford_pairing(cd)
    eye = Matrix.identity(f, n)
    cd.S_transform = through_copairing(cd, cd.carrier, cd.omega,
                                       trivial_module(cd.h), cd.kappa_copair)

    rep = Report("S/T transforms")
    s_inv_ant = invert(cd.antipode_L)
    rep.add("S_transform invertible", rank(cd.S_transform) == n)
    rep.add("S^2 = zeta S_L^{-1}",
            cd.S_transform * cd.S_transform == s_inv_ant.scale(cd.zeta))
    rep.add("kappa(S x id) = omega",
            cd.kappa * kron(cd.S_transform, eye) == cd.omega)
    rep.add("kappa(id x S) = omega",
            cd.kappa * kron(eye, cd.S_transform) == cd.omega)
    rep.add("S^4 = zeta^2 S_L^{-2}",
            cd.S_transform * cd.S_transform * cd.S_transform * cd.S_transform
            == (s_inv_ant * s_inv_ant).scale(cd.zeta * cd.zeta))

    scalars = sl2z_check(cd, rep)
    return rep, scalars


def sl2z_check(cd, rep):
    """Projective SL(2,Z) relations for precomposition on Hom(L, 1), added
    to rep; returns the measured proportionality scalars (reported, not
    normalized)."""
    h = cd.h
    L = cd.carrier
    one = trivial_module(h)
    basis = hom_basis(L, one)
    m = len(basis)
    cols = [b.matrix.transpose() for b in basis]
    stack = cols[0].hstack(*cols[1:])

    def op(mat):
        imgs = [(b.matrix * mat).transpose() for b in basis]
        return solve_right(stack, imgs[0].hstack(*imgs[1:]))

    ms = op(cd.S_transform)
    mt = op(cd.T_transform)
    st = ms * mt
    st3 = st * st * st
    s2 = ms * ms
    lam1 = _proportionality(st3, s2)
    rep.add("(S T)^3 proportional to S^2 on Hom(L,1)", lam1 is not None,
            None if lam1 is not None else "no scalar")
    s4 = s2 * s2
    lam2 = _proportionality(s4, Matrix.identity(cd.field, m))
    rep.add("S^4 proportional to id on Hom(L,1)", lam2 is not None)
    return {"st3_vs_s2": lam1, "s4_vs_id": lam2}


def _proportionality(a, b):
    c = None
    for x, y in zip(a.data, b.data):
        if y.is_zero():
            if not x.is_zero():
                return None
            continue
        cand = x * y.inv()
        if c is None:
            c = cand
        elif c != cand:
            return None
    if c is None or c.is_zero():
        return None
    return c


# ---------------------------------------------------------------------------
# canonical action / coaction, characters

def _object_word(cd, x, word):
    """The matrix of a derived word on the object x, with the carrier bound
    as L, x as X, iota_X as iota_x and, once solved, the Hopf pairing as
    omega."""
    env = diagrams.Env(cd.h).bind_object("L", cd.carrier).bind_object("X", x)
    env.bind_box("iota_x", cd.iota_matrix(x), obj_dual(_X) + _X, _L)
    if cd.omega is not None:
        env.bind_box("omega", cd.omega, _L + _L, ())
    return word_matrix(env, word)


def canonical_coaction(cd, x):
    """delta_X = (id x iota_X)(coev_X x id): X -> X (x) L."""
    return Morphism(x, tensor_obj(x, cd.carrier),
                    _object_word(cd, x, COACTION_WORD))


def canonical_action(cd, x):
    """rho_X: X (x) L -> X, the module structure obtained from the canonical
    coaction through the Hopf pairing: rho_X = (id (x) omega)(delta_X (x) id).
    `_half_braiding_action` derives the same action from the half-braiding
    figure, independently."""
    return Morphism(tensor_obj(x, cd.carrier), x,
                    _object_word(cd, x, ACTION_WORD))


def _half_braiding_action(cd, x, mirror_factor=None):
    """The action computed from the half-braiding diagram (monodromy with
    the regular argument), as a certificate for canonical_action and, with
    mirror_factor, for cardy.cardy_action."""
    h = cd.h
    n = h.dim
    reg = regular_module(h)
    env = diagrams.Env(h)
    env.bind_object("AA", reg)
    if mirror_factor is None:
        w = x
        env.bind_object("WW", w)
        word = ("(br(WW, AA.dual) * id(AA)) ; (br(AA.dual, WW) * id(AA)) ; "
                "(id(WW) * ev(AA))")
    else:
        w = tensor_obj(x, mirror_factor)
        env.bind_object("WW", w)
        env.bind_object("XA", x)
        env.bind_object("XB", mirror_factor)
        # mixed half-braiding: X braids with beta, Xbar with the inverse
        word = ("(br(XA x XB, AA.dual) * id(AA)) ; "
                "(id(AA.dual) * id(XA) * brinv(AA, XB)) ; "
                "(id(AA.dual) * br(XA, AA) * id(XB)) ; "
                "(ev(AA) * id(XA) * id(XB))")
    d = w.dim
    sec_cols = cd.section_columns()
    cols = []
    for i in range(d):
        for sc in sec_cols:
            cols.append({i * n * n + k: v for k, v in sc.items()})
    return apply_word(env, word, cols)


def characters(cd, x):
    """(chi_X, chicheck_X): the pivotal trace of the canonical action
    rho_X over X, and the cocharacter."""
    chi = Morphism(cd.carrier, trivial_module(cd.h),
                   _object_word(cd, x, CHARACTER_WORD))
    return chi, cocharacter(cd, x)


def cocharacter(cd, x):
    """chicheck_X = iota_X . coev~_X: 1 -> L."""
    return Morphism(trivial_module(cd.h), cd.carrier,
                    _object_word(cd, x, COCHARACTER_WORD))


def cutting_decomposition(cd, x):
    """E = (id x lambda) delta_X factored as b . a through a multiple of the
    unit object; returns (m, a, b)."""
    h = cd.h
    f = h.field
    d = x.dim
    e = kron(Matrix.identity(f, d), cd.lambda_) * \
        _object_word(cd, x, COACTION_WORD)

    one = trivial_module(h)
    a_basis = hom_basis(x, one)
    b_basis = hom_basis(one, x)
    if not a_basis or not b_basis:
        if not e.is_zero():
            raise CoendError("cutting endomorphism nonzero but Hom spaces trivial")
        return 0, Matrix.zeros(f, 0, d), Matrix.zeros(f, d, 0)
    cols = [Matrix.column(f, (bj.matrix * ai.matrix).data)
            for bj in b_basis for ai in a_basis]
    try:
        coeff = solve_right(cols[0].hstack(*cols[1:]),
                            Matrix.column(f, e.data))
    except NoSolution:
        raise CoendError("cutting endomorphism is not expressible through the"
                         " unit (modularity contradiction)")
    bfac, afac = rank_factor(Matrix(f, len(b_basis), len(a_basis), coeff.data))
    m = bfac.cols
    a = afac * a_basis[0].matrix.vstack(*(ai.matrix for ai in a_basis[1:]))
    b = b_basis[0].matrix.hstack(*(bj.matrix for bj in b_basis[1:])) * bfac
    assert b * a == e, "cutting factorization failed"
    lhs = _object_word(cd, x, ACTION_WORD) * \
        kron(Matrix.identity(f, d), cd.Lambda)
    if lhs != e.scale(cd.zeta):
        raise CoendError("rho_X(id x Lambda) != zeta (id x lambda) delta_X")
    return m, a, b


def build_full(h):
    """The whole pipeline: carrier, structure, modularity, integrals,
    Radford pairing, S/T transforms.  A degenerate Hopf pairing raises
    NotModularError before the integrals, which presuppose modularity."""
    cd = build_coend(h)
    solve_structure_morphisms(cd)
    if not modularity_test(cd):
        raise NotModularError(
            "the Hopf pairing omega of the coend of %s is degenerate "
            "(rank %d < dim L = %d): not a modular category"
            % (h.name, rank(cd.omega_gram()), h.dim))
    integrals_and_zeta(cd)
    radford_pairing(cd)
    rep, scalars = s_t_transforms(cd)
    if not rep.ok:
        raise CoendError("S/T verification failed:\n%s" % rep)
    cd.sl2z_scalars = scalars
    return cd

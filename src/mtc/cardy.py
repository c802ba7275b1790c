"""Cardy-case CFT quantities: field content, boundary states, annulus
amplitudes, the torus partition function with its Cartan-matrix certificate,
topological defect operators and their fusion algebra, two-point pairings,
and the free-module adjunction maps.

Each map with a factor f (x) id is a diagram word in the coend's one word
context `coend.word_env`, evaluated with no Kronecker product.

A defect operator is left multiplication by a cocharacter in the coend's
algebra L, and the defect fusion algebras are `hopf.Algebra` instances, so
`repcat.regular_module(a).validate()` and `repcat.radical_basis(a)` check
them.
"""

from itertools import accumulate, repeat

from .scalars import CycField, poly_squarefree
from .linalg import Matrix, rank, minimal_polynomial, columns_matrix
from .hopf import Algebra
from . import repcat, diagrams, coend as coend_mod
from .coend import word_env, COPAIRING_WORD
from .diagrams import word_matrix
from .repcat import (Morphism, trivial_module, tensor_obj, dual_obj,
                     simples_data, grothendieck_ring)
from .report import Report


class CardyError(Exception):
    pass


# ---------------------------------------------------------------------------
# field content

# The axioms of an L-action rho: W (x) L -> W, unit and associativity,
# each a pair of words that must agree
MODULE_WORDS = (("(id(W) * box(eta)) ; box(rho)", "id(W)"),
                ("(box(rho) * id(L)) ; box(rho)",
                 "(id(W) * box(mu)) ; box(rho)"))


class LModule:
    """An L-module in the category: an underlying module with an action
    morphism W (x) L -> W."""

    def __init__(self, module, action):
        self.module = module
        self.action = action  # Matrix (module.dim) x (module.dim * n)

    def is_module(self, cd):
        """Unit and associativity of the L-action, the words of
        MODULE_WORDS."""
        env = word_env(cd, {"W": self.module}, rho=(self.action, "W x L", "W"))
        return all(diagrams.words_agree(env, w) for w in MODULE_WORDS)


def boundary_field_content(m, n):
    """F_{I_{n,m}} = m* (x) n."""
    return tensor_obj(dual_obj(m), n)


def bulk_field_content(cd):
    """F_{S1_1} = L with the multiplication action."""
    return LModule(cd.carrier, cd.mu)


def disorder_field_content(cd, k):
    """F_{S1_k} = the free module k (x) L, with the action id_k (x) mu."""
    return LModule(tensor_obj(k, cd.carrier),
                   word_matrix(word_env(cd, {"K": k}), "id(K) * box(mu)"))


# ---------------------------------------------------------------------------
# boundary states and annulus amplitudes

def boundary_state(cd, x, direction):
    """Outgoing: the cocharacter of x; incoming: the character precomposed
    with the modular S-transformation."""
    if direction == "out":
        return coend_mod.cocharacter(cd, x)
    if direction == "in":
        chi, _ = coend_mod.characters(cd, x)
        return Morphism(cd.carrier, trivial_module(cd.h),
                        chi.matrix * cd.S_transform)
    raise CardyError("direction must be 'out' or 'in'")


def annulus_amplitude(cd, m, n):
    """Open channel: the cocharacter of m* (x) n."""
    return coend_mod.cocharacter(cd, tensor_obj(dual_obj(m), n))


def annulus_closed_channel(cd, m, n):
    amp = annulus_amplitude(cd, m, n)
    return Morphism(amp.dom, amp.cod, cd.S_transform * amp.matrix)


# ---------------------------------------------------------------------------
# torus partition function

def torus_partition(h, with_coend=None):
    """The Cartan matrix as the torus partition function in the character
    basis, with the composition-multiplicity certificate in the product
    category: [L : S_{U*} x S_V] = C_{UV}.  Over a split algebra
    [W : S] = dim eW for a primitive idempotent e with eS != 0, and e_U x e_V
    is one for S_U x S_V, so each multiplicity is the rank of e_U acting on
    the left factor of the carrier times e_V acting on the right one.
    Returns (cartan, report)."""
    rep = Report("torus partition function")
    sd = simples_data(h)
    cartan = [row[:] for row in sd.cartan]

    left, right = coend_mod.carrier_bimodule(h)
    f, n = h.field, h.dim
    ok = True
    # both factors are H-modules with commuting actions: the module axioms
    # on T.  Once validate() has shown both to be algebra maps, their images
    # commute when each right generator intertwines the left factor
    gens = repcat.generating_indices(h)
    if rep.add("carrier bimodule is a T-module",
               left.validate() and right.validate() and
               all(Morphism(left, left, columns_matrix(
                   f, n, n, right.action_colfn(k))).is_intertwiner(gens)
                   for k in gens)):
        dual_perm = sd.dual_permutation()
        lefts, rights = ([columns_matrix(f, n, n, m.act_colfn(e))
                          for e in sd.idempotents] for m in (left, right))
        mults = [[rank(a * b) for b in rights] for a in lefts]
        for u in range(sd.count):
            for v in range(sd.count):
                expect = cartan[u][v]
                got = mults[dual_perm[u]][v]
                if expect != got:
                    ok = False
                    rep.add("certificate (U=%d,V=%d)" % (u, v), False,
                            "multiplicity of S_{U*} x S_V = %d, Cartan = %d"
                            % (got, expect))
        rep.add("composition multiplicities equal the Cartan matrix", ok)
        total = sum(mults[u][v] * sd.simples[u].dim * sd.simples[v].dim
                    for u in range(sd.count) for v in range(sd.count))
        rep.add("dimension bookkeeping", total == h.dim)
    else:
        # without a module structure the multiplicities mean nothing
        for name in ("composition multiplicities equal the Cartan matrix",
                     "dimension bookkeeping"):
            rep.skip(name, "carrier is not a T-module")
    if with_coend is not None:
        # Cor_{T^2} as an element: the cocharacter of the coend carrier;
        # the integer certificate above is its character-basis content.
        cd = with_coend
        chk = coend_mod.cocharacter(cd, cd.carrier)
        rep.add("coend carrier cocharacter computed",
                not chk.matrix.is_zero() and
                chk.is_intertwiner(repcat.generating_indices(h)))
    if not ok:
        raise CardyError("torus certificate failed:\n%s" % rep)
    return cartan, rep


# ---------------------------------------------------------------------------
# defect operators

def defect_operator(cd, d_obj, check=True):
    """The matrix of O_D = mu (chk_D x id), left multiplication by the
    cocharacter in L; cross-checked against the Frobenius-side formula
    ((chi_D . S) x id) Delta_Lambda."""
    chk = coend_mod.cocharacter(cd, d_obj).matrix
    o = word_matrix(word_env(cd, chk=(chk, "1", "L")),
                    "(box(chk) * id(L)) ; box(mu)")
    if check:
        chi, _ = coend_mod.characters(cd, d_obj)
        env = word_env(cd, O=(o, "L", "L"),
                       dLam=(coend_mod.frobenius_coproduct(cd), "L", "L x L"),
                       chiS=(chi.matrix * cd.S_transform, "L", "1"))
        if o != word_matrix(env, "box(dLam) ; (box(chiS) * id(L))"):
            raise CardyError("the two defect-operator formulas disagree for %s"
                             % d_obj.name)
        # O_D commutes with left multiplication: O mu = mu (id x O)
        if not diagrams.words_agree(env, ("box(mu) ; box(O)",
                                          "(id(L) * box(O)) ; box(mu)")):
            raise CardyError("defect operator is not an L-module endomorphism")
    return o


def defect_algebra(cd):
    """span{O_S : S simple}: dimension, structure constants compared with
    the Grothendieck ring, and the semisimplicity correspondence.  Returns
    (the fusion algebra as an Algebra, report, the operator matrices in the
    order of the simples)."""
    h = cd.h
    f = cd.field
    rep = Report("defect operator algebra")
    sd = simples_data(h)
    ops = [defect_operator(cd, s) for s in sd.simples]
    m = len(ops)

    one_idx = sd.trivial_index()
    rep.add("O_1 = id", ops[one_idx] == Matrix.identity(f, h.dim))

    cols = [Matrix.column(f, op.data) for op in ops]
    stack = cols[0].hstack(*cols[1:])
    rep.add("span{O_S} has dimension = number of simples", rank(stack) == m)

    gr = grothendieck_ring(h)
    fuses = ok = True
    for i in range(m):
        for j in range(m):
            comp = ops[i] * ops[j]
            # composed defect label: S_i (x) S_j
            comp2 = defect_operator(cd, tensor_obj(sd.simples[i], sd.simples[j]),
                                    check=False)
            expect = Matrix.zeros(f, h.dim, h.dim)
            for k in range(m):
                c = f.from_rational(gr[i][j][k])
                if not c.is_zero():
                    expect = expect + ops[k].scale(c)
            fuses = fuses and comp == comp2
            ok = ok and comp == expect
    rep.add("O_E . O_D = O_{E x D} on all simple pairs", fuses)
    rep.add("structure constants match the Grothendieck ring", ok)
    if not ok:
        raise CardyError("defect algebra does not match the Grothendieck ring")

    # the Grothendieck ring as an algebra, with the trivial class as unit;
    # the regular-module check L_i L_j = sum_k N_ij^k L_k is associativity
    # on basis triples
    mult = [[{k: f.from_rational(c) for k, c in enumerate(gr[i][j]) if c}
             for j in range(m)] for i in range(m)]
    unit = Matrix.column(f, [f.one() if k == one_idx else f.zero()
                             for k in range(m)])
    fa = Algebra(f, m, [s.name for s in sd.simples], mult, unit,
                 "defect algebra of %s" % h.name)
    rep.add("associative", repcat.regular_module(fa).validate())
    rad_dim = len(repcat.radical_basis(fa))
    h_rad_dim = len(repcat.radical_basis(h))
    rep.add("semisimple iff the category is semisimple",
            (rad_dim == 0) == (h_rad_dim == 0),
            "defect radical dim %d, algebra radical dim %d" % (rad_dim, h_rad_dim))
    return fa, rep, ops


def defect_minimal_polynomial(cd, d_obj):
    """The minimal polynomial of O_D, low degree first.  L is unital, so it
    is that of the cocharacter chk_D in L, from its powers as vectors."""
    a = cd.algebra
    chk = coend_mod.cocharacter(cd, d_obj).matrix
    return minimal_polynomial(accumulate(repeat(chk), a.mul_vec,
                                         initial=a.unit))


def nondiagonalizable_defect(cd):
    """(O_D, its minimal polynomial) for a defect operator whose minimal
    polynomial has a repeated root, or None when all are semisimple
    operators."""
    sd = simples_data(cd.h)
    # projective covers can also act non-diagonalizably
    for d_obj in list(sd.simples) + list(sd.projectives):
        q = defect_minimal_polynomial(cd, d_obj)
        if len(poly_squarefree(q)) < len(q):
            return defect_operator(cd, d_obj, check=False), q
    return None


# ---------------------------------------------------------------------------
# symplectic fermion fusion algebra

SF_LABELS = ["1", "P1", "T", "PT"]


def sf_fusion_algebra(npairs):
    """The 4-dimensional fusion algebra of N pairs of symplectic fermions:
    [P1]^2 = [1], [P1][T] = [PT], [T][T] = [T][PT] = 2^{2N-1}([1] + [P1])."""
    if npairs < 1:
        raise ValueError("symplectic fermions need N >= 1 pairs, got %d"
                         % npairs)
    f = CycField(4)
    one, zero = f.one(), f.zero()
    c = f.from_rational(2 ** (2 * npairs - 1))
    I1, P1, T, PT = range(4)
    # 1 and P1 are group-like classes, and on these indices a product with
    # one of them is the index XOR: P1 T = PT, P1 PT = T
    mult = [[{i ^ j: one} if min(i, j) < T else {I1: c, P1: c}
             for j in range(4)] for i in range(4)]
    fa = Algebra(f, 4, SF_LABELS, mult, Matrix.column(f, [one, zero, zero, zero]),
                 "SF(%d)" % npairs)
    assert repcat.regular_module(fa).validate(), \
        "symplectic fermion algebra is not associative"
    # nilpotent: n = [T] - [PT], n^2 = 0
    nvec = fa.basis_vec(T) - fa.basis_vec(PT)
    assert fa.mul_vec(nvec, nvec).is_zero(), "([T]-[PT])^2 != 0"
    assert repcat.radical_basis(fa), "symplectic fermion algebra is semisimple?"
    return fa


# ---------------------------------------------------------------------------
# two-point correlators and the adjunction maps

def cardy_action(cd, x, xbar):
    """The canonical L-action on the bulk module W = X (x) Xbar: the
    comodule structure is id_X (x) delta_Xbar, so the action is the word
    id(X) * rho_Xbar (the second factor carries the mirrored braiding
    under the equivalence).  `coend._half_braiding_action` derives the
    same action from the half-braiding figure, independently."""
    w = tensor_obj(x, xbar)
    env = word_env(cd, {"X": x, "Xb": xbar}, rho=(
        coend_mod.canonical_action(cd, xbar).matrix, "Xb x L", "Xb"))
    return Morphism(tensor_obj(w, cd.carrier), w,
                    word_matrix(env, "id(X) * box(rho)"))


def delta_lambda_coaction(cd, rho):
    """delta^Lambda = (rho x id)(id x copairing): W -> W (x) L from an
    action rho: W (x) L -> W via the Radford copairing."""
    w = rho.cod
    env = word_env(cd, {"W": w}, rho=(rho.matrix, "W x L", "W"))
    return Morphism(w, tensor_obj(w, cd.carrier),
                    word_matrix(env, COPAIRING_WORD))


def adjunction_maps(cd, k):
    """(phi, psi, counit) for the free-module adjunction at the object k.

    phi(g) = rho_{YxYbar} . (g x id); psi(f) = D^{-1} (f x id) . delta^Lambda;
    counit(f) = (id_k x lambda) . f."""
    kl = tensor_obj(k, cd.carrier)

    def phi(g, rho_target):
        w = rho_target.cod
        env = word_env(cd, {"K": k, "W": w}, g=(g.matrix, "K", "W"),
                       rho=(rho_target.matrix, "W x L", "W"))
        return Morphism(kl, w, word_matrix(env, "(box(g) * id(L)) ; box(rho)"))

    def psi(f, rho_source):
        w = rho_source.cod
        env = word_env(cd, {"K": k, "W": w}, f=(f.matrix, "W", "K"),
                       rho=(rho_source.matrix, "W x L", "W"))
        m = word_matrix(env, COPAIRING_WORD + " ; (box(f) * id(L))")
        return Morphism(w, kl, m.promote(cd.D_field).scale(cd.D.inv()))

    def counit(f):
        env = word_env(cd, {"K": k, "V": f.dom}, f=(f.matrix, "V", "K x L"))
        # f may lie over the D-extension: the entries of the word do too
        m = word_matrix(env, "box(f) ; (id(K) * box(lam))")
        return Morphism(f.dom, k, m.promote(f.matrix.field))

    return phi, psi, counit


# The two paths of the bulk two-point pairing on X (x) Xbar -> Y (x) Ybar.
# A: rho_{YxYbar} (gf x id) delta^Lambda, the copairing word on X (x) Xbar.
# B: gf followed by the cutting endomorphism cut = b . a of
# Ybar (x) Xbar*, the Xbar* leg closed against the incoming Xbar
TWO_POINT_A_WORD = ("(id(X x Xb) * box(copair)) ; (box(rhox) * id(L)) ; "
                    "(box(gf) * id(L)) ; box(rhoy)")
TWO_POINT_WORD = ("(id(X) * coev(Xb) * id(Xb)) ; "
                  "(box(gf) * id(Xb.dual) * id(Xb)) ; "
                  "(id(Y) * box(cut) * id(Xb)) ; (id(Y) * id(Yb) * ev(Xb))")


def bulk_two_point(cd, f_mor, g_mor, x, xbar, y, ybar, k):
    """The two evaluation paths of the bulk two-point pairing.

    Path A: phi(g) . psi(f) through the adjunction maps, D^{-1} times the
    word TWO_POINT_A_WORD on the Cardy actions rhox and rhoy.
    Path B: the Psi-decomposition D . sum_a (left_a (x) right_a) through the
    cutting b . a = sum_a b_a a_a of Ybar (x) Xbar*, D times the word
    TWO_POINT_WORD.

    Returns (pathA, pathB, m); raises CardyError when they disagree."""
    m, a, b = coend_mod.cutting_decomposition(
        cd, tensor_obj(ybar, dual_obj(xbar)))
    env = word_env(
        cd, {"X": x, "Xb": xbar, "Y": y, "Yb": ybar},
        gf=(g_mor.matrix * f_mor.matrix, "X x Xb", "Y x Yb"),
        cut=(b * a, "Yb x Xb.dual", "Yb x Xb.dual"),
        rhox=(cardy_action(cd, x, xbar).matrix, "X x Xb x L", "X x Xb"),
        rhoy=(cardy_action(cd, y, ybar).matrix, "Y x Yb x L", "Y x Yb"))
    patha = word_matrix(env, TWO_POINT_A_WORD)
    patha = patha.promote(cd.D_field).scale(cd.D.inv())
    pathb = word_matrix(env, TWO_POINT_WORD)
    pathb = pathb.promote(cd.D_field).scale(cd.D)

    if patha != pathb:
        raise CardyError("bulk two-point paths disagree")
    return patha, pathb, m

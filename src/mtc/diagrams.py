"""A textual string-diagram language for morphisms in the module category:
parser, typechecker, and the one evaluator.

Grammar (whitespace-insensitive):
    term   := factor {';' factor}          ';' reads bottom-to-top: f;g = g.f
    factor := atom {'*' atom}              '*' is the monoidal product
    atom   := gen '(' args ')' | '(' term ')'
    obj    := IDENT | obj '.dual' | obj 'x' obj | '(' obj ')'

Generators: id, ev, coev, evt, coevt, br, brinv, tw, twinv, box.
Object expressions are compared structurally up to tensor flattening; duals
of composites stay as-is (the canonical identifications are explicit boxes).
"""

from math import prod

from .linalg import Matrix, _matrix_colfn, columns_matrix
from . import repcat


class DiagramError(Exception):
    def __init__(self, msg, pos=None):
        if pos is not None:
            msg = "%s (line %d, column %d)" % (msg, pos[0], pos[1])
        super().__init__(msg)
        self.pos = pos


class DiagramTypeError(DiagramError):
    pass


# -- AST --------------------------------------------------------------------

class Node:
    pass


class Gen(Node):
    def __init__(self, kind, args, pos=None):
        self.kind = kind
        self.args = args
        self.pos = pos

    def __repr__(self):
        return "%s(%s)" % (self.kind, ", ".join(map(str, self.args)))


class Compose(Node):
    def __init__(self, parts):
        self.parts = parts

    def __repr__(self):
        return " ; ".join(map(repr, self.parts))


class Tensor(Node):
    def __init__(self, parts):
        self.parts = parts

    def __repr__(self):
        return " * ".join("(%r)" % p for p in self.parts)


# object expressions: normalized form is a tuple of atoms;
# atom = ("name", str) | ("dual", normalized-tuple)

def obj_name(expr):
    out = []
    for a in expr:
        if a[0] == "name":
            out.append(a[1])
        else:
            inner = obj_name(a[1])
            out.append("(%s).dual" % inner if len(a[1]) != 1 else "%s.dual" % inner)
    return " x ".join(out) if out else "1"


def obj_dual(expr):
    return (("dual", expr),)


# -- tokenizer / parser -----------------------------------------------------

GENERATORS = {"id": 1, "ev": 1, "coev": 1, "evt": 1, "coevt": 1,
              "br": 2, "brinv": 2, "tw": 1, "twinv": 1, "box": 1}


class _Tok:
    def __init__(self, kind, val, pos):
        self.kind = kind
        self.val = val
        self.pos = pos


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in "();*,":
            toks.append(_Tok(c, c, (line, col)))
            i += 1
            col += 1
            continue
        if c == "." and text[i:i + 5] == ".dual":
            toks.append(_Tok("dual", ".dual", (line, col)))
            i += 5
            col += 5
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "x" if word == "x" else "ident"
            toks.append(_Tok(kind, word, (line, col)))
            col += j - i
            i = j
            continue
        raise DiagramError("unexpected character %r" % c, (line, col))
    toks.append(_Tok("eof", "", (line, col)))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise DiagramError("expected %r, found %r" % (kind, t.val or "end of input"), t.pos)
        self.i += 1
        return t

    # term := factor {';' factor}
    def term(self):
        parts = [self.factor()]
        while self.peek().kind == ";":
            self.take()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Compose(parts)

    # factor := atom {'*' atom}
    def factor(self):
        parts = [self.atom()]
        while self.peek().kind == "*":
            self.take()
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else Tensor(parts)

    def atom(self):
        t = self.peek()
        if t.kind == "(":
            self.take()
            inner = self.term()
            self.take(")")
            return inner
        if t.kind == "ident" and t.val in GENERATORS:
            self.take()
            self.take("(")
            args = []
            if t.val == "box":
                name = self.take("ident")
                args.append(name.val)
            else:
                args.append(self.obj())
                while self.peek().kind == ",":
                    self.take()
                    args.append(self.obj())
            self.take(")")
            nargs = GENERATORS[t.val]
            if t.val != "box" and len(args) != nargs:
                raise DiagramError("%s expects %d object argument(s), got %d"
                                   % (t.val, nargs, len(args)), t.pos)
            return Gen(t.val, args, t.pos)
        raise DiagramError("expected a generator or '('", t.pos)

    # obj := objatom {'x' objatom}; objatom := (IDENT | '(' obj ')') {'.dual'}
    def obj(self):
        parts = [self.objatom()]
        while self.peek().kind == "x":
            self.take()
            parts.append(self.objatom())
        out = ()
        for p in parts:
            out = out + p
        return out

    def objatom(self):
        t = self.peek()
        if t.kind == "(":
            self.take()
            inner = self.obj()
            self.take(")")
            expr = inner
        elif t.kind == "ident":
            self.take()
            expr = (("name", t.val),)
        else:
            raise DiagramError("expected an object expression", t.pos)
        while self.peek().kind == "dual":
            self.take()
            expr = obj_dual(expr)
        return expr


_PARSED = {}  # text -> AST; the ASTs are never mutated


def parse(text):
    """Parse a diagram expression; raises DiagramError with line/column on
    syntax errors.  Each text is parsed once: the library evaluates the same
    constant words many times."""
    ast = _PARSED.get(text)
    if ast is None:
        p = _Parser(_tokenize(text))
        ast = p.term()
        if p.peek().kind != "eof":
            t = p.peek()
            raise DiagramError("unexpected %r after expression" % t.val, t.pos)
        _PARSED[text] = ast
    return ast


# -- environment ------------------------------------------------------------

class Env:
    """Named objects (ModuleObjects) and boxes (column functions with
    declared object expressions)."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.objects = {}
        self.boxes = {}
        self._module_cache = {}

    def bind_object(self, name, module):
        self.objects[name] = module
        return self

    def bind_box(self, name, box, dom_expr, cod_expr):
        """A box given by a Matrix, or by a column function
        col_index -> [(row, Scalar)] for morphisms too large to
        materialize."""
        colfn = _matrix_colfn(box) if isinstance(box, Matrix) else box
        self.boxes[name] = (colfn, dom_expr, cod_expr)
        return self

    def dim_of(self, expr):
        """Dimension of an object expression, without materializing tensor
        products."""
        d = 1
        for atom in expr:
            if atom[0] == "name":
                if atom[1] not in self.objects:
                    raise DiagramTypeError("unbound object %r" % atom[1])
                d *= self.objects[atom[1]].dim
            else:
                d *= self.dim_of(atom[1])
        return d

    def module_of(self, expr):
        """Materialize an object expression as a ModuleObject."""
        if expr in self._module_cache:
            return self._module_cache[expr]
        if len(expr) == 0:
            m = repcat.trivial_module(self.algebra)
        elif len(expr) == 1:
            kind, payload = expr[0]
            if kind == "name":
                if payload not in self.objects:
                    raise DiagramTypeError("unbound object %r" % payload)
                m = self.objects[payload]
            else:
                m = repcat.dual_obj(self.module_of(payload))
        else:
            m = self.module_of(expr[:1])
            for k in range(1, len(expr)):
                m = repcat.tensor_obj(m, self.module_of(expr[k:k + 1]))
        self._module_cache[expr] = m
        return m


def _gen_types(gen, env):
    k = gen.kind
    if k == "box":
        name = gen.args[0]
        if name not in env.boxes:
            raise DiagramTypeError("unbound box %r" % name, gen.pos)
        _, dom, cod = env.boxes[name]
        return dom, cod
    a = gen.args[0]
    if k == "id":
        return a, a
    if k == "ev":
        return obj_dual(a) + a, ()
    if k == "coev":
        return (), a + obj_dual(a)
    if k == "evt":
        return a + obj_dual(a), ()
    if k == "coevt":
        return (), obj_dual(a) + a
    if k in ("tw", "twinv"):
        return a, a
    b = gen.args[1]
    if k == "br":
        return a + b, b + a
    if k == "brinv":
        return b + a, a + b
    raise AssertionError(k)


def _layers(ast, env):
    """Normalize into (layers, dom_expr, cod_expr); each layer is a list of
    tensored (gen, dom_expr, cod_expr).  Raises DiagramTypeError on an
    unbound name or at a ';' junction whose types do not match."""
    if isinstance(ast, Gen):
        d, c = _gen_types(ast, env)
        env.dim_of(d)  # resolve names
        env.dim_of(c)
        return [[(ast, d, c)]], d, c
    if isinstance(ast, Compose):
        out, dom, cod = _layers(ast.parts[0], env)
        for p in ast.parts[1:]:
            ls, d, c = _layers(p, env)
            if d != cod:
                raise DiagramTypeError(
                    "composition mismatch: previous codomain %s, next domain %s"
                    % (obj_name(cod), obj_name(d)),
                    getattr(p, "pos", None) if isinstance(p, Gen) else None)
            out.extend(ls)
            cod = c
        return out, dom, cod
    if isinstance(ast, Tensor):
        blocks = [_layers(p, env) for p in ast.parts]
        depth = max(len(b[0]) for b in blocks)
        for ls, d, c in blocks:
            while len(ls) < depth:
                ls.append([(Gen("id", [c]), c, c)])
        out = []
        for k in range(depth):
            layer = []
            for ls, d, c in blocks:
                layer.extend(ls[k])
            out.append(layer)
        dom = ()
        cod = ()
        for ls, d, c in blocks:
            dom += d
            cod += c
        return out, dom, cod
    raise AssertionError(type(ast))


def typecheck(ast, env):
    """Domain and codomain object expressions; raises DiagramTypeError at
    the offending junction or on unresolved object names."""
    _, dom, cod = _layers(ast, env)
    return dom, cod


# -- evaluation -------------------------------------------------------------
#
# The one evaluator: a word is normalized into layers of tensored
# generators and applied column by column to sparse vectors, one generator
# at a time, so the dense matrix of a composite word is never built.  id,
# ev, coev and box read only dimensions.  tw, twinv, evt, coevt, br and
# brinv read only the action columns of their object argument's module,
# which for a product (tw(X x Y), br(X x Y, Z)) Env.module_of builds with
# tensor_obj from the factors' columns, with no dense matrix.  A dual of a
# product, (X x Y).dual, still densifies through dual_obj; no library word
# has one.

def _gen_colfn(gen, env):
    """(dom_dim, cod_dim, colfn|None); the generators that act through
    their object argument read its module from env.module_of."""
    h = env.algebra
    f = h.field
    k = gen.kind
    if k == "box":
        colfn, d_expr, c_expr = env.boxes[gen.args[0]]
        return env.dim_of(d_expr), env.dim_of(c_expr), colfn
    d = env.dim_of(gen.args[0])
    if k == "id":
        return d, d, None
    if k == "ev":
        def ev_col(j):
            a, b = divmod(j, d)
            return [(0, f.one())] if a == b else []
        return d * d, 1, ev_col
    if k == "coev":
        def coev_col(j):
            assert j == 0
            return [(a * d + a, f.one()) for a in range(d)]
        return 1, d * d, coev_col
    x = env.module_of(gen.args[0])
    if k in ("tw", "twinv"):
        return d, d, x.act_colfn(h.ribbon_inv() if k == "tw" else h.ribbon)
    if k == "evt":
        # v (x) xi -> xi(g v): column b * d + a is the entry g[a, b]
        g = x.act_colfn(h.pivot())
        cols = {b * d + a: [(0, v)] for b in range(d) for a, v in g(b)}
        return d * d, 1, lambda j: cols.get(j, [])
    if k == "coevt":
        ginv = x.act_colfn(h.pivot_inv())
        col = [(i * d + j, v) for i in range(d) for j, v in ginv(i)]
        def coevt_col(j):
            assert j == 0
            return col
        return 1, d * d, coevt_col
    if h.rmatrix is None:
        raise DiagramTypeError("%s needs an R-matrix; %s has none"
                               % (k, h.name), gen.pos)
    y = env.module_of(gen.args[1])
    dxy = d * y.dim
    if k == "br":
        # beta_{X,Y}: x (x) y -> sum R2 y (x) R1 x
        return dxy, dxy, repcat.tensor_action_colfn(h.rmatrix, x, y, True)
    # beta_{X,Y}^{-1}: y (x) x -> sum R1' x (x) R2' y over the terms of
    # R^{-1} = (S (x) id)(R), the flip followed by the action on X (x) Y
    act = repcat.tensor_action_colfn(h.r_inverse(), x, y)
    return dxy, dxy, lambda p: act((p % d) * y.dim + p // d)


def evaluate_applied(ast, env, columns):
    """Apply the diagram word to sparse column vectors.

    `columns` is a list of dicts {flat domain index: Scalar}; returns the
    transformed list (flat codomain indices) plus the codomain dimension."""
    layers, _, cod = _layers(ast, env)
    atom_cache = {}

    def atom_data(gen, d_expr, c_expr):
        key = (gen.kind,) + (tuple(gen.args) if gen.kind == "box" else
                             (tuple(d_expr), tuple(c_expr)))
        got = atom_cache.get(key)
        if got is None:
            got = _gen_colfn(gen, env)
            atom_cache[key] = got
        return got

    # f (x) g = (id (x) g)(f (x) id): a layer is applied one atom at a time
    # from the left, each a step on the flat index pre * sub * post, and an
    # identity atom is no step.  Left first multiplies the coefficients in
    # the order of the atoms, as one product per term would.
    cur = columns
    for layer in layers:
        atoms = [atom_data(g, d, c) for g, d, c in layer]
        for k, (din, dout, colfn) in enumerate(atoms):
            if colfn is not None:
                post = prod(a[0] for a in atoms[k + 1:])
                cur = [_step(col, colfn, din, dout, post) for col in cur]
    return cur, env.dim_of(cod)


def _step(col, colfn, din, dout, post):
    """The sparse column `col` under id_pre (x) f (x) id_post, where f is
    the din -> dout map of `colfn`."""
    out = {}
    for flat, val in col.items():
        top, q = divmod(flat, post)
        p, sub = divmod(top, din)
        base = p * dout
        for row, w in colfn(sub):
            pos = (base + row) * post + q
            v = val * w
            out[pos] = out[pos] + v if pos in out else v
    return {p: v for p, v in out.items() if any(v.num)}


# -- dense view -------------------------------------------------------------

def identity_columns(field, dim):
    one = field.one()
    return [{i: one} for i in range(dim)]


def apply_word(env, word, cols):
    """Evaluate a diagram word on sparse columns; returns the dense result
    matrix (cod_dim x len(cols))."""
    out, cod_dim = evaluate_applied(parse(word), env, cols)
    return columns_matrix(env.algebra.field, cod_dim, len(out),
                          lambda j: out[j].items())


def word_matrix(env, word):
    """The matrix of a word: its values on the basis columns of its
    domain."""
    dom, _ = typecheck(parse(word), env)
    return apply_word(env, word,
                      identity_columns(env.algebra.field, env.dim_of(dom)))


# the domain columns that first_disagreement evaluates at once: this bounds
# the memory of a check on a large domain, and a failure ends it early
BLOCK = 256


def first_disagreement(env, words):
    """The first basis column of the common domain on which the words,
    which must share one type, do not all evaluate to the same sparse
    column, as the tuple of its indices in the domain's tensor factors;
    None when the words agree."""
    asts = [parse(w) for w in words]
    types = [typecheck(a, env) for a in asts]
    if any(t != types[0] for t in types[1:]):
        raise DiagramTypeError("the words %r do not share one type" % (words,))
    dom = types[0][0]
    dim = env.dim_of(dom)
    one = env.algebra.field.one()
    for start in range(0, dim, BLOCK):
        cols = [{j: one} for j in range(start, min(start + BLOCK, dim))]
        first, _ = evaluate_applied(asts[0], env, cols)
        bad = len(cols)
        for a in asts[1:]:
            got, _ = evaluate_applied(a, env, cols)
            bad = next((j for j in range(bad) if got[j] != first[j]), bad)
        if bad < len(cols):
            bad += start
            at = []
            for atom in reversed(dom):
                bad, k = divmod(bad, env.dim_of((atom,)))
                at.append(k)
            return tuple(reversed(at))
    return None


def words_agree(env, words):
    """True when all the words, which must share one type, evaluate to the
    same matrix on the basis columns of their domain."""
    return first_disagreement(env, words) is None

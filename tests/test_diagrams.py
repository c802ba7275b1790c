import random
import time

import pytest

from mtc import cli, coend, diagrams, hopf, repcat
from mtc.linalg import Matrix, _step
from mtc.diagrams import (parse, typecheck, evaluate_applied, apply_word,
                          identity_columns, words_agree, Env, Gen, Compose,
                          Tensor, DiagramError, DiagramTypeError, obj_name)
from oracles import (dense_word_oracle, evaluate_applied_oracle,
                     matmul_oracle, word_matrix_on, dense_action,
                     iota_matrix_oracle, count_columns_matrix, step_oracle)


@pytest.fixture(scope="module")
def env(dz2_ribbon):
    sd = repcat.simples_data(dz2_ribbon)
    e = Env(dz2_ribbon)
    e.bind_object("X", sd.simples[0])
    e.bind_object("Y", sd.simples[1])
    e.bind_object("H", repcat.regular_module(dz2_ribbon))
    return e


@pytest.fixture(scope="module")
def env3(dz3, dz3_simples):
    """D(Z/3) with X, Y two simples that are not self-dual and whose
    monodromy is nontrivial, and H the regular module."""
    sd = dz3_simples
    perm = sd.dual_permutation()
    odd = [s for i, s in enumerate(sd.simples) if perm[i] != i]
    eye = Matrix.identity(dz3.field, 1)
    x, y = next((x, y) for x in odd for y in odd
                if word_matrix_on(dz3, "br(X, Y) ; br(Y, X)", X=x, Y=y)
                != eye)
    e = Env(dz3)
    e.bind_object("X", x)
    e.bind_object("Y", y)
    e.bind_object("H", repcat.regular_module(dz3))
    return e


def word_matrix(env, word):
    dom, _ = typecheck(parse(word), env)
    return apply_word(env, word, identity_columns(env.algebra.field,
                                                  env.dim_of(dom)))


def test_parse_shapes():
    ast = parse("id(X)")
    assert isinstance(ast, Gen) and ast.kind == "id"
    ast = parse("coev(X) ; ev(X)")
    assert isinstance(ast, Compose) and len(ast.parts) == 2
    assert ast.parts[0].kind == "coev" and ast.parts[1].kind == "ev"
    ast = parse("(id(X) * coev(X)) ; (ev(X) * id(X))")
    assert isinstance(ast, Compose)
    assert all(isinstance(p, Tensor) for p in ast.parts)


def test_parse_objects():
    ast = parse("ev(X.dual x (Y x Z).dual)")
    dom, = [ast.args[0]]
    assert obj_name(dom) == "X.dual x (Y x Z).dual"


def test_parse_errors_located():
    with pytest.raises(DiagramError) as err:
        parse("id(X) ;; id(X)")
    assert err.value.pos is not None
    with pytest.raises(DiagramError):
        parse("frob(X)")
    with pytest.raises(DiagramError):
        parse("br(X)")  # arity


def test_each_text_is_parsed_once(monkeypatch):
    from mtc import diagrams
    tokenized = []
    tokenize = diagrams._tokenize

    def counting(text):
        tokenized.append(text)
        return tokenize(text)
    monkeypatch.setattr(diagrams, "_tokenize", counting)
    word = "(tw(X) * id(Y)) ; br(X, Y)"
    assert parse(word) is parse(word)
    assert tokenized.count(word) <= 1
    for _ in range(2):  # a syntax error is never cached
        with pytest.raises(DiagramError):
            parse("id(X) ;; tw(X)")
    assert tokenized.count("id(X) ;; tw(X)") == 2


def test_typecheck(env):
    dom, cod = typecheck(parse("(coev(X) * id(X)) ; (id(X) * ev(X))"), env)
    assert obj_name(dom) == "X" and obj_name(cod) == "X"
    with pytest.raises(DiagramTypeError):
        typecheck(parse("ev(X) ; ev(X)"), env)
    # omega-style word types as (X* x X) x (Y* x Y) -> 1
    w = ("(id(X.dual) * br(X, Y.dual) * id(Y)) ; "
         "(id(X.dual) * br(Y.dual, X) * id(Y)) ; (ev(X) * ev(Y))")
    dom, cod = typecheck(parse(w), env)
    assert obj_name(dom) == "X.dual x X x Y.dual x Y"
    assert obj_name(cod) == "1"
    with pytest.raises(DiagramTypeError):
        typecheck(parse("id(Z)"), env)  # unbound object


def test_evaluator_rejects_a_bad_junction(env, dz2_ribbon):
    # ev(H) ends in the unit object, which id(H) cannot take
    cols = identity_columns(dz2_ribbon.field, 16)
    with pytest.raises(DiagramTypeError, match="composition mismatch"):
        evaluate_applied(parse("ev(H) ; id(H)"), env, cols)


def test_evaluate_snake_and_braids(env, dz2_ribbon):
    f = dz2_ribbon.field
    x = env.objects["X"]
    m = word_matrix(env, "(coev(X) * id(X)) ; (id(X) * ev(X))")
    assert m == Matrix.identity(f, x.dim)
    m = word_matrix(env, "br(X, Y) ; brinv(X, Y)")
    assert m == Matrix.identity(f, 1)
    # double braiding with twists equals the twist of the product
    assert words_agree(env, ("(tw(X) * tw(Y)) ; br(X, Y) ; br(Y, X)",
                             "tw(X x Y)"))
    m = word_matrix(env, "tw(X) ; twinv(X)")
    assert m == Matrix.identity(f, x.dim)


def test_box_binding(env, dz2_ribbon):
    sd = repcat.simples_data(dz2_ribbon)
    x = sd.simples[0]
    fm = repcat.hom_basis(x, x)[0]
    env.bind_box("endo", fm.matrix, (("name", "X"),), (("name", "X"),))
    m = word_matrix(env, "box(endo) ; box(endo)")
    assert m == fm.matrix * fm.matrix
    with pytest.raises(DiagramTypeError):
        typecheck(parse("box(nope)"), env)


def test_interchange_law(env, dz2_ribbon):
    # (f;g)*(h;k) = (f*h);(g*k) whenever typed
    assert words_agree(env, ("(tw(X) ; twinv(X)) * (tw(Y) ; tw(Y))",
                             "(tw(X) * tw(Y)) ; (twinv(X) * tw(Y))"))


def test_applied_matches_dense(env3, dz3):
    """Every generator, on simples of D(Z/3) that are not self-dual, on
    its regular module and on products and a dual of a product of them,
    against the dense composition of the oracle's own modules."""
    g = dense_action(repcat.regular_module(dz3))[1]
    env3.bind_box("g", g, (("name", "H"),), (("name", "H"),))
    words = [
        "(coev(X) * id(X)) ; (id(X) * ev(X))",
        "(id(X) * coevt(X)) ; (evt(X) * id(X))",
        "ev(X.dual) * evt(Y.dual)",
        "coev(Y) * coevt(X.dual)",
        "br(X, Y)",
        "brinv(X, Y)",
        "br(X x Y, H) ; (brinv(X, H) * id(Y))",
        "tw(X) * twinv(Y)",
        "(tw(H) ; box(g)) * (id(X) ; twinv(X))",
        "(id(X.dual) * br(X, Y.dual) * id(Y)) ; "
        "(id(X.dual) * br(Y.dual, X) * id(Y)) ; (ev(X) * ev(Y))",
        "(coevt(H) * id(H.dual)) ; (id(H.dual) * evt(H))",
        "(coev(H) * box(g)) ; (id(H) * ev(H))",
        # each generator that reads its object, on a product argument; the
        # factors of H x H both have dimension > 1, so that an error in the
        # order of the product's indices shows
        "tw(X x Y)",
        "twinv(X x H)",
        "evt(X x Y)",
        "coevt(Y x X.dual)",
        "br(X, Y x H)",
        "brinv(X x Y, H)",
        "tw(X x Y x H)",
        "tw((X x Y).dual)",
        "twinv(H x H)",
    ]
    for w in words:
        assert word_matrix(env3, w) == \
            dense_word_oracle(parse(w), env3, {"g": g}), w


def test_product_arguments_build_no_dense_action(env3, monkeypatch):
    """tw and br on a product argument read the product's action columns
    from its factors': the only dense views built are the two words'
    own matrices."""
    env = Env(env3.algebra)
    for name, x in env3.objects.items():
        env.bind_object(name, x)
    calls = count_columns_matrix(monkeypatch)
    word_matrix(env, "tw(X x Y)")
    word_matrix(env, "br(X x Y, H)")
    dxy = env.dim_of(typecheck(parse("id(X x Y)"), env)[0])
    dh = env.objects["H"].dim
    assert calls == [(dxy, dxy), (dxy * dh, dxy * dh)]


def test_word_check_can_fail(env3):
    # the monodromy of X and Y is not the identity on D(Z/3)
    assert not words_agree(env3, ("br(X, Y) ; br(Y, X)", "id(X x Y)"))
    assert words_agree(env3, ("br(X, Y) ; brinv(X, Y)", "id(X x Y)"))
    with pytest.raises(DiagramTypeError, match="share one type"):
        words_agree(env3, ("br(X, Y)", "id(X x Y)"))


def test_structural_relations_via_words(env, dz2_ribbon):
    """All conventions relations as evaluated identities on the bound
    objects."""
    for xn in ["X", "Y", "H"]:
        assert words_agree(env, (
            "(coev(%s) * id(%s)) ; (id(%s) * ev(%s))" % ((xn,) * 4),
            "id(%s)" % xn))
        assert words_agree(env, (
            "(id(%s.dual) * coev(%s)) ; (ev(%s) * id(%s.dual))" % ((xn,) * 4),
            "id(%s.dual)" % xn))


def _table_words(table):
    """Every word of a word table, with the words of its checks at 1."""
    for _, words, at_one in table:
        yield from words
        if at_one is not None:
            yield from at_one[1]


def _matches_layer_loop(env, word, cols=None):
    """The word on `cols`, or on every basis column of its domain, gives
    the same sparse columns one generator at a time as by the layer loop."""
    ast = parse(word)
    if cols is None:
        dom, _ = typecheck(ast, env)
        cols = identity_columns(env.algebra.field, env.dim_of(dom))
    return evaluate_applied(ast, env, cols) == \
        evaluate_applied_oracle(ast, env, cols)


@pytest.mark.parametrize("name, tables", [
    ("dz3", [hopf.HOPF_AXIOMS, hopf.QUASITRIANGULAR_AXIOMS]),
    ("dsw", [hopf.HOPF_AXIOMS, hopf.QUASITRIANGULAR_AXIOMS]),
])
def test_hopf_tables_match_layer_loop(name, tables, request):
    h = request.getfixturevalue(name)
    env = hopf._structure_env(h)
    for table in tables:
        for w in _table_words(table):
            assert _matches_layer_loop(env, w), w


def test_coend_words_match_layer_loop(dz3, dz3_coend, dz3_simples):
    """D(Z/3): the coend's Hopf table on L, the defining words of
    STRUCTURE on the regular module, a sum of two simples and on pairs of
    them, and the hexagon and twist words of `verify`."""
    cd = dz3_coend
    env = coend.word_env(cd)
    for w in _table_words(coend.HOPF_AXIOMS):
        assert _matches_layer_loop(env, w), w
    reg = repcat.regular_module(dz3)
    s = dz3_simples.simples
    two = repcat.direct_sum(s[1], s[2])
    for x in (reg, two):
        env = coend._object_env(cd, x)
        for e in coend.STRUCTURE:
            if e.word is not None and len(e.dom) == 1:
                assert _matches_layer_loop(env, e.word), (e.check, x.name)
    for x, y in ((reg, s[1]), (two, s[2]), (s[2], two)):
        env = coend._pair_env(cd, x, y)
        for e in coend.STRUCTURE:
            if e.word is not None and len(e.dom) == 2:
                assert _matches_layer_loop(env, e.word), \
                    (e.check, x.name, y.name)
    for x, y, z in ((s[1], two, reg), (two, s[2], s[1]), (reg, two, two)):
        env = Env(dz3).bind_object("X", x).bind_object("Y", y)
        env.bind_object("Z", z)
        for w in cli.HEXAGON_WORDS + cli.TWIST_WORDS:
            assert _matches_layer_loop(env, w), (w, x.name, y.name, z.name)


def test_step_on_the_column_list_matches_each_column(dz3, dz3_coend,
                                                     monkeypatch):
    """D(Z/3): on every step of H's Hopf and quasitriangular tables and of
    the coend's Hopf table, the list form of `_step` gives what the step
    of one column at a time gave."""
    steps = []

    def checked(cols, colfn, din, dout, post):
        got = _step(cols, colfn, din, dout, post)
        assert got == [step_oracle(c, colfn, din, dout, post) for c in cols]
        steps.append(len(cols))
        return got
    monkeypatch.setattr(diagrams, "_step", checked)
    tables = [(hopf._structure_env(dz3), hopf.HOPF_AXIOMS),
              (hopf._structure_env(dz3), hopf.QUASITRIANGULAR_AXIOMS),
              (coend.word_env(dz3_coend), coend.HOPF_AXIOMS)]
    for env, table in tables:
        for w in _table_words(table):
            word_matrix(env, w)
    assert len(steps) > 100 and max(steps) > 1


@pytest.mark.slow
def test_product_and_evaluator_match_oracles_slow():
    """D(Taft_3) (dim 81): each HOPF_AXIOMS word on 2000 seeded basis
    columns of its domain, one generator at a time against the layer loop,
    and products of its regular and iota_H matrices, square, wide and
    tall, against the triple loop.  Budget: 60 s with the double's
    construction."""
    start = time.perf_counter()
    h = hopf.builtin("double_taft", [3])
    env = hopf._structure_env(h)
    rng = random.Random(0)
    for w in _table_words(hopf.HOPF_AXIOMS):
        dom, _ = typecheck(parse(w), env)
        dim = env.dim_of(dom)
        one = h.field.one()
        cols = [{rng.randrange(dim): one} for _ in range(2000)]
        assert _matches_layer_loop(env, w, cols), w
    reg = repcat.regular_module(h)
    iota = iota_matrix_oracle(reg)
    g, k = (dense_action(reg)[rng.randrange(h.dim)] for _ in range(2))
    for a, b in ((g, k), (g, iota), (iota.transpose(), g),
                 (iota, iota.transpose())):
        assert a * b == matmul_oracle(a, b)
    assert time.perf_counter() - start < 60

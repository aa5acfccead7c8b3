import pytest

import symq

from reference import psl27


@pytest.fixture(scope="session")
def z3():
    return symq.cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return symq.cyclic_group(4)


@pytest.fixture(scope="session")
def z5():
    return symq.cyclic_group(5)


@pytest.fixture(scope="session")
def klein():
    return symq.direct_product([symq.cyclic_group(2), symq.cyclic_group(2)])


@pytest.fixture(scope="session")
def d3():
    return symq.dihedral_group(3)


@pytest.fixture(scope="session")
def r3(z3):
    return symq.galex(z3, symq.inversion_automorphism(z3))


@pytest.fixture(scope="session")
def r4(z4):
    return symq.galex(z4, symq.inversion_automorphism(z4))


@pytest.fixture(scope="session")
def doubling_aut(z5):
    """x -> 2x on Z/5, the standard non-kei example."""
    return symq.validate_automorphism(z5, [0, 2, 4, 1, 3])


@pytest.fixture(scope="session")
def q5(z5, doubling_aut):
    return symq.galex(z5, doubling_aut)


@pytest.fixture(scope="session")
def small_family():
    """Catalog family up to order 8, reused by oracle-equality tests."""
    return symq.catalog_family(8)


@pytest.fixture(scope="session")
def a5_connected_keis():
    """(automorphism, quandle) of every connected kei built on A5.

    In `enumerate_automorphisms` order.  Each has four fixed self-inverse
    elements, so these are the entries where the theorem route does more
    than count one class.
    """
    g = symq.alternating_group(5)
    entries = []
    for phi in symq.enumerate_automorphisms(g):
        q = symq.galex(g, phi)
        if symq.is_kei(q) and symq.is_connected(q):
            entries.append((phi, q))
    return entries


@pytest.fixture(scope="session")
def psl27_automorphisms():
    """The 336 automorphisms of `reference.psl27`'s table, in search order."""
    return symq.enumerate_automorphisms(psl27())

import pytest

from dercat import quiver as qv


@pytest.fixture(scope="session")
def a1():
    return qv.Quiver(1, ())


@pytest.fixture(scope="session")
def a2():
    return qv.Quiver(2, ((0, 1),))


@pytest.fixture(scope="session")
def a3():
    return qv.Quiver(3, ((0, 1), (1, 2)))


@pytest.fixture(scope="session")
def a4():
    return qv.Quiver(4, ((0, 1), (1, 2), (2, 3)))


@pytest.fixture(scope="session")
def d4():
    return qv.Quiver(4, ((0, 3), (1, 3), (2, 3)))


@pytest.fixture(scope="session")
def d5():
    return qv.Quiver(5, ((0, 4), (1, 4), (4, 2), (2, 3)))


@pytest.fixture(scope="session")
def d5_alt():
    return qv.Quiver(5, ((0, 1), (2, 1), (2, 3), (2, 4)))


@pytest.fixture(scope="session")
def e6_alt():
    return qv.parse_quiver("vertices 6\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\narrow 3 6\n")

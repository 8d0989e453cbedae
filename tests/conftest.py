import pathlib

import pytest

from optiform import serialize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    kind, obj = serialize.load_path(str(FIXTURES / name))
    return obj


@pytest.fixture
def fuzzy_chain():
    return load("fuzzy_chain.scsp.json")


@pytest.fixture
def fuzzy_flat():
    return load("fuzzy_flat.scsp.json")


@pytest.fixture
def weighted_pair():
    return load("weighted_pair.scsp.json")


@pytest.fixture
def weighted_mixed():
    return load("weighted_mixed.scsp.json")


@pytest.fixture
def classical_unsat():
    return load("classical_unsat.scsp.json")


@pytest.fixture
def cyclic4():
    return load("cyclic4.cpnet.json")


@pytest.fixture
def acyclic4():
    return load("acyclic4.cpnet.json")


@pytest.fixture
def cyclic2():
    return load("cyclic2.cpnet.json")


@pytest.fixture
def redundant3():
    return load("redundant3.cpnet.json")


@pytest.fixture
def pd_pp():
    return load("pd.ppgame.json")


@pytest.fixture
def pd_payoff():
    return load("pd.payoffgame.json")


@pytest.fixture
def cycle3():
    return load("cycle3.graph.json")


@pytest.fixture
def diamond():
    return load("diamond.graph.json")

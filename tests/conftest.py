from functools import lru_cache

import pytest

from gqtvc.geometry import get_construction, point_graph

geometry = get_construction


@lru_cache(maxsize=None)
def graph_of(name: str, dual: bool = False):
    return point_graph(geometry(name, dual))


@pytest.fixture
def w2_graph():
    return graph_of("w2")


@pytest.fixture
def q5_2_graph():
    return graph_of("q5_2")


@pytest.fixture
def gq53_graph():
    return graph_of("t2star", dual=True)

import random

import pytest

from loopinv._rat import Q
from loopinv.linalg import index_word, word_index
from loopinv.tensor import TensorElement


@pytest.fixture
def rng():
    return random.Random(12345)


def random_element(rng, d=2, max_level=4, terms=5) -> TensorElement:
    """Small random element with rational coefficients, possibly zero."""
    data = []
    for _ in range(rng.randint(0, terms)):
        level = rng.randint(0, max_level)
        word = tuple(rng.randint(1, d) for _ in range(level))
        data.append((word, Q(rng.randint(-4, 4), rng.randint(1, 3))))
    return TensorElement(d, data)


def random_homogeneous(rng, d, n, terms=4) -> TensorElement:
    data = []
    for _ in range(rng.randint(1, terms)):
        word = tuple(rng.randint(1, d) for _ in range(n))
        data.append((word, Q(rng.randint(-4, 4), rng.randint(1, 3))))
    return TensorElement(d, data)


def tensor_row(x: TensorElement, n) -> dict:
    """Raw row ``{word index: coefficient}`` of an element of level n."""
    assert x.is_homogeneous(n)
    return {word_index(w.letters, x.d): c for w, c in x.items()}


def row_tensor(d, n, row) -> TensorElement:
    """The element of level n with coefficient ``row[k]`` on word index k."""
    return TensorElement(d, {index_word(k, d, n): c for k, c in row.items()})

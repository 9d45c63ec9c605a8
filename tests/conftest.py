import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import phl
from phl.poset import catalog
from phl.randgen import random_poset

# Child interpreters that tests start import the same phl as this process,
# also when pytest found it through its own pythonpath setting.
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (str(Path(phl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")) if path
)


def clear_count_tables():
    """Empty lovasz's table of per-class data: induced copies and
    strict-count profiles."""
    from phl import lovasz

    lovasz._class_data.cache_clear()


@pytest.fixture(autouse=True)
def empty_count_tables():
    """Every test starts and ends with empty strict-count tables, so a test
    that asserts a cold fill does not depend on test order, and counts a
    test patched reach no later test."""
    clear_count_tables()
    yield
    clear_count_tables()


@pytest.fixture
def c2():
    return catalog("C", 2)


@pytest.fixture
def c3():
    return catalog("C", 3)


@pytest.fixture
def n_poset():
    return catalog("N")


@pytest.fixture
def w_poset():
    return catalog("W")


@pytest.fixture
def crown():
    return catalog("N2")


@pytest.fixture
def v3():
    return catalog("V", 3)


@pytest.fixture
def lambda3():
    return catalog("Lambda", 3)


def catalog_zoo():
    """Every catalog poset used anywhere in the suite."""
    zoo = [catalog("A", k) for k in range(1, 5)]
    zoo += [catalog("C", k) for k in range(1, 5)]
    zoo += [catalog("V", k) for k in (3, 4)]
    zoo += [catalog("Lambda", k) for k in (3, 4)]
    zoo += [catalog(name) for name in ("N", "W", "N2")]
    return zoo


@st.composite
def posets(draw, max_size: int = 5):
    """Random poset via seeded edge sampling, shrinkable through the seed."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    return random_poset(random.Random(seed), n, density)


@st.composite
def nonempty_posets(draw, max_size: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    return random_poset(random.Random(seed), n, density)

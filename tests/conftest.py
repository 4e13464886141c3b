import random

import pytest

from finitetop import FiniteSpace, Preorder, all_topologies, topology_from_poset


def space_of(points, *open_label_sets):
    """Build a space from explicit opens given as label iterables."""
    points = tuple(points)
    full = (1 << len(points)) - 1
    opens = {0, full}
    for labs in open_label_sets:
        m = 0
        for lab in labs:
            m |= 1 << points.index(lab)
        opens.add(m)
    return FiniteSpace.from_opens(points, opens)


def indiscrete_space(points):
    """The space whose only opens are the empty set and the carrier: every kernel is the carrier."""
    return FiniteSpace(points, [(1 << len(points)) - 1] * len(points))


@pytest.fixture(scope="session")
def divisors():
    order = Preorder.from_pairs(
        ("1", "2", "3", "6"), [("1", "2"), ("1", "3"), ("2", "6"), ("3", "6")]
    )
    return topology_from_poset(order)


@pytest.fixture(scope="session")
def sierpinski():
    return space_of(("0", "1"), ["1"])


@pytest.fixture(scope="session")
def small_spaces():
    """Every topology on carriers of up to 3 points."""
    out = []
    for n in range(4):
        out.extend(all_topologies(n))
    return out


@pytest.fixture(scope="session")
def spaces_up_to_4():
    out = []
    for n in range(5):
        out.extend(all_topologies(n))
    return out


@pytest.fixture(scope="session")
def spaces_on_5():
    """All 6942 topologies on five points."""
    return all_topologies(5)


@pytest.fixture(scope="session")
def five_point_sample(spaces_on_5):
    """A fixed seeded sample of the five-point topologies."""
    return random.Random(5).sample(spaces_on_5, 100)

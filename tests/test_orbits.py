import itertools

import pytest

from qpverify import orbits, rootsys

TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


def derived_good_count(rs):
    """Closed-form count re-derived from root data, not hard-coded."""
    if rs.series == "A":
        return 2 ** rs.rank - 1
    ones = rootsys.coefficient_one_nodes(rs)
    k = len(ones)
    return k + k * (k - 1) // 2  # T of size 1 or 2 inside the coefficient-1 nodes


@pytest.mark.parametrize("series,rank", TYPES)
def test_good_orbit_counts(series, rank):
    rs = rootsys.build_root_system(series, rank)
    got = len(orbits.enumerate_good_orbits(rs))
    assert got == derived_good_count(rs)


def test_good_orbit_count_table():
    # the classical table the derivation reproduces
    table = {
        ("A", 6): 63, ("B", 3): 1, ("C", 4): 1, ("D", 4): 6,
        ("E", 6): 3, ("E", 7): 1, ("E", 8): 0, ("F", 4): 0, ("G", 2): 0,
    }
    for (series, rank), want in table.items():
        rs = rootsys.build_root_system(series, rank)
        assert len(orbits.enumerate_good_orbits(rs)) == want


def test_classify_examples():
    rsA2 = rootsys.build_root_system("A", 2)
    d = orbits.classify_levi(rsA2, {1})
    assert d.good and d.orbit_rank == 1 and d.T == {2}

    rsB2 = rootsys.build_root_system("B", 2)
    d = orbits.classify_levi(rsB2, {2})
    assert d.good and d.hermitian_symmetric and d.T == {1}
    # node 2 enters the highest root with coefficient 2
    assert not orbits.classify_levi(rsB2, {1}).hermitian_symmetric

    rsG2 = rootsys.build_root_system("G", 2)
    for S in (set(), {1}, {2}):
        assert not orbits.classify_levi(rsG2, S).good


def test_classify_rejects_full_set():
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(ValueError):
        orbits.classify_levi(rs, {1, 2})


def test_good_depends_only_on_T():
    rs = rootsys.build_root_system("D", 4)
    for size in range(4):
        for S in itertools.combinations(range(1, 5), size):
            a = orbits.classify_levi(rs, S)
            b = orbits.classify_levi(rs, frozenset(S))
            assert a.good == b.good and a.T == b.T


def test_orbit_rank():
    rs = rootsys.build_root_system("A", 3)
    for size in range(3):
        for S in itertools.combinations(range(1, 4), size):
            d = orbits.classify_levi(rs, S)
            assert d.orbit_rank == rs.rank - len(S)


def test_hermitian_levi_of_d4():
    # end-node Levi of the rank-4 even orthogonal algebra
    rs = rootsys.build_root_system("D", 4)
    lev = orbits.classify_levi(rs, {2, 3, 4})
    assert lev.good and lev.hermitian_symmetric


def test_enumeration_deterministic():
    rs = rootsys.build_root_system("D", 4)
    a = orbits.enumerate_good_orbits(rs)
    b = orbits.enumerate_good_orbits(rs)
    assert [d.S for d in a] == [d.S for d in b]

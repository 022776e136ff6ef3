import pytest

from qpverify import rootsys

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


def reflection_closure(series, rank):
    """Independent oracle: close the simple roots under all simple reflections.

    s_i(b) = b - <b, a_i^vee> a_i, iterated to a fixed point; the positive
    roots are the orbit elements with nonnegative coefficients.
    """
    cartan = rootsys.cartan_matrix(series, rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    orbit = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
                img = tuple(
                    b - (pairing if j == i else 0) for j, b in enumerate(beta)
                )
                if img not in orbit:
                    new.add(img)
        orbit |= new
        frontier = new
    return {b for b in orbit if all(c >= 0 for c in b)}


CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_matches_reflection_oracle(series, rank):
    rs = rootsys.build_root_system(series, rank)
    assert set(rs.positive_roots) == reflection_closure(series, rank)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_positive_root_count(series, rank):
    rs = rootsys.build_root_system(series, rank)
    assert len(rs.positive_roots) == CLASSICAL_COUNTS[series](rank)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_cartan_matrix_shape(series, rank):
    a = rootsys.cartan_matrix(series, rank)
    for i in range(rank):
        assert a[i][i] == 2
        for j in range(rank):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_highest_root_dominates(series, rank):
    rs = rootsys.build_root_system(series, rank)
    for beta in rs.positive_roots:
        assert all(h >= b for h, b in zip(rs.highest_root, beta))


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_closure_property(series, rank):
    # every positive root of height > 1 is (simple root) + (positive root)
    rs = rootsys.build_root_system(series, rank)
    roots = set(rs.positive_roots)
    for beta in rs.positive_roots:
        if sum(beta) == 1:
            continue
        assert any(
            tuple(b - (1 if j == i else 0) for j, b in enumerate(beta)) in roots
            for i in range(rank)
        )


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_weyl_vector_doubling_cross_check(series, rank):
    # sum of positive roots agrees between the two construction routes
    rs = rootsys.build_root_system(series, rank)
    total = [0] * rank
    for beta in rs.positive_roots:
        for j, b in enumerate(beta):
            total[j] += b
    oracle_total = [0] * rank
    for beta in reflection_closure(series, rank):
        for j, b in enumerate(beta):
            oracle_total[j] += b
    assert total == oracle_total
    # 2*rho pairs to 2 against every simple coroot
    assert all(rs.pairing(tuple(total), i) == 2 for i in range(rank))


def test_examples_small_types():
    rs = rootsys.build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.highest_root == (1,)

    rs = rootsys.build_root_system("A", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.highest_root == (1, 1)

    rs = rootsys.build_root_system("G", 2)
    assert len(rs.positive_roots) == 6
    assert rs.highest_root == (3, 2)


def test_coefficient_one_nodes():
    assert rootsys.coefficient_one_nodes(rootsys.build_root_system("A", 3)) == {1, 2, 3}
    assert rootsys.coefficient_one_nodes(rootsys.build_root_system("B", 2)) == {1}
    assert rootsys.coefficient_one_nodes(rootsys.build_root_system("G", 2)) == frozenset()
    # no coefficient-1 node at all for E8, F4, G2; all nodes for A series
    for series, rank in (("E", 8), ("F", 4), ("G", 2)):
        assert not rootsys.coefficient_one_nodes(rootsys.build_root_system(series, rank))
    for rank in range(1, 7):
        rs = rootsys.build_root_system("A", rank)
        assert rootsys.coefficient_one_nodes(rs) == set(range(1, rank + 1))


def test_deterministic_construction():
    a = rootsys.build_root_system("F", 4)
    b = rootsys.build_root_system("F", 4)
    assert a == b
    assert a.positive_roots == b.positive_roots


@pytest.mark.parametrize("series,rank", [("A", 0), ("B", 1), ("D", 3), ("E", 9), ("F", 3), ("G", 4), ("H", 2)])
def test_invalid_types_rejected(series, rank):
    with pytest.raises(rootsys.InvalidTypeError):
        rootsys.build_root_system(series, rank)


def test_parse_type_string():
    assert rootsys.parse_type_string("A2") == ("A", 2)
    assert rootsys.parse_type_string("g2") == ("G", 2)
    assert rootsys.parse_type_string("d10") == ("D", 10)
    for bad in ("X2", "A", "2A", "Aa", "B1"):
        with pytest.raises(rootsys.InvalidTypeError):
            rootsys.parse_type_string(bad)

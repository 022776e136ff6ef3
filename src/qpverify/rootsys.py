"""Root systems of the simple Lie types, in the simple-root basis.

Roots are integer coefficient vectors over the simple roots.  The stored
Cartan matrix has entries ``A[i][j] = 2(a_i, a_j)/(a_j, a_j)``, so the
pairing of a root ``b`` with the j-th coroot is the dot product of ``b``
with column ``j``.  Simple roots are numbered in the Bourbaki order; for
the B series the last simple root is short, for the C series it is long.
"""

from collections import namedtuple


class InvalidTypeError(ValueError):
    """Raised for (series, rank) pairs that do not name a simple type."""


_VALID = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def cartan_matrix(series, rank):
    """Cartan matrix of a simple type as a tuple of int tuples."""
    if series not in _VALID or not _VALID[series](rank):
        raise InvalidTypeError(f"{series}{rank} is not a simple type")
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def chain(i, j):
        a[i][j] = a[j][i] = -1

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            chain(i, i + 1)
        if series == "B" and rank >= 2:
            a[rank - 2][rank - 1] = -2  # last root short
        if series == "C" and rank >= 2:
            a[rank - 1][rank - 2] = -2  # last root long
    elif series == "D":
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 3, rank - 1)
    elif series == "E":
        # nodes 1-3-4-5-6(-7)(-8) with 2 attached to 4 (Bourbaki)
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if rank >= 7:
            edges.append((6, 7))
        if rank == 8:
            edges.append((7, 8))
        for i, j in edges:
            chain(i - 1, j - 1)
    elif series == "F":
        for i, j in ((1, 2), (2, 3), (3, 4)):
            chain(i - 1, j - 1)
        a[1][2] = -2  # roots 3, 4 short
    elif series == "G":
        a[0][1] = -1
        a[1][0] = -3  # first root short
    return tuple(tuple(r) for r in a)


class RootSystem(
    namedtuple("RootSystem", "series rank cartan_matrix positive_roots highest_root")
):
    __slots__ = ()

    def pairing(self, beta, i):
        """Pairing of the root ``beta`` with the i-th coroot (0-based)."""
        return sum(beta[j] * self.cartan_matrix[j][i] for j in range(self.rank))

    def __str__(self):
        return f"{self.series}{self.rank}"


def _string_closure(cartan, rank):
    """All positive roots by the root-string closure from the simple roots.

    Starting from the simple roots, extend along simple-root strings: with
    p the number of steps the string continues below ``b``, the string
    continues above iff ``p - <b, a_i^vee> > 0``.
    """
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
                p = 0
                gamma = tuple(
                    b - (1 if j == i else 0) for j, b in enumerate(beta)
                )
                while gamma in roots:
                    p += 1
                    gamma = tuple(
                        g - (1 if j == i else 0) for j, g in enumerate(gamma)
                    )
                if p - pairing >= 1:
                    new = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
                    if new not in roots:
                        roots.add(new)
                        nxt.append(new)
        layer = sorted(set(nxt))
    return roots


def build_root_system(series, rank):
    """Construct the complete root system of a simple type."""
    series = series.upper()
    cartan = cartan_matrix(series, rank)
    roots = _string_closure(cartan, rank)
    ordered = tuple(sorted(roots, key=lambda b: (sum(b), b)))
    highest = ordered[-1]
    for beta in ordered:
        if any(h < b for h, b in zip(highest, beta)):
            raise AssertionError(
                f"highest root of {series}{rank} does not dominate {beta}"
            )
    return RootSystem(series, rank, cartan, ordered, highest)


def coefficient_one_nodes(rs):
    """1-based indices of simple roots entering the highest root with coefficient 1."""
    return frozenset(i + 1 for i, c in enumerate(rs.highest_root) if c == 1)


def parse_type_string(text):
    """Parse strings like ``"A2"`` or ``"g2"`` into ``(series, rank)``."""
    text = text.strip()
    if len(text) < 2 or not text[0].isalpha():
        raise InvalidTypeError(f"cannot parse type {text!r}")
    series = text[0].upper()
    try:
        rank = int(text[1:])
    except ValueError as exc:
        raise InvalidTypeError(f"cannot parse type {text!r}") from exc
    if series not in _VALID or not _VALID[series](rank):
        raise InvalidTypeError(f"{text!r} is not a simple type")
    return series, rank

"""Sparse exact tensor algebra over a Lie algebra.

Tensors live in the k-fold tensor power of the algebra and are stored as
sparse maps from basis-index tuples to rationals.  A plain tensor stores
every key; an alternating one stores one strictly ascending key per index
orbit and is expanded only on demand.  The wedge embedding carries no
prefactor, ``x ^ y = x (x) y - y (x) x``.  The adjoint action works on
the stored keys of either class.
"""

import itertools
from fractions import Fraction

from . import termops

SYMMETRIES = ("plain", "alternating")

# cyb(r) equals this multiple of the Schouten square [[r, r]]; fixed once
# from the rank-1 computation and enforced for every algebra (regression
# tested).
CYB_FROM_SCHOUTEN = Fraction(1, 2)


def _sort_sign(key):
    """Sort an index tuple, returning (sign, sorted) or (0, None) on repeats."""
    k = list(key)
    sign = 1
    for i in range(1, len(k)):
        j = i
        while j > 0 and k[j] < k[j - 1]:
            k[j], k[j - 1] = k[j - 1], k[j]
            sign = -sign
            j -= 1
    for i in range(1, len(k)):
        if k[i] == k[i - 1]:
            return 0, None
    return sign, tuple(k)


class MultiTensor:
    """Element of the k-fold tensor power with a declared symmetry class."""

    __slots__ = ("algebra", "degree", "symmetry", "terms")

    def __init__(self, algebra, degree, terms, symmetry="plain"):
        if symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {symmetry!r}")
        self.algebra = algebra
        self.degree = degree
        self.symmetry = symmetry
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def zero(cls, algebra, degree, symmetry="plain"):
        return cls(algebra, degree, {}, symmetry)

    def plain_items(self):
        """Iterate ``(index-tuple, coefficient)`` over the full expansion."""
        if self.symmetry == "plain":
            yield from self.terms.items()
            return
        for key, c in self.terms.items():
            for perm in itertools.permutations(key):
                sign, _ = _sort_sign(perm)
                yield perm, (c if sign > 0 else -c)

    def plain_dict(self):
        return dict(self.plain_items())

    def to_plain(self):
        return MultiTensor(self.algebra, self.degree, self.plain_dict(), "plain")

    def is_zero(self):
        return not self.terms

    def scale(self, c):
        terms = termops.pscale(self.terms, Fraction(c))
        return MultiTensor(self.algebra, self.degree, terms, self.symmetry)

    def add(self, other):
        self._check_compatible(other)
        terms = termops.padd(self.terms, other.terms)
        return MultiTensor(self.algebra, self.degree, terms, self.symmetry)

    def _check_compatible(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("tensors over different algebras")
        if self.degree != other.degree or self.symmetry != other.symmetry:
            raise ValueError("degree/symmetry mismatch")

    def __eq__(self, other):
        if not isinstance(other, MultiTensor):
            return NotImplemented
        if self.algebra is not other.algebra or self.degree != other.degree:
            return False
        return self.plain_dict() == other.plain_dict()

    def __hash__(self):
        raise TypeError("MultiTensor is unhashable")

    def __repr__(self):
        return (
            f"MultiTensor(deg={self.degree}, {self.symmetry}, "
            f"{len(self.terms)} canonical terms)"
        )


def ad_action(x, tensor):
    """Diagonal adjoint action of the basis element ``x``, leg by leg.

    It acts on the stored keys: an alternating image is re-sorted with its
    sign and dropped when an index repeats, a plain image is kept as it is.
    """
    alg = tensor.algebra
    alternating = tensor.symmetry == "alternating"
    out = {}
    for key, c in tensor.terms.items():
        for leg, i in enumerate(key):
            for m, cm in alg.bracket(x, i).items():
                image = key[:leg] + (m,) + key[leg + 1 :]
                sign = 1
                if alternating:
                    sign, image = _sort_sign(image)
                if sign:
                    termops.siadd(out, image, c * cm if sign > 0 else -c * cm)
    return MultiTensor(alg, tensor.degree, out, tensor.symmetry)


def is_invariant(tensor):
    """True iff the diagonal adjoint action of every basis element vanishes."""
    return all(
        ad_action(i, tensor).is_zero() for i in range(tensor.algebra.dim)
    )


def algebraic_schouten(a, b):
    """Schouten bracket on the exterior algebra of the Lie algebra.

    The biderivation extension of the bracket, normalized so that on
    degree-1 elements it is the Lie bracket.  Degree-0 operands bracket
    to zero.
    """
    alg = a.algebra
    if alg is not b.algebra:
        raise ValueError("tensors over different algebras")
    if a.symmetry != "alternating" or b.symmetry != "alternating":
        raise ValueError("Schouten bracket requires alternating tensors")
    p, q = a.degree, b.degree
    if p == 0 or q == 0:
        return MultiTensor.zero(alg, max(p + q - 1, 0), "alternating")
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            for r in range(p):
                rest_a = ka[:r] + ka[r + 1 :]
                for s in range(q):
                    rest_b = kb[:s] + kb[s + 1 :]
                    sgn_rs = -1 if (r + s) & 1 else 1
                    br = alg.bracket(ka[r], kb[s])
                    if not br:
                        continue
                    base = ca * cb * sgn_rs
                    for m, cm in br.items():
                        sign, key = _sort_sign((m,) + rest_a + rest_b)
                        if sign:
                            termops.siadd(out, key, base * cm * sign)
    return MultiTensor(alg, p + q - 1, out, "alternating")


def cyb(r):
    """Classical Yang-Baxter trinomial [r12,r13] + [r12,r23] + [r13,r23].

    Returns a plain 3-tensor; the ``cybe`` suite compares it with
    ``CYB_FROM_SCHOUTEN`` times the Schouten square.
    """
    alg = r.algebra
    if r.degree != 2 or r.symmetry != "alternating":
        raise ValueError("cyb expects an alternating 2-tensor")
    out = {}
    items = list(r.plain_items())
    for (u, v), c1 in items:
        for (x, y), c2 in items:
            c = c1 * c2
            for m, cm in alg.bracket(u, x).items():  # [r12, r13]
                termops.siadd(out, (m, v, y), c * cm)
            for m, cm in alg.bracket(v, x).items():  # [r12, r23]
                termops.siadd(out, (u, m, y), c * cm)
            for m, cm in alg.bracket(v, y).items():  # [r13, r23]
                termops.siadd(out, (u, x, m), c * cm)
    return MultiTensor(alg, 3, out, "plain")


def cobracket(r, x):
    """Cocommutator [r, x (x) 1 + 1 (x) x] as an alternating 2-tensor.

    It is minus the diagonal adjoint action of ``x`` on ``r``.
    """
    if r.symmetry != "alternating" or r.degree != 2:
        raise ValueError("cobracket expects an alternating 2-tensor")
    return ad_action(x, r).scale(-1)


def co_jacobi_defect(deltas, x):
    """Cyclic sum of (delta (x) id) . delta at ``x``, as a plain 3-tensor.

    ``deltas[u]`` is the cocommutator of the basis element ``u``.
    """
    out = {}
    for (u, v), c in deltas[x].plain_items():
        for (a, b), cd in deltas[u].plain_items():
            for key in ((a, b, v), (v, a, b), (b, v, a)):
                termops.siadd(out, key, c * cd)
    return MultiTensor(deltas[x].algebra, 3, out, "plain")


def co_jacobi_check(r):
    """True iff the cocommutator of ``r`` satisfies the co-Jacobi identity."""
    deltas = [cobracket(r, x) for x in range(r.algebra.dim)]
    return all(co_jacobi_defect(deltas, x).is_zero() for x in range(len(deltas)))

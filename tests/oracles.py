"""Helpers that only the tests use.

``tensor_of`` and ``wedge_of`` build tensors from their definitions, as
references for the package's tensor algebra; ``entry_field`` applies one
entry-field image table of ``grouppois`` to a polynomial.
"""

import itertools
from fractions import Fraction

from qpverify import grouppois, multivec, termops


def tensor_of(algebra, *elements):
    """Plain tensor product of element coefficient dicts."""
    terms = {(): Fraction(1)}
    for el in elements:
        # distinct (key, i) give distinct keys, so nothing accumulates
        terms = {key + (i,): c * ci for key, c in terms.items() for i, ci in el.items() if ci}
    return multivec.MultiTensor(algebra, len(elements), terms, "plain")


def wedge_of(algebra, *elements):
    """Wedge of element dicts under the prefactor-free embedding."""
    k = len(elements)
    plain = {}
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        sgn = -1 if inv & 1 else 1
        termops.piadd(plain, tensor_of(algebra, *(elements[p] for p in perm)).terms, sgn)
    return multivec.MultiTensor.from_plain(algebra, k, plain, "alternating")


def entry_field(L, x, side, p):
    """Entry field of basis element ``x`` on ``side`` applied to the polynomial ``p``."""
    return termops.apply_derivation(grouppois._field_images(L, x, side), p)

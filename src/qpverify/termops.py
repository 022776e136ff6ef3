"""Sparse exact term-algebra kernels, in pure Python.

Every sum in the package is a zero-free sparse combination: a dict from
hashable keys to nonzero ``Fraction`` coefficients, where a sum that
cancels deletes its key.  Polynomials, polyvector fields, sparse
matrices (``(row, col)`` keys), tensors (basis-index tuples), Lie
algebra elements (basis indices) and rewriting words all use it.
Outside the inner loops of this module's kernels, every sum goes
through four kernels: ``siadd`` (``acc[key] += c``), ``piadd``
(``acc += c*b``), ``padd`` (``a + c*b``) and ``pscale`` (``c*a``).  A
scale of 1 or -1 costs no multiply.

Two key shapes carry the bracket computations:

* polynomial: exponent tuples, one slot per coordinate (``unit_exp``
  builds the coordinate monomials);
* polyvector: ``(exponents, derivations)``, where ``derivations`` is a
  strictly ascending tuple of coordinate indices.  A key
  ``(e, (i, j))`` stands for the term ``y^e * d/dy_i ^ d/dy_j``.

The polyvector encoding is the usual odd-variable picture: derivations are
anticommuting symbols listed in ascending order, so every product carries
the sign of the interleaving permutation.  The polyvector fields of
``polyfield`` and ``quantize`` and the entry-ring brackets of
``grouppois`` are such dicts, with no wrapper: a homogeneous field's
degree is the length of any key's derivation tuple, which is where
``sn_bracket(a, b)`` reads the degree of ``a``.

The Schouten kernels ``sn_bracket``, ``smul`` and ``wedge_push`` take and
return these tuple-keyed ``Fraction`` dicts, but run on packed keys: a
monomial is one int with a fixed-width field per exponent, wide enough
for every exponent the call can produce; a derivation set is an int
bitmask, and coefficients are int numerators over one denominator per
operand.  Each packs its inputs once and unpacks its result at its
boundary, so callers, ``suites._equal_terms`` (which sorts tuple keys)
and printed witnesses see exponent tuples only.  Only an exponent past
64 bits raises ``ResourceLimitError``.  ``monomial_codec`` gives the same
monomial fields to one more packed user, the Hochschild scan of
``quantize``: it sums its coboundaries on packed monomials with int
numerators over Hamiltonian rows, and decodes only a failing one.

Biderivations have one evaluator, ``table_bracket``: a bivector term dict
is first turned into a generator table by ``bivector_table``.
Derivations given by their coordinate images have one evaluator,
``apply_derivation``; fixing the first argument of a biderivation gives
such a derivation (its Hamiltonian field, whose images ``table_row``
builds in one pass over the table), and ``table_bracket`` applies the
row of its first argument to its second.  So a row of brackets
``{f, g}`` with one ``f`` costs one image table and one
``apply_derivation`` per ``g``.  Vector fields are stored the same way,
as coordinate images, and an action is given by its image function
``images(i)``: ``wedge_push`` pushes a tensor through its fields and
``lie_derivative`` differentiates along one, for the coadjoint action
and for conjugation alike.  ``kveval`` and
``bivector_eval`` are reference evaluators for tests and tracing only;
so is ``ptruncate``, since no kernel truncates by degree.

Kernels call one another through this module's globals, so a wrapper
set on a module attribute sees every call, from inside or outside.
``BACKEND`` and ``backends()`` name the single backend for reports
that record it.
"""

import itertools
import math
import struct
import sys
from fractions import Fraction

BACKEND = "pure"

_ONE = Fraction(1)


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a size cap.

    The caps are the solver sizes of ``polyfield`` and ``quantize`` and
    the exponent width of the packed polyvector kernels here.
    """


def backends():
    """Return the available backends as a name -> module mapping."""
    return {BACKEND: sys.modules[__name__]}


# ---------------------------------------------------------------------------
# zero-free sparse combinations


def siadd(acc, key, c):
    """In-place ``acc[key] += c``."""
    s = acc.get(key)
    if s is None:
        if c:
            acc[key] = c
    else:
        s = s + c
        if s:
            acc[key] = s
        else:
            del acc[key]


def pscale(a, c):
    """``c*a`` as a new dict."""
    if not c:
        return {}
    if c == 1:
        return dict(a)
    if c == -1:
        return {k: -v for k, v in a.items()}
    return {k: v * c for k, v in a.items()}


def piadd(acc, b, c):
    """In-place ``acc += c*b``."""
    if not c:
        return
    if c != 1:
        b = pscale(b, c)
    for k, v in b.items():
        s = acc.get(k)
        if s is None:
            acc[k] = v
        else:
            s = s + v
            if s:
                acc[k] = s
            else:
                del acc[k]


def padd(a, b, c=1):
    """``a + c*b`` as a new dict."""
    out = dict(a)
    piadd(out, b, c)
    return out


# ---------------------------------------------------------------------------
# polynomial kernels


def unit_exp(nvars, i):
    """Exponent tuple of the coordinate monomial ``y_i``."""
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def pmul(a, b):
    """Product of two polynomials."""
    if not a or not b:
        return {}
    out = {}
    bitems = list(b.items())
    for ka, ca in a.items():
        for kb, cb in bitems:
            k = tuple(x + y for x, y in zip(ka, kb))
            c = ca * cb
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def pderive(a, i):
    """Partial derivative of a polynomial along coordinate ``i``.

    Lowering one exponent maps distinct monomials to distinct monomials,
    so no two terms meet and no coefficient cancels.
    """
    return {k[:i] + (k[i] - 1,) + k[i + 1 :]: c * k[i] for k, c in a.items() if k[i]}


def ptruncate(a, degree):
    """Drop monomials of total degree above ``degree``."""
    return {k: c for k, c in a.items() if sum(k) <= degree}


def apply_derivation(images, p):
    """Derivation given by its coordinate images, applied to a polynomial.

    ``images`` maps a coordinate index ``v`` to the image of ``y_v``; the
    result is ``sum_v dp/dv * images[v]``.
    """
    out = {}
    for v, img in images.items():
        dv = pderive(p, v)
        if dv:
            piadd(out, pmul(dv, img), _ONE)
    return out


# ---------------------------------------------------------------------------
# polyvector kernels, on packed keys
#
# Inside ``smul``, ``wedge_push`` and ``sn_bracket`` a term ``(e, d)`` over
# ``nvars`` coordinates is one int key, ``mono << nvars | mask``.  Bit ``i``
# of ``mask`` stands for ``d/dy_i``; ``mono`` holds the exponents in
# fields of 8, 16, 32 or 64 bits, coordinate 0 in the top field, so its
# big-endian bytes are the exponent tuple.  Each call picks the narrowest
# width that holds the largest exponent its result can reach, so no field
# carries.  Two terms with disjoint masks multiply by adding their keys.
# An operand packs to int numerators over one common denominator, and a
# result is divided by its denominator once, when it is unpacked.


_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # field bits -> struct code


def _codec(nvars, top):
    """``(struct, field bits)`` of the narrowest fields that hold exponent ``top``."""
    for bits, code in _FIELD_CODES.items():
        if not top >> bits:
            return struct.Struct(f">{nvars}{code}"), bits
    raise ResourceLimitError(f"exponent {top} does not fit a 64-bit packed field")


def monomial_codec(nvars, top):
    """``(pack, unpack)`` between exponent tuples and packed monomial ints.

    ``pack(e)`` is the monomial part of a packed polyvector key, with
    fields that hold exponent ``top``; while every exponent stays at most
    ``top``, the product of two monomials is the sum of their ints.
    ``unpack`` inverts ``pack``.
    """
    codec, _ = _codec(nvars, top)
    pack, unpack, size = codec.pack, codec.unpack, codec.size

    def pack_mono(e):
        return int.from_bytes(pack(*e), "big")

    def unpack_mono(key):
        return unpack(key.to_bytes(size, "big"))

    return pack_mono, unpack_mono


def _top(terms):
    """The largest exponent in a polyvector term dict."""
    return max(itertools.chain.from_iterable(e for e, _ in terms), default=0)


def _pack(terms, nvars, codec):
    """Packed form ``(numerators, den)`` of a polyvector term dict.

    ``numerators`` maps packed keys to int numerators over the common
    denominator ``den``.
    """
    pack = codec.pack
    den = math.lcm(*{c.denominator for c in terms.values()})
    masks = {}
    out = {}
    for (e, d), c in terms.items():
        mask = masks.get(d)
        if mask is None:
            mask = masks[d] = sum(1 << i for i in d)
        key = int.from_bytes(pack(*e), "big") << nvars | mask
        out[key] = c.numerator * (den // c.denominator)
    return out, den


def _unpack(numerators, den, nvars, codec):
    """Tuple-keyed ``Fraction`` term dict of packed numerators over ``den``."""
    low = (1 << nvars) - 1
    unpack, size = codec.unpack, codec.size
    ders = {}  # mask -> ascending derivation tuple
    out = {}
    for key, c in numerators.items():
        if not c:
            continue
        mask = key & low
        d = ders.get(mask)
        if d is None:
            d = ders[mask] = _mask_indices(mask)
        out[(unpack((key >> nvars).to_bytes(size, "big")), d)] = Fraction(c, den)
    return out


def _mask_indices(mask):
    """Ascending tuple of the set bit positions of ``mask``."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


def _by_mask(numerators, nvars):
    """Nonzero packed terms as ``{mask: [(key, numerator), ...]}``."""
    low = (1 << nvars) - 1
    groups = {}
    for key, c in numerators.items():
        if c:
            groups.setdefault(key & low, []).append((key, c))
    return groups


def _merge_sign(m1, m2):
    """Sign that sorts the derivations of ``m1`` followed by those of ``m2``.

    It is the parity of the crossed pairs, bits ``i`` of ``m1`` above bits
    ``j`` of ``m2``; the masks must be disjoint.
    """
    crossed = 0
    while m2:
        bit = m2 & -m2
        m2 ^= bit
        crossed += (m1 & -(bit << 1)).bit_count()
    return -1 if crossed & 1 else 1


def _wedge_into(acc, sign, left, right):
    """In-place ``acc += sign * left ^ right`` on operands grouped by mask."""
    get = acc.get
    for m1, lterms in left.items():
        for m2, rterms in right.items():
            if m1 & m2:
                continue
            s = sign * _merge_sign(m1, m2)
            for k1, c1 in lterms:
                if s < 0:
                    c1 = -c1
                for k2, c2 in rterms:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2


def smul(a, b):
    """Wedge (super) product of two polyvector term dicts."""
    if not a or not b:
        return {}
    nvars = len(next(iter(a))[0])
    codec, _ = _codec(nvars, _top(a) + _top(b))
    pa, da = _pack(a, nvars, codec)
    pb, db = _pack(b, nvars, codec)
    acc = {}
    _wedge_into(acc, 1, _by_mask(pa, nvars), _by_mask(pb, nvars))
    return _unpack(acc, da * db, nvars, codec)


def wedge_push(terms, images, nvars):
    """Sum of ``c * X_i1 ^ ... ^ X_ik`` over tensor terms ``(i1..ik): c``.

    ``X_i`` has the coordinate images ``images(i)``; each distinct index
    is built and packed once.  An index may be any hashable, such as a
    ``(basis index, side)`` pair; ``nvars`` serves a degree-0 term.
    """
    fields = {}  # index -> vector term dict, then its packed form
    for key in terms:
        for i in key:
            if i not in fields:
                fields[i] = vector_terms(images(i))
    tops = {i: _top(f) for i, f in fields.items()}
    codec, _ = _codec(nvars, max((sum(tops[i] for i in key) for key in terms), default=0))
    for i, f in fields.items():
        numerators, den = _pack(f, nvars, codec)
        fields[i] = (_by_mask(numerators, nvars), den)
    den = math.lcm(
        *(c.denominator * math.prod(fields[i][1] for i in key) for key, c in terms.items())
    )
    out = {}
    for key, c in terms.items():
        scale = den // c.denominator
        prod = {0: 1}  # the packed unit
        for i in key:
            grouped, fden = fields[i]
            scale //= fden
            acc = {}
            _wedge_into(acc, 1, _by_mask(prod, nvars), grouped)
            prod = acc
        scale *= c.numerator
        for k, v in prod.items():
            out[k] = out.get(k, 0) + scale * v
    return _unpack(out, den, nvars, codec)


def vector_terms(images):
    """Vector term dict of the derivation with coordinate images ``images``."""
    return {(e, (v,)): c for v, img in images.items() for e, c in img.items()}


def lie_derivative(images, field):
    """Lie derivative of ``field`` along the vector field with coordinate images ``images``."""
    return sn_bracket(vector_terms(images), field)


def _partial_table(numerators, nvars, codec, bits):
    """Coordinate derivatives of a packed operand, by coordinate, then by mask."""
    low = (1 << nvars) - 1
    unpack, size = codec.unpack, codec.size
    units = [1 << nvars + bits * (nvars - 1 - i) for i in range(nvars)]
    table = {}
    for key, c in numerators.items():
        e = unpack((key >> nvars).to_bytes(size, "big"))
        for i in itertools.compress(range(nvars), e):
            entry = (key - units[i], c * e[i])
            table.setdefault(i, {}).setdefault(key & low, []).append(entry)
    return table


def _slot_table(numerators, nvars):
    """Left derivation-slot derivatives of a packed operand, by slot, then by mask."""
    low = (1 << nvars) - 1
    table = {}
    for key, c in numerators.items():
        mask = key & low
        for pos, i in enumerate(_mask_indices(mask)):
            bit = 1 << i
            entry = (key ^ bit, -c if pos & 1 else c)
            table.setdefault(i, {}).setdefault(mask ^ bit, []).append(entry)
    return table


def _contract(acc, sign, slots, partials):
    """In-place ``acc += sign * sum_i slots[i] ^ partials[i]`` (super product)."""
    for i, left in slots.items():
        right = partials.get(i)
        if right:
            _wedge_into(acc, sign, left, right)


def sn_bracket(a, b):
    """Schouten-Nijenhuis bracket of homogeneous polyvector term dicts.

    The degree of ``a``, which fixes the sign of the first sum, is the
    length of the derivation tuple of its first key.  Sign convention:
    on vector fields the bracket is the commutator, and for a bivector P
    the square ``[[P, P]]`` evaluates on three functions to twice the
    Jacobi defect of the induced bracket.  Both facts are pinned by
    regression tests.
    """
    if not a or not b:
        return {}
    exps, ders = next(iter(a))
    nvars = len(exps)
    codec, bits = _codec(nvars, _top(a) + _top(b))
    pa, da = _pack(a, nvars, codec)
    pb, db = _pack(b, nvars, codec)
    acc = {}
    # [[a, b]] = -(-1)^p sum_i xi_i(a) dy_i(b)  -  sum_i dy_i(a) xi_i(b)
    sign = 1 if len(ders) & 1 else -1
    _contract(acc, sign, _slot_table(pa, nvars), _partial_table(pb, nvars, codec, bits))
    _contract(acc, -1, _partial_table(pa, nvars, codec, bits), _slot_table(pb, nvars))
    return _unpack(acc, da * db, nvars, codec)


def kveval(terms, polys):
    """Evaluate a k-vector term dict on k polynomials.

    Each term contributes ``coeff * monomial * det(d_{d_r} f_s)``.
    """
    k = len(polys)
    out = {}
    for (e, d), c in terms.items():
        if len(d) != k:
            raise ValueError("degree mismatch in evaluation")
        # det over permutations; polys are sparse dicts
        det = {}
        for perm in itertools.permutations(range(k)):
            inv = sum(
                1 for x in range(k) for y in range(x + 1, k) if perm[x] > perm[y]
            )
            prod = None
            for r, s in enumerate(perm):
                df = pderive(polys[s], d[r])
                if not df:
                    prod = None
                    break
                prod = df if prod is None else pmul(prod, df)
                if not prod:
                    prod = None
                    break
            if prod is None:
                continue
            piadd(det, prod, Fraction(-1 if inv & 1 else 1))
        if det:
            piadd(out, pmul(det, {e: Fraction(1)}), c)
    return out


def bivector_table(terms):
    """Generator table of a bivector term dict.

    A term ``c * y^e * d/dy_i ^ d/dy_j`` with ``i < j`` puts ``c * y^e``
    at ``(i, j)`` and ``-c * y^e`` at ``(j, i)``.
    """
    table = {}
    for (e, (i, j)), c in terms.items():
        table.setdefault((i, j), {})[e] = c
        table.setdefault((j, i), {})[e] = -c
    return table


def bivector_eval(terms, f, g):
    """Bracket of two polynomials under a bivector term dict."""
    return table_bracket(bivector_table(terms), f, g)


def table_row(table, p):
    """Hamiltonian images of a polynomial under a generator table.

    ``table`` maps ordered coordinate pairs ``(u, v)`` to polynomial
    values of a bracket on the corresponding coordinates.  The row maps
    each ``v`` to ``{p, y_v} = sum_u T[u, v] * dp/du``, in ascending
    ``v`` with zero images dropped; by the Leibniz rule in the second
    slot, ``apply_derivation`` of the row to ``q`` is ``{p, q}``.
    """
    images = {}
    partials = {}
    for (u, v), val in table.items():
        du = partials.get(u)
        if du is None:
            du = partials[u] = pderive(p, u)
        if du:
            piadd(images.setdefault(v, {}), pmul(du, val), _ONE)
    return {v: images[v] for v in sorted(images) if images[v]}


def table_bracket(table, p, q):
    """Bracket of two polynomials from a generator table.

    The bracket extends from coordinates to polynomials by the Leibniz
    rule, ``{p, q} = sum T[u, v] * dp/du * dq/dv``: the Hamiltonian row
    of ``p`` applied to ``q``.
    """
    return apply_derivation(table_row(table, p), q)

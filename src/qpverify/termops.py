"""Sparse exact term-algebra kernels, in pure Python.

Every sum in the package is a zero-free sparse combination: a dict from
hashable keys to nonzero ``Fraction`` coefficients, where a sum that
cancels deletes its key.  Polynomials, sparse matrices (``(row, col)``
keys), tensors (basis-index tuples), Lie algebra elements (basis
indices) and rewriting words all use it; polyvector fields are held
packed instead (below).
Outside the inner loops of this module's kernels, every sum goes
through four kernels: ``siadd`` (``acc[key] += c``), ``piadd``
(``acc += c*b``), ``padd`` (``a + c*b``) and ``pscale`` (``c*a``).  A
scale of 1 or -1 costs no multiply.

Polynomials are dicts keyed by exponent tuples, one slot per coordinate
(``unit_exp`` builds the coordinate monomials).  A polyvector field is
held packed, as a ``PackedField``: int numerators over one denominator,
each term ``y^e * d/dy_i ^ d/dy_j ^ ...`` keyed by one int that packs
its exponents, a byte each, above a bitmask of its derivations.
Derivations are anticommuting symbols in ascending order, so every
product carries the sign of the interleaving permutation.  The field
kernels ``sn_bracket``, ``smul`` and ``wedge_push`` take and return
packed fields, and so do ``pscale`` and ``padd`` on a packed operand;
``not field`` is the zero test and ``==`` the exact equality, by
cross-multiplying.  The fields of ``polyfield``, ``quantize`` and
``grouppois`` stay packed from the solver, ``phibar``, the action fields
and the pushes through every bracket, sum and comparison.  ``pack``
builds a field from a tuple-keyed ``Fraction`` term dict
``{(exponents, derivations): c}``, with ``derivations`` a strictly
ascending index tuple, and ``unpack`` decodes one, for a witness only;
``shapes`` reads the ``(monomial degree, derivations)`` of the terms,
for degree guards and for the derivation triples a report names.  An
exponent that could pass ``FIELD_TOP`` raises ``ResourceLimitError``.
``monomial_codec`` packs monomials alone, in the one format of the
fields: ``phibar`` builds its field from them with ``pack_monomials``,
and the order-one scans of ``quantize`` run on them and decode only a
failing row or coboundary.

Fixing the first argument of a biderivation gives a derivation, its
Hamiltonian field, given by its images of the coordinates: its row.
``row_table`` reads a packed bivector's monomials as they are into a
generator table grouped by first slot, and ``hamiltonian_row`` builds
the row of one monomial from it with int numerators over the field's
denominator; ``derivation_table`` gives vector fields the same table,
whose row of a monomial holds its image under each field.  ``apply_row``
applies a row to a monomial by the Leibniz rule.  Every scan reads
these, and so does the one evaluator of a single bracket,
``table_bracket``, which keeps the row table with its field and decodes
only its value.  An action is given by its packed vector fields, one per
basis element, for the coadjoint action and for conjugation alike:
``wedge_push`` pushes a tensor through them, and the Lie derivative
along one is its ``sn_bracket``.  ``kveval``, ``bivector_eval`` and
``ptruncate`` are reference evaluators for tests and tracing only.

Kernels call one another through this module's globals, so a wrapper
set on a module attribute sees every call, from inside or outside.
``BACKEND`` and ``backends()`` name the single backend, for the
benchmark's run metadata.
"""

import functools
import itertools
import math
import sys
import types
from fractions import Fraction

BACKEND = "pure"


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a size cap.

    The caps are the solver sizes of ``polyfield`` and ``quantize`` and
    ``FIELD_TOP``, the largest exponent of a packed monomial.
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
    """``c*a`` as a new dict, or as a packed field for a packed ``a``."""
    if isinstance(a, PackedField):
        return _pscale_field(a, c)
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
    """``a + c*b`` as a new dict, or as a packed field for packed fields."""
    if isinstance(a, PackedField):
        return _padd_field(a, b, c)
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


# ---------------------------------------------------------------------------
# packed polyvector fields
#
# A ``PackedField`` over ``nvars`` coordinates keys a term ``(e, d)`` by one
# int, ``mono << nvars | mask``.  Bit ``i`` of ``mask`` stands for
# ``d/dy_i``; ``mono`` holds the exponents a byte each, coordinate 0 in the
# top byte, so its big-endian bytes are the exponent tuple.  A term has one
# key in every field over the same coordinates, and two terms with disjoint
# masks multiply by adding their keys.  Each field carries a bound on its
# exponents; a product whose operand bounds add up past ``FIELD_TOP`` raises
# ``ResourceLimitError`` before it runs, so no byte carries into the next.
# Coefficients are int numerators over one positive denominator, which is
# not reduced: equality cross-multiplies.


FIELD_TOP = 255  # the largest exponent a packed monomial holds


def check_top(top):
    """``top``, or ``ResourceLimitError`` if it passes ``FIELD_TOP``.

    It guards every packed product here and the degree bound of every
    scan on packed monomials, so that no sum of keys carries.
    """
    if top > FIELD_TOP:
        raise ResourceLimitError(f"exponent {top} is above the packed exponent top {FIELD_TOP}")
    return top


@functools.cache
def monomial_codec(nvars):
    """``(pack, unpack, units)`` between exponent tuples and packed monomial ints.

    ``pack(e)`` is the monomial of the packed term ``(e, ())``, one byte
    per exponent; while every exponent stays within ``FIELD_TOP``, the
    product of two monomials is the sum of their ints.  ``unpack``
    inverts ``pack``, and ``units[i]`` is the packed ``y_i``.
    """

    def pack_mono(e):
        return int.from_bytes(bytes(e), "big")

    def unpack_mono(key):
        return tuple(key.to_bytes(nvars, "big"))

    return pack_mono, unpack_mono, tuple(1 << 8 * (nvars - 1 - i) for i in range(nvars))


class PackedField:
    """A polyvector field held packed, in a format private to this module.

    ``pack`` and ``pack_monomials`` build one, the field kernels take and
    return them, and ``unpack`` gives the tuple-keyed ``Fraction`` term
    dict back.  A field is immutable and stores no zero.  ``not field``
    is the zero test, and ``==`` compares two fields over the same
    coordinates exactly; ``numerators`` exposes the int numerators for
    integer arithmetic outside this module.
    """

    __slots__ = ("_nums", "_den", "_nvars", "_top", "_partials", "_slots", "_rows")

    def __init__(self, nums, den, nvars, top):
        self._nums = nums  # packed key -> nonzero int numerator
        self._den = den  # positive int
        self._nvars = nvars
        self._top = top  # bound on every exponent
        # the derivative tables of sn_bracket and the row table of
        # table_bracket, each built on first use
        self._partials = self._slots = self._rows = None

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        _coordinates(self, other)
        a, b = self._nums, other._nums
        da, db = self._den, other._den
        if da == db:
            return a == b
        return a.keys() == b.keys() and all(v * db == b[k] * da for k, v in a.items())

    __hash__ = None

    def __repr__(self):
        return f"PackedField({unpack(self)!r})"

    def numerators(self):
        """``(numerators, den)``: the field is ``numerators / den``.

        ``numerators`` is a read-only map from opaque int keys to nonzero
        int numerators; a term has the same key in every field over the
        same coordinates, so the maps of several fields are sparse rows
        with comparable columns.
        """
        return types.MappingProxyType(self._nums), self._den


def _coordinates(a, b):
    """The coordinate count of two packed fields, which must share it."""
    if not (isinstance(a, PackedField) and isinstance(b, PackedField)):
        names = type(a).__name__, type(b).__name__
        raise TypeError(f"expected two packed fields, got {names[0]} and {names[1]}")
    if a._nvars != b._nvars:
        raise ValueError(f"fields over {a._nvars} and {b._nvars} coordinates")
    return a._nvars


def _field(acc, den, nvars, top):
    """The packed field of ``acc`` over ``den``, with its zeros dropped."""
    return PackedField({k: v for k, v in acc.items() if v}, den, nvars, top)


def _largest_exponent(terms):
    """The largest exponent in a polyvector term dict."""
    return max(itertools.chain.from_iterable(e for e, _ in terms), default=0)


def pack(terms, nvars):
    """The packed field of a tuple-keyed term dict over ``nvars`` coordinates."""
    top = check_top(_largest_exponent(terms))
    pack_mono = monomial_codec(nvars)[0]
    den = math.lcm(*{c.denominator for c in terms.values()})
    numerators = {
        (pack_mono(e), d): c.numerator * (den // c.denominator) for (e, d), c in terms.items()
    }
    return pack_monomials(numerators, den, nvars, top)


def pack_monomials(terms, den, nvars, top):
    """The packed field of ``{(monomial, derivations): numerator}`` over ``den``.

    Monomials are packed by ``monomial_codec(nvars)``, derivations are
    ascending index tuples, numerators are ints, and ``top`` bounds
    every exponent.
    """
    check_top(top)
    masks = {}
    out = {}
    for (mono, d), c in terms.items():
        if not c:
            continue
        mask = masks.get(d)
        if mask is None:
            mask = masks[d] = sum(1 << i for i in d)
        out[mono << nvars | mask] = c
    return PackedField(out, den, nvars, top)


def _term_reader(nvars):
    """``read(key)``: the exponent tuple and derivation mask of a packed term key."""
    unpack_mono, low = monomial_codec(nvars)[1], (1 << nvars) - 1
    return lambda key: (unpack_mono(key >> nvars), key & low)


def unpack(field):
    """The tuple-keyed ``Fraction`` term dict of a packed field."""
    read, den = _term_reader(field._nvars), field._den
    terms = ((read(key), c) for key, c in field._nums.items())
    return {(e, _mask_indices(mask)): Fraction(c, den) for (e, mask), c in terms}


def shapes(field):
    """The set of ``(monomial degree, derivations)`` of a packed field's terms."""
    read = _term_reader(field._nvars)
    return {(sum(e), _mask_indices(mask)) for e, mask in map(read, field._nums)}


@functools.cache
def _mask_indices(mask):
    """Ascending tuple of the set bit positions of ``mask``."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


def _pscale_field(a, c):
    """``c*a`` for a packed field ``a``."""
    if not c:
        return PackedField({}, 1, a._nvars, 0)
    if c == 1:
        return a
    if c == -1:
        return PackedField({k: -v for k, v in a._nums.items()}, a._den, a._nvars, a._top)
    n = c.numerator
    nums = {k: v * n for k, v in a._nums.items()}
    return PackedField(nums, a._den * c.denominator, a._nvars, a._top)


def _padd_field(a, b, c):
    """``a + c*b`` for packed fields ``a`` and ``b``."""
    nvars = _coordinates(a, b)
    if not c or not b:
        return a
    # a/da + (p/q)*b/db over lcm(da, q*db)
    da, db = a._den, c.denominator * b._den
    den = math.lcm(da, db)
    sa, sb = den // da, c.numerator * (den // db)
    out = dict(a._nums) if sa == 1 else {k: v * sa for k, v in a._nums.items()}
    get = out.get
    for k, v in b._nums.items():
        s = get(k, 0) + v * sb
        if s:
            out[k] = s
        else:
            del out[k]
    return PackedField(out, den, nvars, max(a._top, b._top))


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
    """In-place ``acc += sign * left ^ right`` on operands grouped by mask.

    Only the sign of ``sign`` is read.
    """
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
    """Wedge (super) product of two packed fields."""
    nvars = _coordinates(a, b)
    top = check_top(a._top + b._top)
    acc = {}
    _wedge_into(acc, 1, _by_mask(a._nums, nvars), _by_mask(b._nums, nvars))
    return _field(acc, a._den * b._den, nvars, top)


def wedge_push(terms, fields, nvars):
    """Sum of ``c * X_i1 ^ ... ^ X_ik`` over tensor terms ``(i1..ik): c``.

    ``X_i`` is the packed vector field ``fields(i)``, taken once per
    distinct index.  An index may be any hashable, such as a ``(basis
    index, side)`` pair; ``nvars`` serves a degree-0 term.  Returns a
    packed field.
    """
    legs = {i: fields(i) for i in set(itertools.chain.from_iterable(terms))}
    top = check_top(max((sum(legs[i]._top for i in key) for key in terms), default=0))
    grouped = {i: _by_mask(f._nums, nvars) for i, f in legs.items()}
    den = math.lcm(
        *(c.denominator * math.prod(legs[i]._den for i in key) for key, c in terms.items())
    )
    out = {}
    for key, c in terms.items():
        scale = den // c.denominator
        prod = {0: 1}  # the packed unit
        for i in key:
            scale //= legs[i]._den
            acc = {}
            _wedge_into(acc, 1, _by_mask(prod, nvars), grouped[i])
            prod = acc
        scale *= c.numerator
        for k, v in prod.items():
            out[k] = out.get(k, 0) + scale * v
    return _field(out, den, nvars, top)


def _partial_table(field):
    """Coordinate derivatives of a field's terms, by coordinate, then by mask.

    Built on first use and kept with the field, as a field enters several
    brackets (the quadratic bracket is re-verified along every coadjoint
    field, then bracketed with itself and the pencil).
    """
    if field._partials is None:
        nvars, read = field._nvars, _term_reader(field._nvars)
        units = [unit << nvars for unit in monomial_codec(nvars)[2]]
        table = {}
        for key, c in field._nums.items():
            e, mask = read(key)
            for i in itertools.compress(range(nvars), e):
                entry = (key - units[i], c * e[i])
                table.setdefault(i, {}).setdefault(mask, []).append(entry)
        field._partials = table
    return field._partials


def _slot_table(field):
    """Left derivation-slot derivatives of a field's terms, by slot, then by mask.

    Built on first use and kept with the field, as ``_partial_table``.
    """
    if field._slots is None:
        low = (1 << field._nvars) - 1
        table = {}
        for key, c in field._nums.items():
            mask = key & low
            for pos, i in enumerate(_mask_indices(mask)):
                bit = 1 << i
                entry = (key ^ bit, -c if pos & 1 else c)
                table.setdefault(i, {}).setdefault(mask ^ bit, []).append(entry)
        field._slots = table
    return field._slots


def _contract(acc, sign, slots, partials):
    """In-place ``acc += sign * sum_i slots[i] ^ partials[i]`` (super product)."""
    for i, left in slots.items():
        right = partials.get(i)
        if right:
            _wedge_into(acc, sign, left, right)


def sn_bracket(a, b):
    """Schouten-Nijenhuis bracket of homogeneous packed fields.

    The degree of ``a``, which fixes the sign of the first sum, is the
    number of derivations in its first term.  Sign convention: on vector
    fields the bracket is the commutator, and for a bivector P the square
    ``[[P, P]]`` evaluates on three functions to twice the Jacobi defect
    of the induced bracket.  Both facts are pinned by regression tests.
    A square, ``b is a``, takes one contraction.
    """
    nvars = _coordinates(a, b)
    if not a or not b:
        return PackedField({}, 1, nvars, 0)
    top = check_top(a._top + b._top)
    odd = (next(iter(a._nums)) & ((1 << nvars) - 1)).bit_count() & 1
    acc = {}
    # [[a, b]] = -(-1)^p sum_i xi_i(a) dy_i(b)  -  sum_i dy_i(a) xi_i(b)
    if b is a:
        # xi_i(a) has degree p - 1 and dy_i(a) degree p, so the two factors
        # commute and the sums are equal: they cancel for odd p, and for
        # even p the square is -2 sum_i dy_i(a) xi_i(a)
        if odd:
            return PackedField({}, 1, nvars, 0)
        _contract(acc, -1, _partial_table(a), _slot_table(a))
        return PackedField({k: v + v for k, v in acc.items() if v}, a._den**2, nvars, top)
    _contract(acc, 1 if odd else -1, _slot_table(a), _partial_table(b))
    _contract(acc, -1, _partial_table(a), _slot_table(b))
    return _field(acc, a._den * b._den, nvars, top)


def kveval(field, polys):
    """Evaluate a packed k-vector field on k polynomials.

    Each term contributes ``coeff * monomial * det(d_{d_r} f_s)``.
    """
    k = len(polys)
    out = {}
    for (e, d), c in unpack(field).items():
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


def row_table(field):
    """Packed generator table of a bivector field, for ``hamiltonian_row``.

    Returns ``(table, den)``: ``table[u][v]`` lists the terms of
    ``T[u, v]`` as int numerators over the field's denominator ``den``,
    each monomial read from its key as it is and kept as ``y^t / y_u``,
    so that adding the packed ``y^e`` gives the monomial of
    ``y^t * y^e / y_u``.  A term ``c * y^t * d/dy_i ^ d/dy_j`` enters as
    ``c * y^t`` at ``(i, j)`` and as ``-c * y^t`` at ``(j, i)``.
    """
    nvars = field._nvars
    units, low = monomial_codec(nvars)[2], (1 << nvars) - 1
    table = {}
    for key, c in field._nums.items():
        i, j = _mask_indices(key & low)
        t = key >> nvars
        table.setdefault(i, {}).setdefault(j, []).append((t - units[i], c))
        table.setdefault(j, {}).setdefault(i, []).append((t - units[j], -c))
    return table, field._den


def derivation_table(fields, nvars):
    """Packed table of vector fields over ``nvars`` coordinates, for ``hamiltonian_row``.

    ``fields`` maps a label ``w`` to a packed vector field ``X_w``.
    Returns ``(table, den)``: the row of ``y^e`` maps each ``w`` to
    ``X_w(y^e)``, as int numerators over ``den``; the monomials are kept
    as for ``row_table``.
    """
    den = math.lcm(*(f._den for f in fields.values()))
    units, low = monomial_codec(nvars)[2], (1 << nvars) - 1
    table = {}
    for w, field in fields.items():
        scale = den // field._den
        for key, c in field._nums.items():
            u = (key & low).bit_length() - 1
            entry = ((key >> nvars) - units[u], c * scale)
            table.setdefault(u, {}).setdefault(w, []).append(entry)
    return table, den


def hamiltonian_row(table, e, key):
    """Packed Hamiltonian row of the monomial ``y^e``, packed as ``key``.

    ``table`` is a ``row_table`` or a ``derivation_table``.  The row maps
    each ``v`` to ``sum_u e[u] * T[u, v] * y^e / y_u``: the image
    ``{y^e, y_v}`` under a bivector, ``X_v(y^e)`` under vector fields.
    Images are int numerators over the table's denominator, keyed by
    packed monomials, in ascending ``v`` with zero images dropped.
    """
    row = {}
    for u, entries in table.items():
        eu = e[u]
        if eu:
            for v, terms in entries.items():
                img = row.setdefault(v, {})
                get = img.get
                for k, c in terms:
                    k += key
                    img[k] = get(k, 0) + eu * c
    out = {}
    for v in sorted(row):
        img = {k: c for k, c in row[v].items() if c}
        if img:
            out[v] = img
    return out


def apply_row(row, e, key, units):
    """Hamiltonian row applied to the monomial ``y^e``, packed as ``key``.

    By the Leibniz rule the value is ``sum_v e[v] * row[v] * y^e / y_v``:
    under a bivector, ``{p, y^e}`` for the ``p`` whose row it is.
    ``units[v]`` is the packed ``y_v``; the value maps packed monomials
    to nonzero int numerators over the row's denominator.
    """
    out = {}
    get = out.get
    for v, img in row.items():
        ev = e[v]
        if ev:
            shift = key - units[v]
            for k, c in img.items():
                k += shift
                out[k] = get(k, 0) + ev * c
    return {k: c for k, c in out.items() if c}


def _numerators(p):
    """``(terms, den)``: a ``Fraction`` polynomial as int numerators over one denominator."""
    den = math.lcm(*(c.denominator for c in p.values()))
    return [(e, c.numerator * (den // c.denominator)) for e, c in p.items()], den


def table_bracket(field, p, q):
    """Bracket of two polynomials under a packed bivector field.

    By the Leibniz rule in both slots, ``{p, q}`` is the Hamiltonian row
    of each monomial of ``p`` (``hamiltonian_row``) applied to each
    monomial of ``q`` (``apply_row``), on int numerators.  The row table
    is built on the first bracket and kept with the field; only the
    value is decoded.  A value whose exponents could pass ``FIELD_TOP``
    raises ``ResourceLimitError``.
    """
    check_top(max(map(max, p), default=0) + field._top + max(map(max, q), default=0))
    if field._rows is None:
        field._rows = row_table(field)[0]
    table = field._rows
    pack, unpack, units = monomial_codec(field._nvars)
    left, pden = _numerators(p)
    right, qden = _numerators(q)
    right = [(e, pack(e), c) for e, c in right]
    acc = {}
    get = acc.get
    for ea, ca in left:
        row = hamiltonian_row(table, ea, pack(ea))
        for eb, kb, cb in right:
            c = ca * cb
            for k, n in apply_row(row, eb, kb, units).items():
                acc[k] = get(k, 0) + c * n
    den = field._den * pden * qden
    return {unpack(k): Fraction(c, den) for k, c in acc.items() if c}


def bivector_eval(field, f, g):
    """Bracket of two polynomials under a packed bivector field, ``table_bracket``."""
    return table_bracket(field, f, g)

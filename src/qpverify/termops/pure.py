"""Pure-Python kernels for sparse exact term algebra.

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
the sign of the interleaving permutation.

Biderivations have one evaluator, ``table_bracket``: a bivector term dict
is first turned into a generator table by ``bivector_table``.
Derivations given by their coordinate images have one evaluator,
``apply_derivation``; fixing the first argument of a biderivation gives
such a derivation (its Hamiltonian field), so a row of brackets
``{f, g}`` with one ``f`` costs one image table and one
``apply_derivation`` per ``g``.
"""

from fractions import Fraction

_ONE = Fraction(1)

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


def pmul(a, b, maxdeg=-1):
    """Product of two polynomials, optionally truncated above ``maxdeg``."""
    if not a or not b:
        return {}
    out = {}
    bitems = list(b.items())
    for ka, ca in a.items():
        if maxdeg >= 0:
            da = sum(ka)
        for kb, cb in bitems:
            if maxdeg >= 0 and da + sum(kb) > maxdeg:
                continue
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
    """Partial derivative of a polynomial along coordinate ``i``."""
    out = {}
    for k, c in a.items():
        e = k[i]
        if not e:
            continue
        kk = k[:i] + (e - 1,) + k[i + 1 :]
        c = c * e
        s = out.get(kk)
        if s is None:
            out[kk] = c
        else:
            s = s + c
            if s:
                out[kk] = s
            else:
                del out[kk]
    return out


def ptruncate(a, maxdeg):
    """Drop monomials of total degree above ``maxdeg``."""
    return {k: c for k, c in a.items() if sum(k) <= maxdeg}


def apply_derivation(images, p, maxdeg=-1):
    """Derivation given by its coordinate images, applied to a polynomial.

    ``images`` maps a coordinate index ``v`` to the image of ``y_v``; the
    result is ``sum_v dp/dv * images[v]``, truncated above ``maxdeg``
    when it is non-negative.
    """
    out = {}
    for v, img in images.items():
        dv = pderive(p, v)
        if dv:
            piadd(out, pmul(dv, img, maxdeg), _ONE)
    return out


# ---------------------------------------------------------------------------
# polyvector kernels


def merge_ders(d1, d2):
    """Merge two ascending derivation tuples.

    Returns ``(sign, merged)`` where ``sign`` is the parity of the
    interleaving permutation, or ``(0, None)`` when an index repeats.
    """
    if not d1:
        return 1, d2
    if not d2:
        return 1, d1
    n1, n2 = len(d1), len(d2)
    i = j = 0
    inv = 0
    out = []
    while i < n1 and j < n2:
        x, y = d1[i], d2[j]
        if x == y:
            return 0, None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            inv += n1 - i
            j += 1
    out.extend(d1[i:])
    out.extend(d2[j:])
    return (-1 if inv & 1 else 1), tuple(out)


def smul(a, b, maxdeg=-1):
    """Wedge (super) product of two polyvector term dicts."""
    out = {}
    bitems = list(b.items())
    for (e1, d1), c1 in a.items():
        if maxdeg >= 0:
            deg1 = sum(e1)
        for (e2, d2), c2 in bitems:
            if maxdeg >= 0 and deg1 + sum(e2) > maxdeg:
                continue
            sgn, dm = merge_ders(d1, d2)
            if not sgn:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            siadd(out, (e, dm), c1 * c2 if sgn > 0 else -c1 * c2)
    return out


def wedge_push(terms, field, nvars):
    """Sum of ``c * field(i1) ^ ... ^ field(ik)`` over tensor terms ``(i1..ik): c``.

    ``field(i)`` is the vector term dict of index ``i``.
    """
    out = {}
    unit = {((0,) * nvars, ()): Fraction(1)}
    for key, c in terms.items():
        prod = unit
        for i in key:
            prod = smul(prod, field(i))
        piadd(out, prod, c)
    return out


def _dy_table(a):
    """Coordinate derivatives of ``a``, grouped by coordinate index."""
    table = {}
    for (e, d), c in a.items():
        for i, ei in enumerate(e):
            if not ei:
                continue
            ee = e[:i] + (ei - 1,) + e[i + 1 :]
            table.setdefault(i, []).append(((ee, d), c * ei))
    return table


def _xi_table(a):
    """Left derivation-slot derivatives of ``a``, grouped by slot index."""
    table = {}
    for (e, d), c in a.items():
        for pos, i in enumerate(d):
            dd = d[:pos] + d[pos + 1 :]
            table.setdefault(i, []).append(((e, dd), -c if pos & 1 else c))
    return table


def _contract(out, sign, xi_of, dy_of):
    """In-place ``out += sign * sum_i xi_of[i] * dy_of[i]`` (super product)."""
    for i, left in xi_of.items():
        right = dy_of.get(i)
        if not right:
            continue
        for (e1, d1), c1 in left:
            for (e2, d2), c2 in right:
                sgn, dm = merge_ders(d1, d2)
                if not sgn:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                siadd(out, (e, dm), c1 * c2 if sgn * sign > 0 else -c1 * c2)


def sn_bracket(a, p, b, q):
    """Schouten-Nijenhuis bracket of homogeneous polyvector term dicts.

    Sign convention: on vector fields the bracket is the commutator, and
    for a bivector P the square ``[[P, P]]`` evaluates on three functions
    to twice the Jacobi defect of the induced bracket.  Both facts are
    pinned by regression tests.
    """
    # [[a, b]] = -(-1)^p sum_i xi_i(a) dy_i(b)  -  sum_i dy_i(a) xi_i(b)
    out = {}
    _contract(out, 1 if p & 1 else -1, _xi_table(a), _dy_table(b))
    _contract(out, -1, _dy_table(a), _xi_table(b))
    return out


def kveval(terms, polys):
    """Evaluate a k-vector term dict on k polynomials.

    Each term contributes ``coeff * monomial * det(d_{d_r} f_s)``.
    """
    import itertools

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


def bivector_eval(terms, f, g, maxdeg=-1):
    """Bracket of two polynomials under a bivector term dict."""
    return table_bracket(bivector_table(terms), f, g, maxdeg)


def table_bracket(table, p, q, maxdeg=-1):
    """Bracket of two polynomials from a generator table.

    ``table`` maps ordered coordinate pairs ``(u, v)`` to polynomial
    values of the bracket on the corresponding coordinates; the bracket
    extends to polynomials by the Leibniz rule,
    ``{p, q} = sum T[u, v] * dp/du * dq/dv``.
    """
    out = {}
    dp = {}
    dq = {}
    for (u, v), val in table.items():
        if u not in dp:
            dp[u] = pderive(p, u)
        du = dp[u]
        if not du:
            continue
        if v not in dq:
            dq[v] = pderive(q, v)
        dv = dq[v]
        if not dv:
            continue
        prod = pmul(du, dv, maxdeg)
        if not prod:
            continue
        for k, c in pmul(prod, val, maxdeg).items():
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

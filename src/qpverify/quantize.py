"""Leading-order quantization checks.

First-order star products are biderivations attached to bivector fields
on the dual space, packed fields as in ``polyfield``; a single product
is ``termops.table_bracket`` of its bivector, and no scan makes one.
Their equivariance under the deformed coproduct is an exact identity of
derivations, checked on one packed Hamiltonian row
(``termops.hamiltonian_row``) per left monomial rather than at each
monomial pair; the Hochschild and twist scans build their rows the same
way, and the Hochschild scan applies them (``termops.apply_row``), with
no ``Fraction`` but a witness's.  Every scan runs on the packed
monomials of the fields (``termops.monomial_codec``).  The scans take
the coadjoint fields packed, as ``polyfield.coadjoint_field`` keeps
them: the invariance scan's Lie derivative is one
``termops.sn_bracket``, and the twist scan reads the fields through
``termops.derivation_table``.  The symmetric-algebra family is probed
by rewriting words with a rule table: U(g)'s (``straightening_rules``)
has the ordered monomials as normal forms, and its Jacobi fault is one
corrupted rule.  The coproduct-level identities (pentagon shadow,
first-order R-matrix relations) are evaluated exactly through Kronecker
powers of the matrices of a representation, each a list of slot layouts
summed over word terms by ``_kron_terms``.  These checks take the
matrices and run no guard: the calling suite runs ``faithfulness_guard``
once per representation, as an evaluation in an unfaithful
representation proves nothing.

First-order conventions: the twist starts at half the r-matrix, so the
coproduct correction of ``x`` is half the cocommutator and the star
product carries ``(1/2)(f - r_M)`` at order one.  The order-one scans
take their degree bound ``d`` as an argument; none truncates a product,
and a bound past ``termops.FIELD_TOP`` raises ``ResourceLimitError``.

Each check returns the pair ``(passed, witness)`` that its report
records: on a failure the witness is the evidence, on a pass it is the
scan size or note the report keeps, or ``None``.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from . import liealg, linalg, multivec, polyfield, termops

ONE = Fraction(1)
HALF = Fraction(1, 2)

PBW_DEGREE_CAP = 6
# Hamiltonian rows of the invariance scan, dim x left monomials (A2 at d = 8 builds 51,472)
STAR_ROW_CAP = 60000
# seeded random words per rewriting run, spread over the lengths 3..degree
PBW_SPOT_CHECKS = 100


# ---------------------------------------------------------------------------
# first-order products and their scans up to a degree bound


class FirstOrderProduct:
    """Order-one term of a star product, given by a quadratic bivector field.

    On monomials ``a`` and ``b`` it is homogeneous of degree ``|a| + |b|``;
    a bracket that lowers degree has no well-defined truncation.  The
    scans build packed Hamiltonian rows from ``bivector``
    (``termops.row_table``), and so does a single product
    (``termops.table_bracket``).
    """

    def __init__(self, bivector, label):
        if any(deg != 2 or len(d) != 2 for deg, d in termops.shapes(bivector)):
            raise ValueError("first-order products come from quadratic bivector fields")
        self.bivector = bivector
        self.label = label

    def __call__(self, a, b):
        return termops.table_bracket(self.bivector, a, b)


def standard_first_order_product(f_field, r_tensor):
    """The product ``(1/2)(f - r_M)`` of the invariant-plus-twist shape."""
    rm = polyfield.rmatrix_bracket(r_tensor)
    half_difference = termops.pscale(termops.padd(f_field, rm, -ONE), HALF)
    return FirstOrderProduct(half_difference, "(1/2)(f - r_M)")


def first_order_invariance_check(m1, r, d):
    """Deformed-coproduct invariance of a first-order product, order one.

    For every basis element x and monomial pair (a, b) up to degree ``d``:
    x.m1(a,b) - m1(xa, b) - m1(a, xb) = (1/2) m0([r, x(x)1 + 1(x)x].(a,b)).
    For fixed (x, a) the defect is a derivation in ``b``: the packed
    Hamiltonian row of ``a`` under the quadratic bivector
    ``defect_x = L_x P - (1/2) action_field(delta)``, which is tested
    for zero without decoding.  A derivation is fixed by its images of
    the coordinates, so some ``b`` fails exactly when the row is
    nonzero, and the first failing ``b`` of a scan over the monomials of
    degree 1 to ``d - |a|``, degree by degree, is ``y_j`` for the least
    ``j`` in the row.  So one row is built per x
    and left monomial of degree 1 to ``d - 1``, and the witness of a
    failure is the first failing triple ``{x, a, b}``.  A pass records
    the count of ``pairs`` of monomials of degree at most ``d``; the rows
    cover them all, as a pair with a constant or of degree above ``d``
    has zero defect in the algebra truncated above ``d``.
    """
    L = r.algebra
    termops.check_top(d)
    pack = termops.monomial_codec(L.dim)[0]
    lefts = [(a, pack(a)) for k in range(1, d) for a in polyfield.monomials(L.dim, k)]
    for x in range(L.dim):
        delta = multivec.cobracket(r, x)
        defect = termops.padd(
            termops.sn_bracket(polyfield.coadjoint_field(L, x), m1.bivector),
            polyfield.action_field(delta),
            -HALF,
        )
        table, _ = termops.row_table(defect)
        for a, ka in lefts:
            row = termops.hamiltonian_row(table, a, ka)
            if row:
                return False, {"x": L.names[x], "a": a, "b": termops.unit_exp(L.dim, min(row))}
    return True, {"product": m1.label, "degree": d, "pairs": math.comb(L.dim + d, d) ** 2}


def _pair_values(m1, dim):
    """Packed values of ``m1`` on pairs of unit monomials, and their denominator.

    Returns ``(value, den)``: ``value(ea, kb)`` is ``m1(y^ea, y^eb)`` for
    the monomial ``y^eb`` in ``dim`` coordinates packed as ``kb`` by
    ``termops.monomial_codec``, as a dict from packed monomials to
    numerators over ``den``.  A ``FirstOrderProduct`` builds one packed
    Hamiltonian row per left monomial from its packed bivector
    (``termops.hamiltonian_row``), with int numerators over the
    bivector's one denominator, and applies it to ``y^eb`` by the
    Leibniz rule (``termops.apply_row``).  Any other bilinear map is
    called on the unit polynomials and keeps its ``Fraction``
    coefficients over 1; a value of degree above ``|ea| + |eb|`` raises
    ``ValueError``, as the scan is defined for maps that do not raise
    degree.
    """
    pack, unpack, units = termops.monomial_codec(dim)
    if not isinstance(m1, FirstOrderProduct):

        def value(ea, kb):
            eb = unpack(kb)
            out = {}
            for e, c in m1({ea: ONE}, {eb: ONE}).items():
                if sum(e) > sum(ea) + sum(eb):
                    raise ValueError(f"the map raises the degree of the pair {ea}, {eb}")
                out[pack(e)] = c
            return out

        return value, 1

    table, den = termops.row_table(m1.bivector)
    rows = {}

    def value(ea, kb):
        row = rows.get(ea)
        if row is None:
            row = rows[ea] = termops.hamiltonian_row(table, ea, pack(ea))
        return termops.apply_row(row, unpack(kb), kb, units)

    return value, den


class _PairValues(dict):
    """Packed values of a bilinear map with one left monomial, by right monomial.

    ``left`` is the left exponent tuple, and a value is one flat tuple
    ``(key, numerator, key, numerator, ...)`` of packed monomials and
    numerators.  A missing value is computed by ``fill(self, right)`` on
    its first lookup, so the scan reads every value by a plain subscript.
    """

    __slots__ = ("left", "fill")

    def __init__(self, left, fill):
        super().__init__()
        self.left, self.fill = left, fill

    def __missing__(self, right):
        return self.fill(self, right)


def hochschild_cocycle_check(L, d, m1):
    """First-order associativity: the Hochschild coboundary of m1 vanishes.

    ``m1`` is any bilinear map on polynomials over the dual of ``L`` whose
    value on two monomials has at most the sum of their degrees (a map
    that raises degree gets ``ValueError``); biderivations pass
    identically.  Every monomial triple with positive degrees and total
    degree up to ``d`` is scanned.  The scan runs on packed monomials
    (``termops.monomial_codec``), so a product of monomials is an int
    addition.  The products of monomials inside the coboundary are
    monomials again, so ``m1`` is evaluated once per distinct pair of
    exponents by ``_pair_values`` and the packed values are reused across
    triples, from one ``_PairValues`` cache per left monomial that the
    triple loop reads by subscript; a first-order product evaluates
    through packed Hamiltonian rows with int numerators.  Each
    coboundary is summed on int keys, and only a failing one is decoded
    into the tuple-keyed ``Fraction`` witness.
    """
    termops.check_top(d)
    patterns = []
    for da in range(1, d - 1):
        for db in range(1, d - da):
            for dc in range(1, d - da - db + 1):
                patterns.append((da, db, dc))
    pack, unpack, _ = termops.monomial_codec(L.dim)
    value, den = _pair_values(m1, L.dim)
    # left packed monomial -> its _PairValues; ``intern`` keeps one int
    # object per packed monomial the caches hold
    values = {}
    intern = {}.setdefault

    def m1_mono(vals, kb):
        packed = value(vals.left, kb)
        val = vals[intern(kb, kb)] = tuple(
            itertools.chain.from_iterable(zip(map(intern, packed, packed), packed.values()))
        )
        return val

    def row(ka):
        vals = values.get(ka)
        if vals is None:
            vals = values[ka] = _PairValues(unpack(ka), m1_mono)
        return vals

    scanned = 0
    for da, db, dc in patterns:
        kcs = [pack(ec) for ec in polyfield.monomials(L.dim, dc)]
        for ea in polyfield.monomials(L.dim, da):
            ka = pack(ea)
            row_a = row(ka)
            for eb in polyfield.monomials(L.dim, db):
                kb = pack(eb)
                kab = ka + kb
                row_b = row(kb)
                row_ab = row(kab)
                m_ab = row_a[kb]
                for kc in kcs:
                    scanned += 1
                    # a m1(b, c) - m1(ab, c) + m1(a, bc) - m1(a, b) c
                    it = iter(row_b[kc])
                    defect = {k + ka: c for k, c in zip(it, it)}
                    get = defect.get
                    it = iter(row_ab[kc])
                    for k, c in zip(it, it):
                        defect[k] = get(k, 0) - c
                    it = iter(row_a[kb + kc])
                    for k, c in zip(it, it):
                        defect[k] = get(k, 0) + c
                    it = iter(m_ab)
                    for k, c in zip(it, it):
                        k += kc
                        defect[k] = get(k, 0) - c
                    if any(defect.values()):
                        return False, {
                            "a": ea,
                            "b": eb,
                            "c": unpack(kc),
                            "defect": {
                                unpack(k): Fraction(c, den) for k, c in defect.items() if c
                            },
                        }
    return True, {"degree": d, "monomial_triples": scanned}


def twist_correspondence_check(L, d, r_tensor):
    """Order-one consistency of the twist correspondence, up to degree ``d``.

    The first-order product is the invariant half-bracket corrected by
    the inverse twist, ``m1 = mu1 - (1/2) m0 . r``; its skew part must be
    the biderivation of ``(1/2)(f - r_M)``.  The invariant halves agree
    term by term, so the identity lives in the twist part: the
    skew-symmetrization of the composed map ``m0 . r`` is compared
    against the r-matrix field route.

    For a fixed left monomial ``a`` both routes are derivations in ``b``,
    compared as packed rows of coordinate images: the Hamiltonian row of
    ``a`` under ``r_M``, and the coadjoint images of ``a`` (one packed
    row of the legs' fields) regrouped by the leg that acts on ``b``,
    ``G[w]``, which map ``y_j`` to ``sum_w G[w] * X_w(y_j)``.  The two
    routes share no evaluation; their int numerators are compared by
    cross-multiplying the denominators, and only a failing row is
    decoded into the ``Fraction`` witness.  A derivation is fixed by its
    images of the coordinates, so some ``b`` fails exactly when the rows
    differ, and the first failing ``b`` of a scan over the monomials of
    degree 1 to ``d - |a|``, degree by degree, is ``y_j`` for the least
    ``j`` where they differ.
    """
    termops.check_top(d)
    pack, unpack, _ = termops.monomial_codec(L.dim)
    field_table, fden = termops.row_table(polyfield.rmatrix_bracket(r_tensor))
    halves = [(u, v, c * HALF) for (u, v), c in r_tensor.plain_items()]
    hden = math.lcm(*(c.denominator for *_, c in halves))
    halves = [(u, v, c.numerator * (hden // c.denominator)) for u, v, c in halves]
    # the row of y^e under the legs' coadjoint fields maps each leg w to
    # X_w(y^e), over xden; the row of y_j gives the X_w(y_j)
    adjoint, xden = termops.derivation_table(
        {w: polyfield.coadjoint_field(L, w) for u, v, _ in halves for w in (u, v)}, L.dim
    )
    coordinates = [
        termops.hamiltonian_row(adjoint, e, pack(e))
        for e in (termops.unit_exp(L.dim, j) for j in range(L.dim))
    ]
    cden = hden * xden * xden

    for ea in (a for k in range(1, d) for a in polyfield.monomials(L.dim, k)):
        ka = pack(ea)
        field_row = termops.hamiltonian_row(field_table, ea, ka)
        acted = termops.hamiltonian_row(adjoint, ea, ka)
        # composed twist map, skew-symmetrized: (1/2) sum c (X_u a X_v b - X_u b X_v a)
        grouped = {}
        for u, v, c in halves:
            for w, leg, s in ((v, u, c), (u, v, -c)):
                g = grouped.setdefault(w, {})
                for k, n in acted.get(leg, {}).items():
                    g[k] = g.get(k, 0) + s * n
        for j, xj in enumerate(coordinates):
            composed = {}
            for w, xb in xj.items():
                for kt, n in xb.items():
                    for k, m in grouped.get(w, {}).items():
                        k += kt
                        composed[k] = composed.get(k, 0) + m * n
            composed = {k: c for k, c in composed.items() if c}
            field = field_row.get(j, {})
            # the two routes, over cden and fden, cross-multiplied
            if composed.keys() != field.keys() or any(
                c * fden != field[k] * cden for k, c in composed.items()
            ):
                return False, {
                    "a": ea,
                    "b": termops.unit_exp(L.dim, j),
                    "composed": {unpack(k): Fraction(c, cden) for k, c in composed.items()},
                    "field": {unpack(k): Fraction(c, fden) for k, c in field.items()},
                }
    return True, None


# ---------------------------------------------------------------------------
# the symmetric-algebra family via rewriting


def straightening_rules(L):
    """U(g)'s rule table: each leading pair ``(a, b)`` with ``a > b`` goes to ``ba + [a, b]``."""
    return {
        (a, b): {(b, a): ONE, **{(m,): c for m, c in L.bracket(a, b).items()}}
        for a in range(L.dim)
        for b in range(a)
    }


def jacobi_fault_rules(L):
    """U(g)'s rules with ``-b_i`` added to the rule of ``(j, i)``, for the first
    structure pair ``(i, j)``: the Jacobi identity breaks, so confluence must fail."""
    rules = straightening_rules(L)
    i, j = sorted(L.struct)[0]
    termops.siadd(rules[(j, i)], (i,), -ONE)
    return rules


class RewriteSystem:
    """Rewriting of tensor words by a rule table, as ``straightening_rules`` builds.

    ``rules`` maps each leading pair to the word -> coefficient dict, of
    words of length at most 2, that replaces it; ``t`` scales the words
    of length below 2.  A word is normal when it contains no leading
    pair.  The table must make rewriting terminate: U(g)'s rules lower
    (length, inversion count) lexicographically.
    """

    def __init__(self, rules, t):
        self.t = t = Fraction(t)
        self.rules = {
            pair: {w: c if len(w) == 2 else t * c for w, c in rule.items() if len(w) == 2 or t}
            for pair, rule in rules.items()
        }

    def descents(self, word):
        """Positions ``k`` at which ``word[k:k + 2]`` is a leading pair."""
        return [k for k, pair in enumerate(zip(word, word[1:])) if pair in self.rules]

    def rewrite_at(self, word, k):
        """One rule application; returns a word -> coefficient dict."""
        head, tail = word[:k], word[k + 2 :]
        return {head + w + tail: c for w, c in self.rules[word[k : k + 2]].items()}

    def normal_form(self, start, strategy="leftmost"):
        """Fully reduce a word to a word -> coefficient dict."""
        combo = {start: ONE}
        while True:
            for word in sorted(combo):
                ds = self.descents(word)
                if ds:
                    k = ds[0] if strategy == "leftmost" else ds[-1]
                    termops.piadd(combo, self.rewrite_at(word, k), combo.pop(word))
                    break
            else:
                return combo


def pbw_flatness(rules, dim, degree, seed=0):
    """Normal-form counts, confluence and the formal-parameter comparison.

    Counts of normal words of each length over ``dim`` letters, read
    through ``RewriteSystem.descents``, are compared against the
    symmetric-power dimensions; local confluence is checked on every
    overlap ``abc`` (both ``ab`` and ``bc`` lead) and on seeded random
    words, for the deformed and the undeformed parameter value.
    """
    if degree > PBW_DEGREE_CAP:
        raise termops.ResourceLimitError(
            f"rewriting degree {degree} above cap {PBW_DEGREE_CAP}"
        )
    systems = [RewriteSystem(rules, ONE), RewriteSystem(rules, 0)]
    descents = systems[0].descents
    # a word is normal iff none of its adjacent letter pairs leads, so the
    # words are counted by their last letter, length by length
    pair_ok = [[not descents((a, b)) for b in range(dim)] for a in range(dim)]
    ends = [1] * dim
    counts = [1]
    for k in range(1, degree + 1):
        count = sum(ends)
        if count != math.comb(dim + k - 1, k):
            return False, {"k": k, "count": count}
        counts.append(count)
        ends = [sum(n for a, n in enumerate(ends) if pair_ok[a][b]) for b in range(dim)]

    rng = random.Random(seed)
    words = []
    for k in range(3, degree + 1):
        for _ in range(max(1, PBW_SPOT_CHECKS // max(1, degree - 2))):
            words.append(tuple(rng.randrange(dim) for _ in range(k)))
    words.extend(w for w in itertools.product(range(dim), repeat=3) if len(descents(w)) == 2)
    for system in systems:
        for word in words:
            left = system.normal_form(word, "leftmost")
            right = system.normal_form(word, "rightmost")
            if left != right:
                return False, {
                    "word": word,
                    "t": str(system.t),
                    "leftmost": {str(k): str(v) for k, v in left.items()},
                    "rightmost": {str(k): str(v) for k, v in right.items()},
                }
    return True, {"counts": counts, "confluence_words": len(words)}


# ---------------------------------------------------------------------------
# representation-evaluated identities


def faithfulness_guard(mats, msize):
    """Linear independence of the identity and the basis images."""
    return linalg.rank([linalg.mat_identity(msize), *mats]) == len(mats) + 1


def tensor_to_words(tensor):
    """Plain tensor -> list of (coefficient, tuple of one-letter words)."""
    return [(c, tuple((i,) for i in key)) for key, c in tensor.plain_items()]


def _kron_terms(mats, msize, word_terms, layout):
    """``sum c (slot_1 (x) ... (x) slot_k)`` over the word terms ``(c, legs)``.

    Each slot of ``layout`` is ``i`` for the matrix of leg ``i`` (its
    letters multiplied in order), ``("D", i)`` for the coproduct of leg
    ``i`` in the doubled representation (the product over its letters
    of ``X (x) 1 + 1 (x) X``), or ``None`` for the identity of the
    representation.  Every product goes through ``linalg.mat_kron_many``.
    """
    ident = linalg.mat_identity(msize)
    doubled = msize * msize
    primitive = {}

    def coproduct(letter):
        if letter not in primitive:
            primitive[letter] = termops.padd(
                linalg.mat_kron_many([mats[letter], ident], [msize, msize]),
                linalg.mat_kron_many([ident, mats[letter]], [msize, msize]),
            )
        return primitive[letter]

    def slot(s, legs):
        if s is None:
            return ident
        # an empty leg is the unit word, whose matrix is the identity
        if isinstance(s, int):
            factors = [mats[letter] for letter in legs[s]] or [ident]
        else:
            factors = [coproduct(letter) for letter in legs[s[1]]] or [linalg.mat_identity(doubled)]
        return functools.reduce(linalg.mat_mul, factors)

    dims = [doubled if isinstance(s, tuple) else msize for s in layout]
    total = {}
    for coeff, legs in word_terms:
        termops.piadd(
            total, linalg.mat_kron_many([slot(s, legs) for s in layout], dims), coeff
        )
    return total


# (id (x) id (x) D)T + (D (x) id (x) id)T - 1 (x) T - (id (x) D (x) id)T - T (x) 1
PENTAGON_LAYOUTS = (
    (ONE, (0, 1, ("D", 2))),
    (ONE, (("D", 0), 1, 2)),
    (-ONE, (None, 0, 1, 2)),
    (-ONE, (0, ("D", 1), 2)),
    (-ONE, (0, 1, 2, None)),
)


def pentagon_order2_check(mats, msize, word_terms):
    """Order-two shadow of the pentagon identity in the 4-fold representation.

    Checks (id (x) id (x) D)T + (D (x) id (x) id)T =
    1 (x) T + (id (x) D (x) id)T + T (x) 1 exactly, with D the undeformed
    coproduct, in the representation of the matrices ``mats`` (the
    caller guards its faithfulness).  Legs may be words; for single-letter
    legs the identity is structural (primitives are coboundary-free),
    which the report notes.
    """
    total = {}
    for sign, layout in PENTAGON_LAYOUTS:
        termops.piadd(total, _kron_terms(mats, msize, word_terms, layout), sign)
    if total:
        key = min(total)
        return False, {"position": key, "value": str(total[key]), "nonzero_entries": len(total)}
    single_letter = all(all(len(w) == 1 for w in words) for _, words in word_terms)
    return True, {
        "note": (
            "single-letter legs are primitive, so the identity holds for any "
            "3-tensor over the algebra; the check certifies the evaluation chain"
            if single_letter
            else "word legs exercise the coproduct nontrivially"
        ),
    }


def order_h_factorization_check(mats, msize, word_terms):
    """Order-one factorized coproduct relations for a 2-tensor with word legs.

    (D (x) id)rho = rho_13 + rho_23 and (id (x) D)rho = rho_13 + rho_12;
    these hold exactly when every leg is primitive and fail otherwise.
    """

    def kron(layout):
        return _kron_terms(mats, msize, word_terms, layout)

    rho_13 = kron((0, None, 1))
    lhs1 = kron((("D", 0), 1))
    rhs1 = termops.padd(rho_13, kron((None, 0, 1)))
    lhs2 = kron((0, ("D", 1)))
    rhs2 = termops.padd(rho_13, kron((0, 1, None)))
    ok1 = lhs1 == rhs1
    ok2 = lhs2 == rhs2
    if ok1 and ok2:
        return True, None
    return False, {"first_relation": ok1, "second_relation": ok2}


def coproduct_conjugation_check(L, rho_words):
    """Order-one R-matrix conjugation in the defining representation.

    The commutator of ``rho = t/2 - r``, given as word terms, with the
    primitive coproduct of each basis element reduces to minus that of
    ``r`` (the symmetric tensor is invariant), with the first failing
    basis element as the witness.
    """
    ct = liealg.canonical_tensors(L)
    mats, msize = L.matrices, L.msize
    rho_hat = _kron_terms(mats, msize, rho_words, (0, 1))
    r_hat = _kron_terms(mats, msize, tensor_to_words(ct.r_sd), (0, 1))
    t_hat = _kron_terms(mats, msize, tensor_to_words(ct.t), (0, 1))
    failing = None
    t_commutes = True
    for x in range(L.dim):
        dx = _kron_terms(mats, msize, [(ONE, ((x,),))], (("D", 0),))
        lhs = linalg.mat_commutator(rho_hat, dx)
        rhs = termops.pscale(linalg.mat_commutator(r_hat, dx), -ONE)
        if lhs != rhs and failing is None:
            failing = L.names[x]
        if linalg.mat_commutator(t_hat, dx):
            t_commutes = False
    if failing is not None:
        return False, {"x": failing}
    return True, {
        "symmetric_tensor_commutes": t_commutes,
        "note": "dropping the symmetric tensor gives the same commutator",
    }

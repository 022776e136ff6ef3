"""Sparse exact term-algebra kernels.

Every kernel lives in ``pure``; this package re-exports them so that
callers reach each one as ``termops.<name>``.  ``pure`` also describes
the zero-free sparse format the kernels share and the four kernels
(``siadd``, ``piadd``, ``padd``, ``pscale``) that every sum in the
package goes through.  ``BACKEND`` and ``backends()`` name the single
backend for reports that record it.
"""

from . import pure

BACKEND = "pure"

padd = pure.padd
pscale = pure.pscale
piadd = pure.piadd
pmul = pure.pmul
pderive = pure.pderive
ptruncate = pure.ptruncate
unit_exp = pure.unit_exp
apply_derivation = pure.apply_derivation
merge_ders = pure.merge_ders
siadd = pure.siadd
smul = pure.smul
wedge_push = pure.wedge_push
sn_bracket = pure.sn_bracket
kveval = pure.kveval
bivector_table = pure.bivector_table
bivector_eval = pure.bivector_eval
table_bracket = pure.table_bracket


def backends():
    """Return the available backends as a name -> module mapping."""
    return {"pure": pure}

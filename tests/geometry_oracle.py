"""The earlier pullback, kept as the oracle for tests.

``pullback`` is copied from the version that ran one term loop per half of
the congruence J^T M J: for each output component it read every entry
(k, l) of g and of b through the accessors, and substituted each nonzero one
again, so a stored entry was substituted once per output component and once
more, negated, for each b entry below the diagonal. The package substitutes
each stored entry once and applies one congruence to both halves; its
components are compared with this one's by identity.
"""

from tdual.expr import ZERO, add, mul, substitute
from tdual.geometry import SingularJacobian, _det, _nonzero_somewhere, metric


def pullback(m, f):
    if f.chart != m.chart:
        raise ValueError("diffeo and metric charts differ")
    jac = f.jacobian()
    if m.sample is not None and not _nonzero_somewhere(_det(jac), m.sample):
        raise SingularJacobian("Jacobian determinant vanishes on sample domain")
    binds = f.bindings()
    n = m.chart.dim
    g_new, b_new = {}, {}
    for i in range(n):
        for j in range(i, n):
            g_terms, b_terms = [], []
            for k in range(n):
                for l in range(n):
                    gkl = m.g(k, l)
                    if gkl != ZERO:
                        g_terms.append(mul(jac[k][i], jac[l][j], substitute(gkl, binds)))
                    bkl = m.b(k, l)
                    if bkl != ZERO:
                        b_terms.append(mul(jac[k][i], jac[l][j], substitute(bkl, binds)))
            g_new[(i, j)] = add(*g_terms)
            if i != j:
                b_new[(i, j)] = add(*b_terms)
    return metric(m.chart, g_new, b_new, m.sample)


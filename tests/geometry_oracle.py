"""The earlier pullback and multi-center profiles, kept as the oracles for tests.

``pullback`` is copied from the version that ran one term loop per half of
the congruence J^T M J: for each output component it read every entry
(k, l) of g and of b through the accessors, and substituted each nonzero one
again, so a stored entry was substituted once per output component and once
more, negated, for each b entry below the diagonal. Every term is built,
those with a ZERO Jacobian factor included. It differentiates and
substitutes through ``expr_oracle`` and takes its determinant from ``det``,
a dense Leibniz expansion over all n! permutations, so it shares none of the
package's shortcuts: the package substitutes each stored entry once, keeps a
subtree that no substitution changes, and leaves out every term with a ZERO
factor. Its components are compared with this one's by identity.

``multi_center_table`` is the multi-center profile that computed every
center's distance and all three gradient components at each call, whatever
the order asked for. The package registers only the value, which computes no
gradient, and its value closure is compared with this one's bit for bit.

``radial_table`` is the radial collinear profile as float closures, one per
center summand and one for their sum, each derivative order worked out by
hand. The package builds these profiles as expression trees and
differentiates them as it does any tree; their values and r-derivatives are
compared with these closures to a relative tolerance.
"""

import math
from itertools import permutations

import expr_oracle
from tdual.expr import ZERO, FunctionTable, OpaqueFunction, add, mul, rat
from tdual.geometry import SingularJacobian, _nonzero_somewhere, metric


def det(mat):
    n = len(mat)
    terms = []
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        terms.append(mul(rat((-1) ** inversions), *[mat[i][perm[i]] for i in range(n)]))
    return add(*terms)


def pullback(m, f):
    if f.chart != m.chart:
        raise ValueError("diffeo and metric charts differ")
    names = f.chart.names
    jac = [[expr_oracle.differentiate(t, x) for x in names] for t in f.targets]
    if m.sample is not None and not _nonzero_somewhere(det(jac), m.sample):
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
                        g_terms.append(mul(jac[k][i], jac[l][j], expr_oracle.substitute(gkl, binds)))
                    bkl = m.b(k, l)
                    if bkl != ZERO:
                        b_terms.append(mul(jac[k][i], jac[l][j], expr_oracle.substitute(bkl, binds)))
            g_new[(i, j)] = add(*g_terms)
            if i != j:
                b_new[(i, j)] = add(*b_terms)
    return metric(m.chart, g_new, b_new, m.sample)


def _unit_vectors(theta, phi):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    n = (st * cp, st * sp, ct)
    dn_dtheta = (ct * cp, ct * sp, -st)
    dn_dphi = (-st * sp, st * cp, 0.0)
    return n, dn_dtheta, dn_dphi


def multi_center_table(centers):
    weight = 0.5

    def dists_and_grads(r, theta, phi):
        n, dnt, dnp = _unit_vectors(theta, phi)
        x = (r * n[0], r * n[1], r * n[2])
        out = []
        for c in centers:
            d = (x[0] - c[0], x[1] - c[1], x[2] - c[2])
            dist = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
            if dist == 0.0:
                raise ZeroDivisionError
            ddr = (d[0] * n[0] + d[1] * n[1] + d[2] * n[2]) / dist
            ddt = r * (d[0] * dnt[0] + d[1] * dnt[1] + d[2] * dnt[2]) / dist
            ddp = r * (d[0] * dnp[0] + d[1] * dnp[1] + d[2] * dnp[2]) / dist
            out.append((dist, ddr, ddt, ddp))
        return out

    def factory(deriv):
        if sum(deriv) > 1:
            return None

        def fn(r, theta, phi, g):
            data = dists_and_grads(r, theta, phi)
            if not any(deriv):
                return g ** -2 + sum(weight / dist for dist, *_ in data)
            if deriv[3:] == (1,):
                return -2.0 * g ** -3
            slot = deriv.index(1)
            return sum(-weight * grads[slot] / dist ** 2 for dist, *grads in data)

        return fn

    return FunctionTable([OpaqueFunction("Hp", 4, closure_factory=factory)])


def radial_table(radii):
    """Radial collinear profile in the unit normalization: Hrad(r) = 1 + sum
    1/(r - ri) and the per-center summands Hcen<i>(r) = 1/(r - ri).

    Valid for r strictly above every center radius; all derivative orders
    are closed-form: d^k/dr^k (r - ri)^-1 = (-1)^k k! (r - ri)^-(k+1).
    """
    def summand(ri):
        def factory(deriv):
            (k,) = deriv

            def fn(r):
                if r <= ri:
                    raise ZeroDivisionError
                if k == 0:
                    return 1.0 / (r - ri)
                return ((-1.0) ** k) * math.factorial(k) / (r - ri) ** (k + 1)

            return fn
        return factory

    def profile(deriv):
        terms = [summand(ri)(deriv) for ri in radii]

        def fn(r):
            tot = 1.0 if deriv == (0,) else 0.0
            for term in terms:       # in order, as a plain float sum
                tot += term(r)
            return tot

        return fn

    fns = [OpaqueFunction(f"Hcen{i}", 1, closure_factory=summand(ri))
           for i, ri in enumerate(radii)]
    fns.append(OpaqueFunction("Hrad", 1, closure_factory=profile))
    return FunctionTable(fns)

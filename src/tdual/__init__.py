"""tdual: topological T-duality toolkit for semi-free circle actions.

Subpackages by concern:

* :mod:`tdual.expr`       exact symbolic expression trees and seeded equality
* :mod:`tdual.geometry`   metrics, B-fields, Buscher dualization
* :mod:`tdual.intlin`     integer matrices, Smith normal form, lattices
* :mod:`tdual.complexes`  finite cell complexes, products, subcomplexes
* :mod:`tdual.cohomology` integer (co)homology, pairs, cross products
* :mod:`tdual.gerbes`     Cech cocycle 2-/3-gerbes and their dualization
* :mod:`tdual.semifree`   classification and T-duals of semi-free circle spaces
* :mod:`tdual.cli`        command-line front end
"""

__version__ = "0.1.0"

# The defaults of tdual.expr.equal_numeric and the registry names of
# tdual.complexes.builtin_space, here so the CLI parser loads no layer module.
DEFAULT_SEED = 42
DEFAULT_TRIALS = 100
DEFAULT_TOL = 1e-9
MAX_CELLS = 100_000     # most cells of a named size: wedge:<k>, --centers, a custom complex,
                        # and most entries of a gerbe cover's cochain in one nerve degree
BUILTIN_NAMES = ("pt", "S1", "S2", "S3", "S2xS1", "S3xS1", "CP2", "coneS2",
                 "S3plus", "D2", "L1p:2", "L1p:3", "L1p:7", "wedge:1", "wedge:4")

"""Integer (co)homology of finite cell complexes, pairs, and products.

Groups are read only off the ranks and invariant factors of the coboundary
matrices, never off a basis; homology groups too, as transposing keeps
both, so no chain space is built. Classes are integer cochain vectors
reduced to canonical coordinates modulo coboundaries, which two full SNFs
(of the coboundary and of the relations, never of a kernel basis) build on
the first query that reads them; class equality, generator
extraction, induced maps, connecting maps, and exactness checks are all
exact integer computations. Cross product with the circle generator and
integration over the circle fiber act at the cochain level on product
complexes and are strict chain-level inverses; each reads the degree off
the class's space and refuses a class whose space is not one of the
complex's own.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .complexes import CellComplex, NotASubcomplex, _is_circle, circle
from .intlin import IMat, invariant_factors, kernel_basis, lattice_equal, rank_q, solve


class NotAProduct(ValueError):
    pass


class NotACocycle(ValueError):
    pass


class _Group(NamedTuple):
    free_rank: int
    torsion: tuple = ()


class AbelianGroup(_Group):
    """Finitely generated abelian group: free rank plus divisibility-ordered
    torsion coefficients (each > 1, each dividing the next)."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple = ()):
        for t in torsion:
            if t <= 1:
                raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion list must be in divisibility order")
        return super().__new__(cls, free_rank, torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


Z = AbelianGroup(1)
TRIVIAL = AbelianGroup(0)


# ---------------------------------------------------------------------------
# subquotient spaces: ker(out_map) / im(in_map)

class SubquotientSpace:
    """The abelian group ker(out_map)/im(in_map), with coordinates on demand.

    ``out_map``: Z^n -> Z^q and ``in_map``: Z^m -> Z^n must compose to zero;
    the factories, whose complexes are checked where built, skip that check.
    ``group()`` is always read off the two maps, never off coordinates:
    ker(out_map) is a saturated sublattice of Z^n holding im(in_map), so the
    quotient has free rank n - rank(out_map) - rank(in_map) and the torsion
    of Z^n/im(in_map), the non-unit invariant factors of ``in_map``.
    Elements are integer vectors in Z^n lying in ker(out_map); ``reduce``
    maps them to canonical coordinates (torsion residues, then free parts),
    and ``generators`` returns one representative per cyclic factor. Only
    those class paths read the coordinates (``kernel_coords``, ``kernel_cols``,
    ``rel``, ``snf`` and the slots, None until then): ``out_map``'s SNF gives
    the kernel basis V[:, r:] and its left inverse V^-1[r:], and the SNF of
    ``rel = V^-1[r:] @ in_map`` the coordinates. They are built once, on the
    first call of ``reduce``, ``generators``,
    ``class_from_coords``, ``relations_lattice``, ``coord_dim`` or
    ``GroupHom.matrix``. ``group()`` and ``GroupHom.apply`` build none;
    ``CohClass.is_zero`` builds them only for a nonzero vector in a nontrivial group.
    """

    def __init__(self, n: int, out_map: IMat, in_map: IMat, label: str = "", trusted: bool = False):
        if out_map.cols != n or in_map.rows != n:
            raise ValueError("shape mismatch")
        if not trusted and not (out_map @ in_map).is_zero():
            raise ValueError("image does not lie in the kernel")
        self.n = n
        self.label = label
        self.out_map = out_map
        self.in_map = in_map
        self._group = None
        self.kernel_coords = self.kernel_cols = self.rel = self.snf = None
        self.torsion_slots = self.free_slots = self.torsion_values = None

    def _coordinates(self):
        if self.snf is not None:
            return
        out_snf = self.out_map.snf()
        r = out_snf.rank
        self.kernel_cols = out_snf.v_t.nz[r:]     # column j of the kernel basis V[:, r:]
        # V^-1[r:] inverts it on its span, which holds in_map: out_map @ in_map = 0
        self.kernel_coords = IMat.of(self.n - r, self.n, out_snf.vinv.nz[r:])    # z x n
        self.rel = self.kernel_coords @ self.in_map     # z x m
        snf = self.rel.snf()
        diag = snf.diagonal()
        self.torsion_slots = [i for i in range(snf.rank) if diag[i] > 1]
        self.free_slots = list(range(snf.rank, self.n - r))
        self.torsion_values = [diag[i] for i in self.torsion_slots]
        self.snf = snf

    def group(self) -> AbelianGroup:
        if self._group is None:
            self._group = _quotient_group(self.n, self.out_map, self.in_map)
        return self._group

    @property
    def coord_dim(self) -> int:
        self._coordinates()
        return len(self.torsion_slots) + len(self.free_slots)

    def reduce(self, vec) -> tuple:
        """Canonical coordinates of the class of ``vec``, a checked cocycle."""
        vec = list(vec)
        self._check_cocycle(vec)
        return self._reduced(vec)

    def _check_cocycle(self, vec):
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        if any(self.out_map.mul_vec(vec)):
            raise NotACocycle(f"vector is not a cocycle in {self.label}")

    def _reduced(self, vec) -> tuple:
        # the kernel basis is saturated, so V^-1[r:] @ vec are a cocycle's coordinates in it
        self._coordinates()
        y = self.snf.u_times(enumerate(self.kernel_coords.mul_vec(vec)))
        out = [y.get(i, 0) % self.torsion_values[k] for k, i in enumerate(self.torsion_slots)]
        out.extend(y.get(i, 0) for i in self.free_slots)
        return tuple(out)

    def relations_lattice(self) -> IMat:
        """Columns generating the subgroup of coordinate vectors that are zero."""
        dim = self.coord_dim
        return IMat.from_columns([[t if i == k else 0 for i in range(dim)]
                                  for k, t in enumerate(self.torsion_values)], dim)

    def _add_generator(self, vec: list, slot: int, coeff: int):
        # vec += coeff * kernel @ (column slot of U^-1), over that column's nonzeros
        for j, x in self.snf.uinv_t.nz[slot].items():
            for i, k in self.kernel_cols[j].items():
                vec[i] += coeff * x * k

    def generators(self) -> list["CohClass"]:
        self._coordinates()
        gens = []
        for slot in self.torsion_slots + self.free_slots:
            vec = [0] * self.n
            self._add_generator(vec, slot, 1)
            gens.append(CohClass(self, tuple(vec)))
        return gens

    def class_from_coords(self, coords) -> "CohClass":
        self._coordinates()
        vec = [0] * self.n
        for coeff, slot in zip(coords, self.torsion_slots + self.free_slots):
            if coeff:
                self._add_generator(vec, slot, coeff)
        return CohClass(self, tuple(vec))

    def zero(self) -> "CohClass":
        return CohClass(self, (0,) * self.n)


def _quotient_group(n: int, out_map: IMat, in_map: IMat) -> AbelianGroup:
    """ker(out_map)/im(in_map) on Z^n, off a rank and invariant factors."""
    factors = invariant_factors(in_map)
    return AbelianGroup(n - rank_q(out_map) - len(factors), tuple(d for d in factors if d > 1))


class CohClass(NamedTuple):
    """A cohomology class: a cocycle representative in its ambient space,
    equal to another of the same space when their reduced coordinates are."""

    space: SubquotientSpace
    vector: tuple

    def reduced(self) -> tuple:
        return self.space.reduce(self.vector)

    def is_zero(self) -> bool:
        """A cocycle test by one ``out_map`` product, then True for a zero vector or a
        trivial group on a space with no coordinates yet; else compare coordinates."""
        space = self.space
        space._check_cocycle(self.vector)
        if not any(self.vector) or (space.snf is None and space.group() == TRIVIAL):
            return True
        return not any(space._reduced(self.vector))

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        if self.space is not other.space:
            raise ValueError("classes live in different spaces")
        return self.reduced() == other.reduced()

    def __ne__(self, other):        # tuple's own would compare the fields
        return not self == other

    def __hash__(self):
        return hash((id(self.space), self.reduced()))

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.space is not other.space:
            raise ValueError("classes live in different spaces")
        return CohClass(self.space, tuple(a + b for a, b in zip(self.vector, other.vector)))

    def __neg__(self) -> "CohClass":
        return CohClass(self.space, tuple(-a for a in self.vector))

    def __rmul__(self, k: int) -> "CohClass":
        return CohClass(self.space, tuple(k * a for a in self.vector))


# ---------------------------------------------------------------------------
# absolute / relative cochain spaces, cached in the complex's ``derived``

def cochain_space(x: CellComplex, k: int) -> SubquotientSpace:
    space = x.derived.get(("abs", k))
    if space is None:
        space = x.derived[("abs", k)] = SubquotientSpace(
            x.n_cells(k), x.coboundary(k + 1), x.coboundary(k),
            label=f"H^{k}({x.name})", trusted=True)
    return space


def chain_space(x: CellComplex, k: int) -> SubquotientSpace:
    space = x.derived.get(("hom", k))
    if space is None:
        space = x.derived[("hom", k)] = SubquotientSpace(
            x.n_cells(k), x.bmat(k), x.bmat(k + 1), label=f"H_{k}({x.name})")
    return space


def cohomology(x: CellComplex, k: int) -> AbelianGroup:
    """H^k(X; Z) from the invariant factors of the coboundary matrices."""
    if k < 0:
        return TRIVIAL
    return cochain_space(x, k).group()


def homology(x: CellComplex, k: int) -> AbelianGroup:
    """H_k(X; Z) off the coboundaries; ``chain_space(x, k).group()`` is the oracle."""
    if k < 0:
        return TRIVIAL
    return _quotient_group(x.n_cells(k), x.coboundary(k), x.coboundary(k + 1))


def relative_cochain_space(x: CellComplex, a_ids, k: int) -> SubquotientSpace:
    """Cochains of X vanishing on a subcomplex A, i.e. functions on X-A cells;
    boundaries of A-cells stay in A, so dropping A-coordinates commutes with delta."""
    key = ("rel", frozenset(a_ids), k)
    space = x.derived.get(key)
    if space is None:
        a_ids = x.check_subcomplex(a_ids)
        below, cells, above = (_relative_cells(x, a_ids, d) for d in (k - 1, k, k + 1))
        space = x.derived[key] = SubquotientSpace(
            len(cells), _restricted_coboundary(x, k, cells, above),
            _restricted_coboundary(x, k - 1, below, cells), label=f"H^{k}({x.name}, A)",
            trusted=True)
    return space


def _relative_cells(x: CellComplex, a_ids, k: int) -> list:
    """The k-cells of X - A in X's order: the basis of relative k-cochains."""
    a_ids = frozenset(a_ids)
    return [c for c in x.cell_ids(k) if c not in a_ids]


# ---------------------------------------------------------------------------
# homomorphisms between class spaces

class GroupHom:
    """A homomorphism between subquotient spaces, given by a cochain-level
    matrix; stored as its action on reduced coordinates."""

    def __init__(self, domain: SubquotientSpace, codomain: SubquotientSpace,
                 cochain_matrix: IMat, name: str = ""):
        self.domain = domain
        self.codomain = codomain
        self.cochain_matrix = cochain_matrix
        self.name = name

    @cached_property
    def matrix(self) -> IMat:
        """The action on reduced coordinates, built on the first read; raises
        ``NotACocycle`` if the cochain matrix sends a cocycle off the cocycles."""
        cols = [list(self.codomain.reduce(self.cochain_matrix.mul_vec(list(gen.vector))))
                for gen in self.domain.generators()]
        return IMat.from_columns(cols, self.codomain.coord_dim)

    def apply(self, cls: CohClass) -> CohClass:
        if cls.space is not self.domain:
            raise ValueError("class not in the domain of this map")
        img = self.cochain_matrix.mul_vec(list(cls.vector))
        return CohClass(self.codomain, tuple(img))

    def preimage(self, cls: CohClass) -> CohClass | None:
        """Some class mapping to ``cls``, or None if outside the image."""
        if cls.space is not self.codomain:
            raise ValueError("class not in the codomain of this map")
        sol = solve(self.image_lattice(), list(cls.reduced()))
        if sol is None:
            return None
        return self.domain.class_from_coords(sol[:self.matrix.cols])

    def rank(self) -> int:
        return rank_q(self.matrix)

    def image_lattice(self) -> IMat:
        return self.matrix.hstack(self.codomain.relations_lattice())

    def kernel_lattice(self) -> IMat:
        kern = kernel_basis(self.matrix.hstack(self.codomain.relations_lattice().neg()))
        x_part = IMat.of(self.matrix.cols, kern.cols, kern.nz[:self.matrix.cols])
        return x_part.hstack(self.domain.relations_lattice())

    def is_iso(self) -> bool:
        if self.domain.group() != self.codomain.group():
            return False
        onto = lattice_equal(self.image_lattice(),
                             IMat.identity(self.codomain.coord_dim))
        inj = lattice_equal(self.kernel_lattice(), self.domain.relations_lattice())
        return onto and inj


def exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Exactness of  A --f--> B --g--> C  at B: image f == kernel g."""
    if f.codomain is not g.domain:
        raise ValueError("maps do not share the middle space")
    if f.codomain.group() == TRIVIAL:
        return True
    return lattice_equal(f.image_lattice(), g.kernel_lattice())


def _ones(rows: int, cols: int, at) -> IMat:
    """The rows x cols 0/1 matrix with a 1 at each (row, column) of ``at``."""
    nz = [{} for _ in range(rows)]
    for i, j in at:
        nz[i][j] = 1
    return IMat.of(rows, cols, nz)


def excision_hom(big: CellComplex, big_a_ids, small: CellComplex, small_a_ids,
                 k: int) -> GroupHom:
    """Restriction H^k(big, big-A) -> H^k(small, small-A) induced by an
    inclusion of pairs; the excision isomorphism when the relative cells
    agree. Cells of the small pair must appear in the big complex."""
    dom = relative_cochain_space(big, big_a_ids, k)
    cod = relative_cochain_space(small, small_a_ids, k)
    pos = {c: i for i, c in enumerate(_relative_cells(big, big_a_ids, k))}
    cells = _relative_cells(small, small_a_ids, k)
    for cell in cells:
        if cell not in pos:
            raise NotASubcomplex(
                f"relative cell {cell} of the small pair missing from the big pair")
    return GroupHom(dom, cod, _ones(cod.n, dom.n, ((j, pos[c]) for j, c in enumerate(cells))),
                    name=f"excision^{k}")


# ---------------------------------------------------------------------------
# the long exact sequence of a pair

def _restricted_coboundary(x: CellComplex, k: int, src: list, dst: list) -> IMat:
    """delta_X: C^k -> C^{k+1} with columns the k-cells ``src`` and rows the
    (k+1)-cells ``dst``; coefficients outside these cells are dropped."""
    pos, cob = {x.index(k, cell): j for j, cell in enumerate(src)}, x.coboundary(k + 1).nz
    return IMat.of(len(dst), len(src), [
        {pos[i]: c for i, c in cob[x.index(k + 1, up)].items() if i in pos} for up in dst])


def relative_inclusion_hom(x: CellComplex, a_ids, k: int) -> GroupHom:
    """j*: H^k(X, A) -> H^k(X), inclusion of relative cochains."""
    rel = relative_cochain_space(x, a_ids, k)
    return GroupHom(rel, cochain_space(x, k), _ones(x.n_cells(k), rel.n, (
        (x.index(k, cell), j) for j, cell in enumerate(_relative_cells(x, a_ids, k)))), f"j*{k}")


def connecting_hom(x: CellComplex, a_ids, k: int) -> GroupHom:
    """delta: H^k(A) -> H^{k+1}(X, A): extend by zero, apply delta_X, restrict."""
    a = x.subcomplex(a_ids)
    rel_next = relative_cochain_space(x, a_ids, k + 1)
    return GroupHom(cochain_space(a, k), rel_next, _restricted_coboundary(
        x, k, a.cell_ids(k), _relative_cells(x, a_ids, k + 1)), f"d{k}")


class LESNode(NamedTuple):
    label: str
    group: AbelianGroup
    exact: bool | None    # None at the two open ends
    __hash__ = None


class LESReport(NamedTuple):
    nodes: list
    maps: dict

    @property
    def all_exact(self) -> bool:
        return all(n.exact for n in self.nodes if n.exact is not None)


def long_exact_sequence(x: CellComplex, a_ids) -> LESReport:
    """Groups and maps of ... -> H^k(X,A) -> H^k(X) -> H^k(A) -> H^{k+1}(X,A) -> ...
    with exactness verified at every interior node by exact lattice comparison."""
    a_ids = x.check_subcomplex(a_ids)
    a = x.subcomplex(a_ids, name=f"{x.name}|A")
    top = x.top + 1
    maps = {}
    for k in range(top + 1):
        maps[("j", k)] = relative_inclusion_hom(x, a_ids, k)
        restrict = _ones(a.n_cells(k), x.n_cells(k),
                         ((j, x.index(k, cell)) for j, cell in enumerate(a.cell_ids(k))))
        maps[("i", k)] = GroupHom(cochain_space(x, k), cochain_space(a, k), restrict, f"i*{k}")
        maps[("d", k)] = connecting_hom(x, a_ids, k)
    nodes = []
    for k in range(top + 1):
        nodes.append(LESNode(f"H^{k}(X,A)", maps[("j", k)].domain.group(),
                             exact_at(maps[("d", k - 1)], maps[("j", k)]) if k else None))
        nodes.append(LESNode(f"H^{k}(X)", maps[("j", k)].codomain.group(),
                             exact_at(maps[("j", k)], maps[("i", k)])))
        nodes.append(LESNode(f"H^{k}(A)", maps[("i", k)].codomain.group(),
                             exact_at(maps[("i", k)], maps[("d", k)])))
    return LESReport(nodes, maps)


# ---------------------------------------------------------------------------
# circle products: cross with z and fiber integration

def _require_circle_product(xs1: CellComplex) -> CellComplex:
    if not xs1.product_of:
        raise NotAProduct(f"{xs1.name} was not built as a product")
    base, fiber = xs1.product_of
    if not _is_circle(fiber):
        raise NotAProduct("second factor is not the standard circle model")
    return base


def cross_with_z_vector(x: CellComplex, xs1: CellComplex, vec, k: int) -> list:
    """(c x z) on (k+1)-cells of X x S^1: value c(sigma) on sigma x e, else 0."""
    out = [0] * xs1.n_cells(k + 1)
    e = circle().cell_ids(1)[0]
    for j, cell in enumerate(x.cell_ids(k)):
        out[xs1.index(k + 1, (cell, e))] = vec[j]
    return out


def fiber_integrate_vector(x: CellComplex, xs1: CellComplex, vec, k: int) -> list:
    """Slant against the circle 1-cell: sigma -> c(sigma x e)."""
    e = circle().cell_ids(1)[0]
    return [vec[xs1.index(k, (cell, e))] for cell in x.cell_ids(k - 1)]


def cross_with_z(cls: CohClass, xs1: CellComplex) -> CohClass:
    """H^k(X) -> H^{k+1}(X x S^1), cross product with the circle generator."""
    base = _require_circle_product(xs1)
    k = _degree_of_space(cls.space, base)
    vec = cross_with_z_vector(base, xs1, list(cls.vector), k)
    return CohClass(cochain_space(xs1, k + 1), tuple(vec))


def fiber_integrate(cls: CohClass, xs1: CellComplex) -> CohClass:
    """H^k(X x S^1) -> H^{k-1}(X); strict left inverse of cross_with_z."""
    base = _require_circle_product(xs1)
    k = _degree_of_space(cls.space, xs1)
    vec = fiber_integrate_vector(base, xs1, list(cls.vector), k)
    return CohClass(cochain_space(base, k - 1), tuple(vec))


def _degree_of_space(space: SubquotientSpace, x: CellComplex) -> int:
    for k in range(x.top + 1):
        if x.derived.get(("abs", k)) is space:
            return k
    raise ValueError(f"class space does not belong to this complex: {space.label}")


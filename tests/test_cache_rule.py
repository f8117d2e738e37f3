"""The cache rule of ``tdual.complexes``: everything derived from a complex is
cached once, in the ``derived`` of one owner, and no process-lived complex
(a fixed builtin or a cube I^k) keeps a complex alive that would otherwise
be freed. A product is owned by its first factor, unless only that factor
is process-lived; then by its second."""

import gc
import tracemalloc
import weakref

from tdual import complexes as cx
from tdual.cohomology import cochain_space, cohomology, relative_cochain_space
from tdual.gerbes import CoverNerve

N = 50


def _process_lived() -> list:
    """The seven fixed builtins and the cubes I^2..I^4."""
    return [cx.point(), cx.circle(), cx.interval(), cx.cone_on_s2(), cx.s3_two_disc(),
            cx.cp2(), cx.disc2()] + [cx.interval_power(k) for k in (2, 3, 4)]


def _fresh(tag: int) -> cx.CellComplex:
    """A fresh lens space, or a twin of the circle: equal to ``circle()`` by
    ``==`` and by name, and still not the process-lived one."""
    if tag % 2:
        return cx.build_complex("S1", {0: ["a"], 1: ["e"]})
    return cx.build_complex(f"L{tag}", {0: ["e0"], 1: ["e1"], 2: ["e2"], 3: ["e3"]},
                            {2: {("e1", "e2"): 3}})


def _derive_all(f: cx.CellComplex, lived: list) -> list:
    """Every kind of object derived from ``f``: products with each
    process-lived complex on either side, X x S^1, a subcomplex, class
    spaces, a crossed cover and a disc bundle. Returns the complexes."""
    products = [cx.product_complex(b, f) for b in lived] + [cx.product_complex(f, b) for b in lived]
    assert all(cx.product_complex(b, f) is p for b, p in zip(lived, products))
    xs1, vertices = cx.product_with_circle(f), frozenset(f.cell_ids(0))
    sub = f.subcomplex(vertices)
    cochain_space(f, 1)
    relative_cochain_space(f, vertices, 1)
    assert cohomology(f, 1).free_rank == (f.name == "S1")     # H^1 of L(1,3) is 0
    CoverNerve(f, [f.all_ids(), vertices]).crossed(xs1)
    total = cx.trivial_disc_bundle(f, 4)[0]
    return [f, xs1, sub, total, *products]


def test_process_lived_complexes_keep_no_fresh_complex_alive():
    lived = _process_lived()
    keys = [list(b.derived) for b in lived]
    _derive_all(_fresh(-1), lived)        # module caches fill before the count
    gc.collect()
    refs = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for tag in range(N):
            refs += map(weakref.ref, _derive_all(_fresh(tag), lived))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert [r().name for r in refs if r() is not None] == []
    assert [list(b.derived) for b in lived] == keys
    assert retained < 2 ** 18      # 32 MB when every fresh complex was kept


def test_each_cube_is_built_once(monkeypatch):
    built, build = [], cx._product

    def counting(x, y, name):
        built.append(name)
        return build(x, y, name)

    with monkeypatch.context() as m:
        m.setattr(cx, "_process_lived", cx._ProcessLived())
        m.setattr(cx, "_product", counting)
        cubes = [cx.interval_power(k) for k in (4, 2, 5, 3, 4, 5)]
        assert built == ["I^2", "I^3", "I^4", "I^5"]
        assert cubes[0] is cubes[4] and cubes[2] is cubes[5]


def test_no_complex_holds_a_cube():
    cubes = [cx.interval_power(k) for k in range(1, 6)]
    for x in _process_lived() + cubes:
        assert not any(v is c for v in x.derived.values() for c in cubes)

"""Cech gerbe cocycle algebra: validity checks, characteristic classes,
gauge invariance, and the constructive dualization map."""

import gc
import random
import re
import weakref
from itertools import combinations
from math import comb

import pytest

import gerbe_oracle
from tdual.cohomology import CohClass, cochain_space, cross_with_z
from tdual import gerbes
from tdual.complexes import (build_complex, interval_power, product_complex,
                             product_with_circle, s3_two_disc, sphere)
from tdual.gerbes import (
    CoverNerve, InvalidGerbe, MalformedNerve, ModelMismatch, ThreeGerbe, TwoGerbe,
    characteristic_class_two_gerbe, check_three_gerbe, check_two_gerbe,
    gauge_perturb, kk_gerbe_models, monopole_two_gerbe,
    semifree_class_to_two_gerbe, tdualize_two_gerbe, total_class, total_coboundary,
    trivial_bundle_gerbe_models, two_gerbe_from_class,
    validate_nerve_flags,
)


@pytest.fixture(scope="module")
def bplus():
    return s3_two_disc()


@pytest.fixture(scope="module")
def two_patch_cover(bplus):
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    return CoverNerve(bplus, [inner, outer])


@pytest.fixture(scope="module")
def six_patch_cover(bplus):
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    return CoverNerve(bplus, [inner, outer, inner, outer, inner, outer])


@pytest.fixture(scope="module")
def generator_cocycle(bplus):
    return list(cochain_space(bplus, 3).generators()[0].vector)


# ---------------------------------------------------------------------------
# nerves

def test_cover_must_exhaust_space(bplus):
    with pytest.raises(MalformedNerve):
        CoverNerve(bplus, [frozenset({"u", "f2"})])


def test_nerve_tuples_and_models(six_patch_cover):
    assert len(six_patch_cover.tuples(1)) == 15
    assert len(six_patch_cover.tuples(4)) == 6
    model = six_patch_cover.model((0, 1))
    assert set(model.all_ids()) == {"u", "f2"}


def test_model_is_one_table_entry_in_any_order(six_patch_cover):
    for q in (1, 2, 3):
        for t in six_patch_cover.tuples(q):
            assert six_patch_cover.model(t) is six_patch_cover.model(t[::-1])


@pytest.mark.parametrize("t", [(0, 0), (1, 1, 2), (0, 6), (6,), (-1, 0), ()])
def test_model_rejects_tuples_outside_the_nerve(six_patch_cover, t):
    with pytest.raises(MalformedNerve, match="is not a nonempty nerve tuple") as err:
        six_patch_cover.model(t)
    assert err.value.witness == t


def test_model_rejects_an_empty_intersection(bplus):
    # the vertex v and the outer patch do not meet
    cover = CoverNerve(bplus, [frozenset({"v"}), frozenset({"u", "f2", "c3out"}),
                               frozenset({"v", "u", "a", "f2", "c3"})])
    assert (0, 1) not in cover.tuples(1)
    with pytest.raises(MalformedNerve):
        cover.model((1, 0))


@pytest.mark.parametrize("build", [s3_two_disc, lambda: product_with_circle(sphere(2)),
                                   lambda: product_complex(s3_two_disc(), interval_power(1)),
                                   lambda: product_complex(s3_two_disc(), build_complex(
                                       "S1", {0: ["a"], 1: ["e"]}, {1: {("a", "e"): 2}}))])
def test_crossing_needs_the_product_with_the_circle(two_patch_cover, build):
    with pytest.raises(ModelMismatch, match=r"is not S3\+ x S\^1$"):
        two_patch_cover.crossed(build())


def test_a_twin_circle_product_crosses_and_dualizes(two_patch_cover, generator_cocycle):
    # the circle's cells and faces, built again: a product with it is X x S^1
    twin = product_complex(two_patch_cover.space, build_complex("S1", {0: ["a"], 1: ["e"]}))
    crossed = two_patch_cover.crossed(twin)
    assert crossed.space is twin and crossed.tuples(1) == two_patch_cover.tuples(1)
    g = two_gerbe_from_class(two_patch_cover, generator_cocycle, scramble_seed=3)
    dual = tdualize_two_gerbe(g, twin)
    rep = check_three_gerbe(dual)
    assert rep.passed
    assert rep.characteristic_class == cross_with_z(characteristic_class_two_gerbe(g), twin)
    assert not rep.characteristic_class.is_zero()


def test_a_patch_must_kill_the_class(bplus, generator_cocycle):
    whole = CoverNerve(bplus, [frozenset(bplus.all_ids())])
    with pytest.raises(ModelMismatch, match="patch 0 does not trivialize the class"):
        two_gerbe_from_class(whole, generator_cocycle)


def test_downward_closure_violation_detected():
    flags = {(0,): True, (1,): True, (2,): True,
             (0, 1): True, (0, 2): True, (1, 2): False, (0, 1, 2): True}
    assert validate_nerve_flags(flags) == (0, 1, 2)
    assert validate_nerve_flags({(0,): True, (1,): True, (0, 1): True}) is None


def test_inconsistent_reorderings_rejected(two_patch_cover):
    u12 = two_patch_cover.model((0, 1))
    vec = [0] * u12.n_cells(2)
    vec[u12.index(2, "f2")] = 1
    with pytest.raises(MalformedNerve):
        TwoGerbe(two_patch_cover, p={(0, 1): vec, (1, 0): vec})


@pytest.mark.parametrize("layer, key", [("p", (0,)), ("theta", (1, 0)), ("mu", (0, 1, 2))])
def test_a_tuple_of_the_wrong_length_names_its_layer(two_patch_cover, layer, key):
    expects = {"p": 2, "theta": 3, "mu": 4}[layer]
    with pytest.raises(MalformedNerve, match=rf"^{layer} tuple {re.escape(str(key))} has "
                       rf"length {len(key)}; the {layer} layer expects {expects}$") as err:
        TwoGerbe(two_patch_cover, **{layer: {key: [0]}})
    assert err.value.witness == key


def test_antisymmetric_access(two_patch_cover):
    g = monopole_two_gerbe(3)
    assert g.pair_class(0, 1) == -1 * g.pair_class(1, 0)


# ---------------------------------------------------------------------------
# validity and classes

def test_trivial_gerbe_passes_with_zero_class(two_patch_cover):
    rep = check_two_gerbe(TwoGerbe(two_patch_cover))
    assert rep.passed
    assert rep.characteristic_class.is_zero()


@pytest.mark.parametrize("n", [0, 1, 2, -3])
def test_monopole_clutching_class(bplus, n):
    rep = check_two_gerbe(monopole_two_gerbe(n))
    assert rep.passed
    gen = cochain_space(bplus, 3).generators()[0]
    assert rep.characteristic_class == n * gen


def test_clutching_datum_is_the_degree_n_cocycle():
    g = monopole_two_gerbe(4)
    u12 = g.cover.model((0, 1))
    assert g.p[(0, 1)][u12.index(2, "f2")] == 4


def test_violation_reported_with_witness(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=5)
    quad = six_patch_cover.tuples(3)[2]
    bad_mu = dict(g.mu)
    bad_mu[quad] = list(bad_mu[quad])
    bad_mu[quad][0] += 1
    bad = TwoGerbe(six_patch_cover, g.p, g.theta, bad_mu)
    rep = check_two_gerbe(bad)
    assert not rep.passed
    failing = rep.failures()[0]
    assert failing.witness is not None
    with pytest.raises(InvalidGerbe):
        characteristic_class_two_gerbe(bad)


def test_seeded_construction_realizes_the_class(six_patch_cover, bplus, generator_cocycle):
    space = cochain_space(bplus, 3)
    for mult in (-2, 0, 1, 3):
        s = [mult * v for v in generator_cocycle]
        g = two_gerbe_from_class(six_patch_cover, s, scramble_seed=17)
        rep = check_two_gerbe(g)
        assert rep.passed
        assert rep.characteristic_class.reduced() == space.reduce(s)


def test_scrambled_gerbe_has_nontrivial_sections(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=23)
    assert any(any(vec) for vec in g.theta.values())
    assert any(any(vec) for vec in g.mu.values())


def test_characteristic_class_is_gauge_invariant(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, [2 * v for v in generator_cocycle],
                             scramble_seed=3)
    base = characteristic_class_two_gerbe(g)
    for seed in range(20):
        gp = gauge_perturb(g, seed)
        rep = check_two_gerbe(gp)
        assert rep.passed
        assert rep.characteristic_class == base


def test_localized_datum_perturbations(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=9)
    base = characteristic_class_two_gerbe(g)
    rng = random.Random(0)
    pairs = six_patch_cover.tuples(1)
    triples = six_patch_cover.tuples(2)
    for k in range(30):
        gp = gauge_perturb(g, seed=1000 + k, pair=pairs[rng.randrange(len(pairs))])
        rep = check_two_gerbe(gp)
        assert rep.passed and rep.characteristic_class == base
        gt = gauge_perturb(g, seed=2000 + k, triple=triples[rng.randrange(len(triples))])
        rep = check_two_gerbe(gt)
        assert rep.passed and rep.characteristic_class == base


# ---------------------------------------------------------------------------
# the total differential against the face-by-face oracle

INNER = frozenset({"v", "u", "a", "f2", "c3"})
OUTER = frozenset({"u", "f2", "c3out"})

# (input nerve degrees, total degree) of every total differential taken: the
# 2- and 3-gerbe checks, their gauge transformations (one layer fewer, one
# degree down) and each staircase step D(w) of the 2- and 3-gerbe classes
TOTAL_SHAPES = ([((1, 2, 3), 3), ((1, 2, 3, 4), 4), ((1, 2), 2)]
                + [((q,), 2) for q in range(3)] + [((q,), 3) for q in range(4)])


def _random_comps(cover, qs, degree, rng):
    return {q: {t: [rng.randint(-3, 3) for _ in range(cover.model(t).n_cells(degree - q))]
                for t in cover.tuples(q)}
            for q in qs}


def _assert_total_coboundary_matches_oracle(cover, rng):
    """The streams of D against the face-by-face oracle and against the
    tuple-major operators, on random tuple-keyed data."""
    tm = gerbe_oracle.TupleMajor(cover)
    for qs, degree in TOTAL_SHAPES:
        comps = _random_comps(cover, qs, degree, rng)
        got = total_coboundary(cover, {q: tm.by_pattern(data, q, degree - q)
                                       for q, data in comps.items()}, degree)
        want = gerbe_oracle.total_coboundary(cover, comps, degree)
        assert list(got) == list(want) == list(range(qs[0], qs[-1] + 2))
        assert tm.total_coboundary(comps, degree) == want
        for q, slot in want.items():
            assert list(slot) == cover.tuples(q) == tm.tuples(q)
            assert got[q] == tm.by_pattern(slot, q, degree + 1 - q), (qs, degree, q)
            assert cover._tuple_major(got[q], q, degree + 1 - q) == slot


@pytest.mark.parametrize("crossed", [False, True], ids=["plain", "crossed"])
@pytest.mark.parametrize("size", range(2, 9))
def test_total_coboundary_matches_the_face_by_face_oracle(bplus, size, crossed):
    rng = random.Random(100 * size + crossed)
    sets = [INNER, OUTER] + [rng.choice((INNER, OUTER)) for _ in range(size - 2)]
    rng.shuffle(sets)
    cover = CoverNerve(bplus, sets)
    if crossed:
        cover = cover.crossed(product_with_circle(bplus))
    _assert_total_coboundary_matches_oracle(cover, rng)


def test_total_coboundary_matches_the_oracle_on_six_patches(six_patch_cover):
    _assert_total_coboundary_matches_oracle(six_patch_cover, random.Random(6))


def _closure(space, cells):
    out, stack = set(), list(cells)
    while stack:
        cell = stack.pop()
        if cell not in out:
            out.add(cell)
            stack.extend(space.faces[cell])
    return frozenset(out)


def _random_cover(space, size, rng):
    """``size`` subcomplexes, each the closure of one or two random cells
    (the last also closes whatever the others miss), with at least three
    distinct sets and at least one empty pair intersection."""
    cells = sorted(space.all_ids(), key=str)
    while True:
        sets = [_closure(space, rng.sample(cells, rng.randint(1, 2))) for _ in range(size - 1)]
        sets.append(_closure(space, space.all_ids().difference(*sets) or rng.sample(cells, 1)))
        rng.shuffle(sets)
        cover = CoverNerve(space, sets)
        if len(set(sets)) >= 3 and len(cover.tuples(1)) < comb(size, 2):
            return cover


RANDOM_SPACES = {"S3+": s3_two_disc, "I^3": lambda: interval_power(3)}


@pytest.mark.parametrize("crossed", [False, True], ids=["plain", "crossed"])
@pytest.mark.parametrize("size", [3, 4, 6, 9, 12])
@pytest.mark.parametrize("space", sorted(RANDOM_SPACES))
def test_total_coboundary_matches_the_oracle_on_random_covers(space, size, crossed):
    rng = random.Random(f"{space} {size} {crossed}")
    cover = _random_cover(RANDOM_SPACES[space](), size, rng)
    if crossed:
        cover = cover.crossed(product_with_circle(cover.space))
    _assert_total_coboundary_matches_oracle(cover, rng)


@pytest.mark.parametrize("crossed", [False, True], ids=["plain", "crossed"])
@pytest.mark.parametrize("size", [3, 5, 8])
@pytest.mark.parametrize("space", sorted(RANDOM_SPACES))
def test_nerve_tuples_and_models_equal_the_brute_force_filter(space, size, crossed):
    """In every degree, the tuples read off the patterns are the combinations
    whose sets meet, in combinations order, and each model is the subcomplex
    on the intersection."""
    cover = _random_cover(RANDOM_SPACES[space](), size, random.Random(f"{space} {size}"))
    if crossed:
        cover = cover.crossed(product_with_circle(cover.space))
    for q in range(size + 1):
        meets = {t: frozenset.intersection(*(cover.sets[i] for i in t))
                 for t in combinations(range(size), q + 1)}
        assert cover.tuples(q) == [t for t, ids in meets.items() if ids]
        for t in cover.tuples(q):
            assert cover.model(t) is cover.space.subcomplex(meets[t])
            assert cover.model(t[::-1]) is cover.model(t)


def _layers(g):
    return [getattr(g, layer.attr) for layer in g.layers]


def _corrupted(g, rng):
    """g with one entry changed on about half the tuples of each layer."""
    data = _layers(g)
    for vec in (vec for layer in data for vec in layer.values() if vec and rng.random() < 0.5):
        vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
    return type(g)(g.cover, *data)


@pytest.mark.parametrize("size", [4, 5, 7, 9])
def test_pattern_major_gerbes_match_the_tuple_major_operators_on_covers_of_the_cube(size):
    """On random covers of I^3 (with non-full nerves): the scramble, every
    support mode of gauge_perturb, the checks of valid and failing 2- and
    3-gerbes (witness tuples and cell ids) and the dualization, each against
    the tuple-major operators; gauge_perturb also against the hand-written
    formulas."""
    rng = random.Random(size)
    cube = interval_power(3)
    squares = cube.cell_ids(2) + cube.cell_ids(3)
    while True:     # closures of squares (opposite ones are disjoint) and of the cube
        sets = [_closure(cube, rng.sample(squares, rng.randint(1, 3))) for _ in range(size)]
        rest = cube.all_ids().difference(*sets) or rng.sample(squares, 1)
        cover = CoverNerve(cube, sets + [_closure(cube, rest)])
        if len(cover.tuples(1)) < comb(size + 1, 2):
            break
    tm = gerbe_oracle.TupleMajor(cover)
    zero = [0] * cover.space.n_cells(3)
    g = two_gerbe_from_class(cover, zero, scramble_seed=size)
    assert _layers(g) == tm.gauge_perturb(two_gerbe_from_class(cover, zero), size)
    assert any(map(any, g.mu.values()))
    pairs, triples = cover.tuples(1), cover.tuples(2)
    for support in ({}, {"pair": rng.choice(pairs)[::-1]}, {"triple": rng.choice(triples)}):
        got = gauge_perturb(g, 7, **support)
        assert _layers(got) == tm.gauge_perturb(g, 7, **support)
        want = gerbe_oracle.gauge_perturb(g, 7, **support)
        assert (got.p, got.theta, got.mu) == (want.p, want.theta, want.mu)
    xs1 = product_with_circle(cover.space)
    dual = tdualize_two_gerbe(g, xs1)
    assert _layers(dual) == tm.dualize(g, xs1)
    dual_tm = gerbe_oracle.TupleMajor(dual.cover)
    triple = rng.choice(triples)
    for support in ({}, {"pair": rng.choice(pairs)}, {"triple": triple}):
        assert _layers(gauge_perturb(dual, 3, **support)) == \
            dual_tm.gauge_perturb(dual, 3, **support)
    passed = []
    for gerbe, oracle in ((g, tm), (dual, dual_tm), (_corrupted(g, rng), tm),
                          (_corrupted(dual, rng), dual_tm)):
        rep = (check_two_gerbe if gerbe.layers is TwoGerbe.layers else check_three_gerbe)(gerbe)
        rows, cls = oracle.check(gerbe)
        assert _report_rows(rep) == rows
        assert rep.characteristic_class == cls
        passed.append(rep.passed)
    # a changed entry on a tuple that no slot reaches can leave a valid gerbe
    assert passed[:2] == [True, True] and not all(passed[2:])


# proper subcomplexes of the two-disc S^3: each kills H^3, and {v} misses OUTER
FAMILY = [INNER, OUTER, frozenset({"v"}), frozenset({"u"}), frozenset({"u", "f2"}),
          frozenset({"v", "u", "a"}), frozenset({"v", "u", "a", "f2"}),
          frozenset({"v", "u", "a", "f2", "c3out"})]


def _family_cover(bplus, size, rng):
    while True:
        sets = [INNER, OUTER] + [rng.choice(FAMILY) for _ in range(size - 2)]
        rng.shuffle(sets)
        cover = CoverNerve(bplus, sets)
        if len(set(sets)) >= 3 and len(cover.tuples(1)) < comb(size, 2):
            return cover


def _class_outcome(total_class, cover, comps, degree):
    try:
        return total_class(cover, comps, degree).vector
    except InvalidGerbe:
        return "not a total cocycle"


@pytest.mark.parametrize("size", [3, 4, 5, 7, 9, 12])
def test_total_class_matches_the_oracle_on_random_covers(bplus, generator_cocycle, size):
    rng = random.Random(size)
    cover = _family_cover(bplus, size, rng)
    multiple = rng.choice((-2, -1, 1, 3))
    g = two_gerbe_from_class(cover, [multiple * v for v in generator_cocycle],
                             scramble_seed=rng.randrange(10 ** 6))
    dual = tdualize_two_gerbe(g)
    for gerbe in (g, dual):
        tm = gerbe_oracle.TupleMajor(gerbe.cover)
        comps = {layer.q: getattr(gerbe, layer.attr) for layer in gerbe.layers}
        n = len(gerbe.layers)
        got = total_class(gerbe.cover, dict(zip(comps, gerbe._streams)), n)
        assert got.vector == gerbe_oracle.total_class(gerbe.cover, comps, n).vector
        assert got.vector == tm.total_class(comps, n).vector
        assert got.reduced() == (multiple,)
        # one corrupted entry of the highest layer with data: all agree on the outcome
        q = max(q for q, data in comps.items() if any(map(any, data.values())))
        data = {t: list(vec) for t, vec in comps[q].items()}
        t = rng.choice([t for t, vec in data.items() if vec])
        data[t][rng.randrange(len(data[t]))] += 1
        comps[q] = data
        streams = {q: tm.by_pattern(data, q, n - q) for q, data in comps.items()}
        outcome = _class_outcome(total_class, gerbe.cover, streams, n)
        assert outcome == _class_outcome(gerbe_oracle.total_class, gerbe.cover, comps, n)
        assert outcome == _class_outcome(lambda _, c, n: tm.total_class(c, n), None, comps, n)


@pytest.mark.parametrize("crossed", [False, True], ids=["plain", "crossed"])
@pytest.mark.parametrize("size", [3, 6, 10])
def test_staircase_of_an_exact_cocycle_matches_the_oracle(size, crossed):
    """D(x) for random x one row below a 2-gerbe, on random covers of the cube:
    every level contracts, and the glued cochains agree entry for entry."""
    rng = random.Random(size + crossed)
    cover = _random_cover(interval_power(3), size, rng)
    if crossed:
        cover = cover.crossed(product_with_circle(cover.space))
    comps = gerbe_oracle.total_coboundary(cover, _random_comps(cover, (1, 2), 2, rng), 2)
    tm = gerbe_oracle.TupleMajor(cover)
    got = total_class(cover, {q: tm.by_pattern(data, q, 3 - q) for q, data in comps.items()}, 3)
    assert got.vector == gerbe_oracle.total_class(cover, comps, 3).vector
    assert got.vector == tm.total_class(comps, 3).vector
    assert got.is_zero()


def test_face_plans_stay_within_their_bound():
    for cache, key in ((gerbes._plan, lambda k: (2, 1, k, False)),
                       (gerbes._ranks, lambda k: (k + 2, (0, k + 1), 1))):
        bound = cache.cache_info().maxsize
        assert bound == gerbes._PLANS
        for k in range(1, bound + 20):
            cache(*key(k))
        assert cache.cache_info().currsize <= bound


def test_pattern_table_dies_with_its_cover(bplus, generator_cocycle):
    class Table(dict):      # a dict that can be weakly referenced
        pass

    class Patterns(list):
        pass

    cover = CoverNerve(bplus, [INNER, OUTER, frozenset({"v", "u", "a"})] * 2)
    cover._pattern_of, cover._patterns = Table(cover._pattern_of), Patterns(cover._patterns)
    cover._nerve, cover._tables = Table(), Table()
    g = two_gerbe_from_class(cover, generator_cocycle, scramble_seed=3)
    dual = tdualize_two_gerbe(g)
    assert check_three_gerbe(dual).passed
    assert len(cover._nerve) > 0 and len(cover._tables) > 0
    assert dual.cover._nerve is cover._nerve
    tables = (cover._pattern_of, cover._patterns, cover._nerve, cover._tables)
    probes = [weakref.ref(table) for table in tables]
    del cover, g, dual, tables
    gc.collect()
    assert [probe() for probe in probes] == [None] * 4


def _gauge_cases():
    """(cover sets, support mode, seed): covers of 3-8 sets, each size in
    every mode; the vertex patch misses the outer one, so the two index no
    nerve pair."""
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    vertex = frozenset({"v"})
    rng = random.Random(808)
    modes = ("all", "pair", "reversed pair", "triple", "both", "non-nerve pair")
    for k in range(36):
        size, mode = 3 + k // 6, modes[k % 6]
        sets = ([inner, outer, vertex if mode == "non-nerve pair" else inner]
                + [rng.choice((inner, outer, vertex)) for _ in range(size - 3)])
        rng.shuffle(sets)
        yield pytest.param(sets, mode, rng.randrange(10 ** 6),
                           id=f"{size}sets-{mode.replace(' ', '-')}")


def _report_rows(rep):
    return [(c.name, c.where, c.ok, c.witness) for c in rep.conditions]


@pytest.mark.parametrize("sets, mode, seed", list(_gauge_cases()))
def test_gauge_perturb_matches_the_hand_written_formulas(bplus, generator_cocycle,
                                                         sets, mode, seed):
    cover = CoverNerve(bplus, sets)
    g = two_gerbe_from_class(cover, [2 * v for v in generator_cocycle], scramble_seed=seed)
    rng = random.Random(seed)
    pairs, triples = cover.tuples(1), cover.tuples(2)
    pair = pairs[rng.randrange(len(pairs))]
    triple = triples[rng.randrange(len(triples))] if triples else None
    if mode == "non-nerve pair":
        pair = (sets.index(frozenset({"v"})), sets.index(frozenset({"u", "f2", "c3out"})))
    support = {"all": {}, "pair": {"pair": pair}, "reversed pair": {"pair": pair[::-1]},
               "triple": {"triple": triple}, "both": {"pair": pair, "triple": triple},
               "non-nerve pair": {"pair": pair}}[mode]
    got = gauge_perturb(g, seed + 1, **support)
    want = gerbe_oracle.gauge_perturb(g, seed + 1, **support)
    assert (got.p, got.theta, got.mu) == (want.p, want.theta, want.mu)
    rep, rep_want = check_two_gerbe(got), check_two_gerbe(want)
    assert _report_rows(rep) == _report_rows(rep_want)
    assert rep.passed and rep.characteristic_class == rep_want.characteristic_class
    if mode == "non-nerve pair":
        assert (got.p, got.theta, got.mu) == (g.p, g.theta, g.mu)


def test_gauge_perturbed_dual_keeps_its_class(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=12)
    xs1 = product_with_circle(six_patch_cover.space)
    tg = tdualize_two_gerbe(g, xs1)
    base = check_three_gerbe(tg)
    assert base.passed
    for seed, support in ((1, {}), (2, {"pair": (4, 1)}), (3, {"triple": (0, 2, 5)})):
        gp = gauge_perturb(tg, seed, **support)
        assert isinstance(gp, ThreeGerbe)
        assert (gp.a, gp.gamma, gp.eta) != (tg.a, tg.gamma, tg.eta)
        rep = check_three_gerbe(gp)
        assert rep.passed
        assert rep.characteristic_class == base.characteristic_class
        assert rep.characteristic_class == cross_with_z(check_two_gerbe(g).characteristic_class,
                                                        xs1)


def test_matching_failure_names_the_cell_of_the_slot(bplus):
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    cover = CoverNerve(bplus, [inner, outer, inner])
    u01 = cover.model((0, 1))
    vec = [0] * u01.n_cells(2)
    vec[u01.index(2, "f2")] = 1
    # delta_n p is nonzero on the 2-cell f2 of U_012, which has no 1-cells
    rep = check_two_gerbe(TwoGerbe(cover, p={(0, 1): vec}))
    failure = rep.failures()[0]
    assert (failure.name, failure.where, failure.witness) == ("p_theta_matching", (0, 1, 2),
                                                              "f2")


def test_tensor_adds_classes(bplus):
    g1, g2 = monopole_two_gerbe(1), monopole_two_gerbe(2)
    total = g1.tensor(g2)
    # oracle: the tensor data is literally the cochain sum
    assert total.p[(0, 1)] == [a + b for a, b in zip(g1.p[(0, 1)], g2.p[(0, 1)])]
    gen = cochain_space(bplus, 3).generators()[0]
    assert characteristic_class_two_gerbe(total) == 3 * gen


# ---------------------------------------------------------------------------
# dualization

def test_dualized_monopole_class_is_cross_product(bplus):
    xs1 = product_with_circle(bplus)
    for n in (1, 2, -3):
        g = monopole_two_gerbe(n)
        tg = tdualize_two_gerbe(g, xs1)
        rep = check_three_gerbe(tg)
        assert rep.passed
        crossed = cross_with_z(characteristic_class_two_gerbe(g), xs1)
        assert rep.characteristic_class == crossed
        assert not crossed.is_zero()


def test_dual_of_trivial_gerbe_is_trivial(two_patch_cover):
    tg = tdualize_two_gerbe(TwoGerbe(two_patch_cover))
    rep = check_three_gerbe(tg)
    assert rep.passed
    assert rep.characteristic_class.is_zero()


def test_dual_pair_data_restricts_to_crossed_line_bundle():
    g = monopole_two_gerbe(2)
    xs1 = product_with_circle(g.cover.space)
    tg = tdualize_two_gerbe(g, xs1)
    pm = g.cover.model((0, 1))
    pmx = tg.cover.model((0, 1))
    vec = [0] * pmx.n_cells(3)
    for j, cell in enumerate(pm.cell_ids(2)):
        vec[pmx.index(3, (cell, "e"))] = g.pair_class(0, 1).vector[j]
    assert tg.pair_class(0, 1) == CohClass(cochain_space(pmx, 3), tuple(vec))


def test_dualization_rejects_invalid_input(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=5)
    bad_mu = dict(g.mu)
    quad = six_patch_cover.tuples(3)[0]
    bad_mu[quad] = [v + 1 if i == 0 else v for i, v in enumerate(bad_mu[quad])]
    bad = TwoGerbe(six_patch_cover, g.p, g.theta, bad_mu)
    want = "gerbe fails validity: mu_nerve_cocycle at (0, 1, 2, 3, 4)"
    for run in (tdualize_two_gerbe, characteristic_class_two_gerbe):
        with pytest.raises(InvalidGerbe) as err:
            run(bad)
        assert str(err.value) == want


def test_dualization_checks_the_slots_but_not_the_class(six_patch_cover, generator_cocycle,
                                                         monkeypatch):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=5)
    staircases = []
    real = gerbes.total_class
    monkeypatch.setattr(gerbes, "total_class", lambda *a: staircases.append(a) or real(*a))
    tdualize_two_gerbe(g)
    assert staircases == []
    characteristic_class_two_gerbe(g)
    assert len(staircases) == 1


def test_corrupted_eta_fails_three_gerbe_check():
    g = monopole_two_gerbe(1)
    cover6 = CoverNerve(g.cover.space, list(g.cover.sets) * 3)
    g6 = two_gerbe_from_class(cover6, [v for v in _gen_vec(g.cover.space)],
                              scramble_seed=2)
    tg = tdualize_two_gerbe(g6)
    bad_eta = dict(tg.eta)
    quad = tg.cover.tuples(3)[0]
    bad_eta[quad] = [v + 1 if i == 0 else v for i, v in enumerate(bad_eta[quad])]
    bad = ThreeGerbe(tg.cover, tg.a, tg.gamma, bad_eta, tg.nu)
    rep = check_three_gerbe(bad)
    assert not rep.passed
    assert rep.failures()[0].witness is not None


def test_corrupted_nu_fails_only_the_top_slot_with_a_cell_witness(six_patch_cover,
                                                                   generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=4)
    tg = tdualize_two_gerbe(g)
    quint = tg.cover.tuples(4)[0]
    bad_nu = dict(tg.nu)
    # a constant on the connected five-fold model is a cell cocycle, so the
    # eta/nu matching holds and only the six-fold nerve slot sees it
    bad_nu[quint] = [v + 1 for v in bad_nu[quint]]
    rep = check_three_gerbe(ThreeGerbe(tg.cover, tg.a, tg.gamma, tg.eta, bad_nu))
    failures = rep.failures()
    assert [f.name for f in failures] == ["nu_nerve_cocycle"]
    (six,) = tg.cover.tuples(5)
    assert failures[0].where == six
    assert failures[0].witness in tg.cover.model(six).cell_ids(0)
    assert rep.characteristic_class is None


def test_the_cube_cover_of_the_three_torus_dualizes_its_generator():
    """The cubical 3-torus (C_4)^3, 512 cells, covered by the closures of its
    64 top cubes: every vertex lies in 8 of them, so the nerve reaches
    degree 7 and has 64 * C(8, 5) tuples of degree 4."""
    c4 = build_complex("C4", {0: [f"v{i}" for i in range(4)], 1: [f"e{i}" for i in range(4)]},
                       {1: {**{(f"v{i}", f"e{i}"): -1 for i in range(4)},
                            **{(f"v{(i + 1) % 4}", f"e{i}"): 1 for i in range(4)}}})
    torus = product_complex(product_complex(c4, c4), c4, name="T3")
    assert sum(map(len, torus.cells.values())) == 512
    cover = CoverNerve(torus, [_closure(torus, [cube]) for cube in torus.cell_ids(3)])
    (gen,) = cochain_space(torus, 3).generators()
    g = two_gerbe_from_class(cover, list(gen.vector), scramble_seed=3)
    rep = check_two_gerbe(g)
    assert rep.passed and rep.characteristic_class == gen
    xs1 = product_with_circle(torus)
    rep3 = check_three_gerbe(tdualize_two_gerbe(g, xs1))
    assert rep3.passed
    assert rep3.characteristic_class == cross_with_z(rep.characteristic_class, xs1)
    assert len(cover.tuples(4)) == 3584
    for cache in (gerbes._plan, gerbes._ranks):
        assert cache.cache_info().currsize <= gerbes._PLANS


def _gen_vec(bplus):
    return list(cochain_space(bplus, 3).generators()[0].vector)


def test_fifty_random_gerbes_dualize_with_exact_class_equality():
    rng = random.Random(20240601)
    bplus = s3_two_disc()
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    gen = _gen_vec(bplus)
    xs1 = product_with_circle(bplus)
    for trial in range(50):
        size = rng.randint(2, 6)
        sets = [inner, outer] + [rng.choice([inner, outer]) for _ in range(size - 2)]
        cover = CoverNerve(bplus, sets)
        mult = rng.randint(-4, 4)
        g = two_gerbe_from_class(cover, [mult * v for v in gen],
                                 scramble_seed=rng.randrange(10 ** 6))
        rep2 = check_two_gerbe(g)
        assert rep2.passed
        tg = tdualize_two_gerbe(g, xs1)
        rep3 = check_three_gerbe(tg)
        assert rep3.passed, (trial, rep3.failures()[0])
        assert rep3.characteristic_class == cross_with_z(rep2.characteristic_class, xs1)


# ---------------------------------------------------------------------------
# semi-free data to gerbes

def test_single_monopole_class_pushes_to_generator():
    models = kk_gerbe_models()
    lam = cochain_space(models.complement_model(), 2).generators()[0]
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    assert pushed == cochain_space(models.bplus, 3).generators()[0]
    assert characteristic_class_two_gerbe(gerbe) == pushed


def test_zero_class_gives_trivial_gerbe():
    models = kk_gerbe_models()
    lam = cochain_space(models.complement_model(), 2).zero()
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    assert pushed.is_zero()
    assert characteristic_class_two_gerbe(gerbe).is_zero()


@pytest.mark.parametrize("rank", [4, 5])
def test_codimension_above_three_vanishes(rank):
    models = trivial_bundle_gerbe_models(rank)
    sp = cochain_space(models.complement_model(), 2)
    lam = sp.generators()[0]
    assert not lam.is_zero()
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    assert pushed.is_zero()
    assert characteristic_class_two_gerbe(gerbe) == pushed


def test_codimension_below_one_is_refused():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        trivial_bundle_gerbe_models(0)


def test_wrong_class_home_rejected():
    from tdual.gerbes import ModelMismatch
    models = kk_gerbe_models()
    lam = cochain_space(sphere(2), 2).generators()[0]
    with pytest.raises(ModelMismatch):
        semifree_class_to_two_gerbe(lam, models)

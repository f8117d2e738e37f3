"""Seeded workloads for the tdual benchmark.

Each workload turns a seed into a fixed op list. An op list is made of
blocks with the same multiset of op kinds in every block; the seed chooses
each op's inputs and the order inside each block. A fixed composition keeps
the median and p90 on the same rungs of the size ladder for every seed,
while the inputs differ. Every op checks its own answer against a value
known independently of the code under test and raises on a wrong one.

The ladders put most ops on small models and about a tenth to a sixth on
large ones, so ``op_p50_s`` follows small models and ``op_p90_s`` large ones.

Each workload also says how many passes of its op list a run makes and
``speed_exponent``: its ops' times grow as that power of the reference
kernel's time when other load slows the machine (fitted per workload, see
``README.md``).
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class WrongAnswer(AssertionError):
    """The program returned an answer that disagrees with the oracle."""


def expect(ok, what: str):
    if not ok:
        raise WrongAnswer(what)


@dataclass
class Op:
    kind: str                 # rung of the ladder, e.g. "coupling400-gh"
    params: dict = field(default_factory=dict)


def _blocks(seed: int, block: list, n_blocks: int, make, rotating=()) -> list:
    """``n_blocks`` copies of ``block`` (a list of kinds), block ``i`` plus
    ``rotating[i % len(rotating)]`` when given, shuffled per block; each kind
    becomes an Op through ``make(kind, rng)``."""
    rng = random.Random(seed)
    ops = []
    for i in range(n_blocks):
        kinds = list(block) + ([rotating[i % len(rotating)]] if rotating else [])
        rng.shuffle(kinds)
        ops.extend(make(kind, rng) for kind in kinds)
    return ops


def n_blocks(seconds: float, block_seconds: float, min_blocks: int) -> int:
    """Blocks for a pass of about ``seconds`` at this repository's first
    baseline; fixed by the arguments so every commit does the same work.
    ``min_blocks`` keeps at least 100 ops, so 10 lie beyond the p90."""
    return max(min_blocks, round(seconds / block_seconds))


# ---------------------------------------------------------------------------
# identity: Buscher duals certified by seeded randomized identity checks

class Identity:
    """Why: nearly all work is in ``expr`` and ``geometry``, and the integer
    layers do none, so it is the bypass workload for SNF changes."""

    name = "identity"
    modules = ("tdual.expr", "tdual.geometry")
    block = (["taub-nut-gh"] * 3 + ["taub-nut-inv"] * 3 + ["dyonic"] * 4
             + ["multi2", "multi3", "multi5", "multi8"]
             + ["coupling25-gh", "coupling25-inv", "coupling50-gh"] + ["coupling100-gh"] * 3)
    block_seconds = 1.07
    min_blocks = 5
    passes = 2
    speed_exponent = 1.0

    def make_ops(self, seed: int, blocks: int) -> list:
        def make(kind, rng):
            p = {"seed": rng.randrange(10 ** 6)}
            if kind.startswith("multi"):
                count = int(kind[5:])
                centers = []
                while len(centers) < count:
                    c = tuple(round(rng.uniform(-0.9, 0.9), 3) for _ in range(3))
                    if c not in centers:
                        centers.append(c)
                p["centers"] = centers
            elif kind.startswith("coupling"):
                terms = int(kind[8:].split("-")[0])
                p["terms"] = [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 3))
                              for _ in range(terms)]
            return Op(kind, p)
        return _blocks(seed, self.block, blocks, make)

    def run(self, op: Op):
        from tdual import expr as ex, geometry as geo
        seed = op.params["seed"]
        kind = op.kind
        if kind.startswith("taub-nut"):
            m = geo.make_taub_nut()
        elif kind == "dyonic":
            beta = ex.sym("beta")
            m = geo.with_b_field(geo.make_taub_nut(), geo.dyonic_b_field(beta))
            ref = geo.h_monopole_metric(m.g_upper[(1, 1)], m.sample)
            target = geo.pullback(ref, geo.dyonic_shift(beta))
            ok, wit = geo.metrics_equal(geo.buscher_transform(m), target, seed=seed,
                                        compare_b=False)
            return expect(ok, f"dyonic identity fails at {wit}")
        elif kind.startswith("multi"):
            fam = geo.MultiCenterFamily(op.params["centers"])
            ok, wit = geo.metrics_equal(geo.buscher_transform(fam.metric()),
                                        fam.dual_reference(), seed=seed, compare_b=False)
            return expect(ok, f"{kind} dual is not H((dk)^2 + dr.dr) at {wit}")
        else:
            g = ex.sym("g")
            coupling = ex.add(*[ex.mul(ex.rat(n, d), ex.pow_(g, e))
                                for n, d, e in op.params["terms"]])
            text = json.dumps(geo.make_taub_nut(coupling).to_json())
            m = geo.MetricData.from_json(json.loads(text), sample=geo.taub_nut_sample_spec())
        dual = geo.buscher_transform(m)
        if kind.endswith("-gh"):
            ref = geo.h_monopole_metric(m.g_upper[(1, 1)], m.sample)
            ok, wit = geo.metrics_equal(dual, ref, seed=seed, compare_b=False)
            expect(ok, f"{kind}: dual is not H((dk)^2 + dr.dr) at {wit}")
        else:
            ok, wit = geo.metrics_equal(geo.buscher_transform(dual), m, seed=seed)
            expect(ok, f"{kind}: double dual differs from the input at {wit}")


# ---------------------------------------------------------------------------
# homology: integer cohomology of freshly built complexes

def _group(free: int, *torsion: int):
    from tdual.cohomology import AbelianGroup
    return AbelianGroup(free, tuple(t for t in torsion if t > 1))


class Homology:
    """Why: dense SNF dominates and ``expr`` does no work. Complexes are
    built fresh with ``build_complex``, so no cache turns an op into a lookup."""

    name = "homology"
    modules = ("tdual.complexes", "tdual.cohomology", "tdual.gerbes")
    block = (["lens"] * 4 + ["lens-x-circle"] * 4 + ["wedge200"] * 6 + ["codim4"] * 2
             + ["wedge600"] * 3)
    rotating = ("wedge1600", "codim5", "wedge600", "wedge600", "wedge600")  # one per block
    block_seconds = 1.2
    min_blocks = 5
    passes = 2
    speed_exponent = 0.6

    def make_ops(self, seed: int, blocks: int) -> list:
        def make(kind, rng):
            p = {"tag": f"x{rng.randrange(10 ** 6)}"}
            if kind.startswith("lens"):
                p["p"] = rng.randint(2, 97)
            elif kind.startswith("wedge"):
                p["count"] = int(kind[5:])
                p["dim"] = rng.choice((2, 3))
            else:
                p["multiple"] = rng.choice([m for m in range(-5, 6) if m])
            return Op(kind, p)
        return _blocks(seed, self.block, blocks, make, self.rotating)

    def run(self, op: Op):
        from tdual import cohomology as co, complexes as cx
        p, tag = op.params, op.params["tag"]
        if op.kind.startswith("lens"):
            q = p["p"]
            lens = cx.build_complex(f"L{tag}", {0: ["e0"], 1: ["e1"], 2: ["e2"], 3: ["e3"]},
                                    {2: {("e1", "e2"): q}})
            known = [_group(1), _group(0), _group(0, q), _group(1)]   # H^k(L(1,p))
            if op.kind == "lens":
                for k, g in enumerate(known):
                    expect(co.cohomology(lens, k) == g, f"H^{k}(L(1,{q}))")
                expect(co.homology(lens, 1) == _group(0, q), f"H_1(L(1,{q}))")
                return
            xs1 = cx.product_with_circle(lens)
            for k in range(5):      # Kunneth: H^k(X x S1) = H^k(X) + H^(k-1)(X)
                a = known[k] if k < 4 else _group(0)
                b = known[k - 1] if k >= 1 else _group(0)
                want = _group(a.free_rank + b.free_rank, *a.torsion, *b.torsion)
                expect(co.cohomology(xs1, k) == want, f"H^{k}(L(1,{q}) x S1)")
            return
        if op.kind.startswith("wedge"):
            n, dim = p["count"], p["dim"]
            w = cx.build_complex(f"W{tag}", {0: ["v"], dim: [f"{tag}s{i}" for i in range(n)]})
            expect(co.cohomology(w, dim) == _group(n), f"H^{dim} of a wedge of {n}")
            expect(co.homology(w, dim) == _group(n), f"H_{dim} of a wedge of {n}")
            expect(co.cohomology(w, 0) == _group(1), "H^0 of a wedge")
            return
        self._codim(int(op.kind[5:]), p["multiple"], tag)

    @staticmethod
    def _codim(rank: int, multiple: int, tag: str):
        """A nonzero class on the sphere bundle of a rank-k bundle over a fresh
        S^2 pushes to zero in H^3 for k >= 4."""
        from tdual import cohomology as co, complexes as cx, gerbes as gb
        base = cx.build_complex(f"S2{tag}", {0: [f"{tag}v"], 2: [f"{tag}c"]})
        total, sphere_ids, f_ids = cx.trivial_disc_bundle(base, rank)
        models = gb.GerbeModels(b=total, f_ids=f_ids, complement_ids=sphere_ids,
                                bplus=total, bplus_minus_f_ids=sphere_ids,
                                patch_neighborhood=frozenset(total.all_ids()),
                                patch_complement=sphere_ids)
        lam = multiple * co.cochain_space(models.complement_model(), 2).generators()[0]
        expect(not lam.is_zero(), f"lambda = {multiple} x generator is nonzero")
        gerbe, pushed = gb.semifree_class_to_two_gerbe(lam, models)
        expect(pushed.is_zero(), f"codimension {rank} pushes lambda to 0")
        expect(gb.characteristic_class_two_gerbe(gerbe).is_zero(),
               f"codimension {rank} gerbe class is 0")


# ---------------------------------------------------------------------------
# dualize: 2-gerbes on the shared two-disc S^3, dualized to 3-gerbes

class Dualize:
    """Why: the same cohomology and intlin layers as ``homology`` used the
    opposite way, with many tiny matrices on one hot-cached model."""

    name = "dualize"
    modules = ("tdual.gerbes", "tdual.semifree")
    block = (["kk-round-trip"] * 2 + ["cover2"] * 2 + ["cover3"] * 2 + ["gauge4", "cover4"]
             + ["cover5"] * 5 + ["gauge6"] + ["cover6"] * 2 + ["cover8"] + ["cover10"] * 2
             + ["cover12"])
    block_seconds = 0.9
    min_blocks = 5
    passes = 2
    speed_exponent = 0.8

    INNER = frozenset({"v", "u", "a", "f2", "c3"})
    OUTER = frozenset({"u", "f2", "c3out"})

    def make_ops(self, seed: int, blocks: int) -> list:
        def make(kind, rng):
            if kind == "kk-round-trip":
                return Op(kind, {"charge": rng.randint(1, 9)})
            size = int(kind.removeprefix("cover").removeprefix("gauge"))
            sets = [self.INNER, self.OUTER] * (size // 2) + [self.INNER] * (size % 2)
            rng.shuffle(sets)
            p = {"sets": sets, "multiple": rng.randint(-4, 4),
                 "scramble": rng.randrange(10 ** 6)}
            if kind.startswith("gauge"):
                p["gauge_seed"] = rng.randrange(10 ** 6)
                p["mode"] = rng.choice(("all", "pair", "triple"))
                p["pick"] = rng.randrange(10 ** 6)
            return Op(kind, p)
        return _blocks(seed, self.block, blocks, make)

    def run(self, op: Op):
        from tdual import cohomology as co, complexes as cx, gerbes as gb, semifree as sf
        p = op.params
        if op.kind == "kk-round-trip":
            rec = sf.kk_record(p["charge"])
            dual = sf.tdualize(rec)
            expect(dual.flux.reduced() == (p["charge"],), "flux of KK(p) is p units")
            expect(co.fiber_integrate(dual.flux, dual.complement_product) == rec.bundle_class,
                   "fiber integration returns the bundle class")
            return
        bplus = cx.s3_two_disc()
        cover = gb.CoverNerve(bplus, p["sets"])
        gen = co.cochain_space(bplus, 3).generators()[0].vector
        g = gb.two_gerbe_from_class(cover, [p["multiple"] * v for v in gen],
                                    scramble_seed=p["scramble"])
        rep2 = gb.check_two_gerbe(g)
        expect(rep2.passed, f"{op.kind}: 2-gerbe validity")
        expect(rep2.characteristic_class.reduced() == (p["multiple"],),
               f"{op.kind}: class is {p['multiple']} x generator")
        if op.kind.startswith("gauge"):
            support = {}              # all data, or one pair's or one triple's gauge freedom
            if p["mode"] != "all":
                tuples = cover.tuples(1 if p["mode"] == "pair" else 2)
                support[p["mode"]] = tuples[p["pick"] % len(tuples)]
            rep = gb.check_two_gerbe(gb.gauge_perturb(g, p["gauge_seed"], **support))
            expect(rep.passed, f"{op.kind}: perturbed gerbe validity")
            expect(rep.characteristic_class == rep2.characteristic_class,
                   f"{op.kind}: gauge perturbation keeps the class")
            return
        xs1 = cx.product_with_circle(bplus)
        rep3 = gb.check_three_gerbe(gb.tdualize_two_gerbe(g, xs1))
        expect(rep3.passed, f"{op.kind}: 3-gerbe validity")
        expect(rep3.characteristic_class == co.cross_with_z(rep2.characteristic_class, xs1),
               f"{op.kind}: dual class equals class x z")


# ---------------------------------------------------------------------------
# cli: fresh `python -m tdual.cli` processes

class Cli:
    """Why: the only workload where process start-up, import, argparse and
    rendering count and every cache is cold, which is what a shell user pays."""

    name = "cli"
    modules = ("tdual.cli",)
    # A block is three rounds of the 30 small argvs and two of the 6 large
    # ones: 102 fresh processes, about the fewest that leave 10 beyond the
    # p90, so a run is one block in one pass and measures longer than
    # --seconds 10.
    block_seconds = 21.0
    min_blocks = 1
    passes = 1
    speed_exponent = 0.6
    ROUNDS = (3, 2)              # rounds per block of each small, each large argv

    def __init__(self):
        self.workdir: Path | None = None
        self.outputs: dict = {}          # argv -> first stdout, for the repeat check
        self.child_rss_kb: list = []

    # -- set-up: distinct argvs and the --input files they read ----------

    def make_ops(self, seed: int, blocks: int) -> list:
        rng = random.Random(seed)
        files = self._write_inputs(rng)
        s = str(rng.randrange(10 ** 6))
        lens_p, wedge, centers, charge = (rng.randint(2, 60), rng.randint(5, 60),
                                          rng.randint(2, 9), rng.randint(2, 9))

        def cohom(space, degree, *group, fmt=()):
            return (["cohomology", "--space", space, "--degree", str(degree), *fmt],
                    ("group", *group))

        # (argv, oracle); every subcommand and every verify suite appears
        small = [
            (["buscher", "--preset", "taub-nut"], ("pass",)),
            (["buscher", "--preset", "taub-nut", "--verify", "involution", "--format", "json"],
             ("json-checks",)),
            (["buscher", "--preset", "multi3", "--seed", s], ("pass",)),
            (["buscher", "--preset", "multi2", "--verify", "involution", "--seed", s], ("pass",)),
            (["buscher", "--b-field", "dyonic", "--verify", "dyonic", "--seed", s], ("pass",)),
            (["buscher", "--input", files["metric25"], "--seed", s], ("pass",)),
            cohom("S2xS1", 3, 1),
            cohom("S3xS1", 4, 1),
            cohom("CP2", 4, 1),
            cohom("CP2", 2, 1),
            cohom(f"L1p:{lens_p}", 2, 0, lens_p, fmt=("--format", "json")),
            cohom(f"wedge:{wedge}", 2, wedge),
            cohom("S3plus", 3, 1),
            cohom("coneS2", 2, 0),
            (["dualize-gerbe", "--preset", f"monopole:{charge}"], ("pass",)),
            (["dualize-gerbe", "--input", files["gerbe"]], ("pass",)),
            (["dualize-gerbe", "--input", files["gerbe"], "--format", "json"], ("json-gerbe",)),
            (["classify", "--preset", f"charge:{charge}", "--format", "json"],
             ("class", [charge])),
            (["classify", "--input", files["record"], "--format", "json"],
             ("class", [files["record_charge"]])),
            (["classify", "--preset", "trivial", "--format", "json"], ("class", [])),
            (["tdualize", "--preset", "kk"], ("pass",)),
            (["tdualize", "--preset", f"charge:{charge}"], ("pass",)),
            (["tdualize", "--input", files["record"]], ("pass",)),
            (["spectrum"], ("contains", "regularization: coneS2 x S1")),
            (["homotopy", "--centers", str(centers)], ("homotopy", centers)),
        ] + [(["verify", suite, "--seed", s], ("pass",))
             for suite in ("metrics", "dyonic", "cohomology", "gerbes", "semifree")]
        # all about twice the slowest small argv, so the p90 falls inside this
        # rung and not on its border with the small one
        large = [
            (["buscher", "--input", files["metric100"], "--seed", s], ("pass",)),
            (["buscher", "--input", files["metric100"], "--seed", s, "--format", "json"],
             ("json-checks",)),
            (["buscher", "--input", files["metric50"], "--verify", "involution", "--seed", s],
             ("pass",)),
            (["buscher", "--input", files["metric50"], "--verify", "involution", "--format",
              "json"], ("json-checks",)),
            cohom("wedge:1000", 2, 1000),
            cohom("wedge:1100", 2, 1100),
        ]
        ops = []
        for _ in range(blocks):
            order = small * self.ROUNDS[0] + large * self.ROUNDS[1]
            rng.shuffle(order)
            ops.extend(Op("cli", {"argv": argv, "oracle": oracle}) for argv, oracle in order)
        return ops

    def _write_inputs(self, rng: random.Random) -> dict:
        from tdual import cohomology as co, complexes as cx, expr as ex, geometry as geo
        from tdual import gerbes as gb
        self.workdir = ROOT / ".bench_work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for terms in (25, 50, 100):
            g = ex.sym("g")
            coupling = ex.add(*[ex.mul(ex.rat(rng.randint(1, 9), rng.randint(1, 9)),
                                       ex.pow_(g, rng.randint(1, 3))) for _ in range(terms)])
            path = self.workdir / f"metric{terms}.json"
            path.write_text(json.dumps(geo.make_taub_nut(coupling).to_json()))
            files[f"metric{terms}"] = str(path.relative_to(ROOT))
        bplus = cx.s3_two_disc()
        sets = [Dualize.INNER, Dualize.OUTER] * 2
        rng.shuffle(sets)
        cover = gb.CoverNerve(bplus, sets)
        gen = co.cochain_space(bplus, 3).generators()[0].vector
        gerbe = gb.two_gerbe_from_class(cover, [rng.randint(-4, 4) * v for v in gen],
                                        scramble_seed=rng.randrange(10 ** 6))

        def block(data):
            return {",".join(map(str, t)): list(vec) for t, vec in data.items()}

        path = self.workdir / "gerbe.json"
        path.write_text(json.dumps({"space": "S3plus", "cover": [sorted(s) for s in sets],
                                    "p": block(gerbe.p), "theta": block(gerbe.theta),
                                    "mu": block(gerbe.mu)}))
        files["gerbe"] = str(path.relative_to(ROOT))
        charge = rng.randint(1, 9)
        cone = cx.cone_on_s2()
        comp = frozenset({"u", "f2"})
        gen2 = co.cochain_space(cone.subcomplex(comp), 2).generators()[0].vector
        path = self.workdir / "record.json"
        path.write_text(json.dumps({"base": "coneS2", "fixed": ["v"], "complement": sorted(comp),
                                    "class": [charge * v for v in gen2], "name": "record"}))
        files["record"] = str(path.relative_to(ROOT))
        files["record_charge"] = charge
        return files

    def cleanup(self):
        if self.workdir is not None:
            for f in self.workdir.iterdir():
                f.unlink()
            self.workdir.rmdir()
            try:
                self.workdir.parent.rmdir()
            except OSError:           # another run's inputs are still there
                pass
            self.workdir = None

    # -- ops --------------------------------------------------------------

    def run(self, op: Op):
        """One fresh process; its peak RSS is read from its own rusage."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-m", "tdual.cli", *op.params["argv"]],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        self.check(op, proc.returncode, out)

    def run_in_process(self, op: Op):
        """The same argv through ``tdual.cli.main`` in this process."""
        import contextlib
        import io
        from tdual import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(list(op.params["argv"]))
        self.check(op, code, buf.getvalue().encode())

    def check(self, op: Op, code: int, out: bytes):
        argv = tuple(op.params["argv"])
        expect(code == 0, f"{' '.join(argv)} exited {code}: {out[-300:]!r}")
        first = self.outputs.setdefault(argv, out)
        expect(out == first, f"{' '.join(argv)}: stdout differs between repeats")
        text = out.decode()
        kind, *want = op.params["oracle"]
        if kind == "pass":
            expect("[PASS]" in text and "[FAIL]" not in text, f"{' '.join(argv)}: {text!r}")
        elif kind == "json-checks":
            expect(all(c["passed"] for c in json.loads(text)["checks"]), "checks passed")
        elif kind == "json-gerbe":
            obj = json.loads(text)
            expect(obj["two_gerbe_report"]["passed"] and obj["three_gerbe_report"]["passed"]
                   and obj["class_equals_cross_product"], "gerbe reports passed")
        elif kind == "group":
            group = _group(want[0], *want[1:])
            if "--format" in argv:
                obj = json.loads(text)
                ok = (obj["free_rank"], tuple(obj["torsion"])) == (group.free_rank, group.torsion)
            else:
                ok = text.strip().endswith(f"= {group}")
            expect(ok, f"{' '.join(argv)}: {text!r}")
        elif kind == "class":
            expect(json.loads(text)["bundle_class"] == want[0], f"{' '.join(argv)}: {text!r}")
        elif kind == "contains":
            expect(want[0] in text, f"{' '.join(argv)}: {text!r}")
        elif kind == "homotopy":
            expect(f"H_2 = {_group(want[0] - 1)}" in text and "H_1 = 0" in text,
                   f"{' '.join(argv)}: {text!r}")

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_kb) / 1024


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Identity, Homology, Dualize, Cli)}

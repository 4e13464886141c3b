"""The four workloads: seeded inputs, the operations of one round, and their checks.

`WORKLOADS[name](ctx)` writes a workload's inputs into `ctx.work` and
returns the operations of one round. A run repeats whole rounds, so every
run attempts the same operations in the same proportions, whatever the
seed or the run length.

Expected values are wrapped in `ctx.later(...)`: the set-up, which is
timed, only draws and writes the inputs, and `ctx.resolve()` computes the
expected values with the oracles afterwards.
"""

import functools
import math
import os
import random

import gen
import oracles as orc
from checks import Op, as_labels, expect, fields, json_out, label_set, same_space, witness
from oracles import bits


class Context:
    def __init__(self, program, work, seed, workload):
        self.prog = program
        self.work = work
        self.rng = random.Random(f"{workload}:{seed}")
        self.mods = None  # namespace of finitetop modules, for library-level calls
        self._n = 0
        self._later = []

    def later(self, fn):
        """An expected value computed by `resolve`, after the timed set-up; call it to read it."""
        cell = functools.cache(fn)
        self._later.append(cell)
        return cell

    def resolve(self):
        for cell in self._later:
            cell()

    def write(self, stem, text):
        self._n += 1
        path = os.path.join(self.work, f"{self._n:03d}-{stem}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _names(labels, mask):
    return " ".join(labels[i] for i in bits(mask))


# -- space-level operations (shared by cli-cold and spaces-large) -------------


class SpaceOps:
    """Builds CLI operations on one carrier; `run` is in-process or a child."""

    def __init__(self, ctx, run):
        self.ctx = ctx
        self.run = run

    def op(self, name, argv, check):
        return Op(name, lambda: self.run(argv), check)

    def space_file(self, c):
        self.ctx.later(lambda: orc.check_open_count(c.name, c.up))
        return self.ctx.write(f"{c.name}.top", gen.write_space(self.ctx.rng, c))

    def opens(self, c):
        return self.ctx.later(lambda: orc.upsets(c.up))

    def t0(self, c):
        return self.ctx.later(lambda: orc.separation(c.up)["t0"])

    # space report

    def report_json(self, c, path):
        expected = self.ctx.later(lambda: (orc.upsets(c.up), orc.separation(c.up)))
        labels = c.labels

        def inner(res):
            opens, sep = expected()
            d = json_out(res)
            if d["points"] != list(labels):
                return "points differ"
            got = {frozenset(o) for o in d["opens"]}
            if got != {as_labels(labels, u) for u in opens}:
                return f"opens differ: {len(got)} vs {len(opens)}"
            for k, v in sep.items():
                if d[k] != v:
                    return f"{k} = {d[k]}, expected {v}"
            pairs = {(labels[i], labels[j]) for i in range(c.n) for j in bits(c.up[i]) if i != j}
            if {tuple(p) for p in d["specialization"]} != pairs:
                return "specialization differs"
            if d["specialization_is_poset"] != sep["t0"]:
                return "specialization_is_poset differs"
            for row in d["neighborhood_bases"]:
                i = labels.index(row["point"])
                want = {as_labels(labels, u) for u in opens if u >> i & 1}
                if set(label_set(row["open neighborhoods"])) != want:
                    return f"neighborhoods of {row['point']} differ"
            if c.n > 6:
                return None if d["subsets"] is None else "subset table not elided"
            return self._subset_rows(c, d["subsets"])

        return self.op(f"space report --json {c.name}", ["space", "report", "--in", path, "--json"], expect(0, inner))

    @staticmethod
    def _subset_rows(c, rows):
        labels = c.labels
        if len(rows) != (1 << c.n) - 1:
            return f"{len(rows)} subset rows"
        for row in rows:
            s = label_set(row["set"])[0]
            m = sum(1 << labels.index(x) for x in s)
            cl = orc.closure(c.up, m)
            it = orc.interior(c.up, m)
            want = (as_labels(labels, cl), as_labels(labels, it), as_labels(labels, cl & ~it))
            got = tuple((label_set(row[k]) or [frozenset()])[0] for k in ("closure", "interior", "boundary"))
            if got != want:
                return f"closure/interior/boundary of {sorted(s)} differ"
        return None

    def report_text(self, c, path):
        separation = self.ctx.later(lambda: orc.separation(c.up))

        def inner(res):
            sep = separation()
            f = fields(res.out)
            if f["points"].split() != list(c.labels):
                return "points differ"
            for k, v in sep.items():
                if f[k] != str(v):
                    return f"{k}: {f[k]}, expected {v}"
            return None

        return self.op(f"space report {c.name}", ["space", "report", "--in", path], expect(0, inner))

    def emit(self, c, path):
        opens = self.opens(c)
        return self.op(f"space report --emit {c.name}", ["space", "report", "--in", path, "--emit"],
                       expect(0, lambda r: same_space(r.out, c.labels, opens())))

    def not_a_topology(self, c):
        """Two opens whose union is missing: exit 1 with the pair as witness."""
        rng = self.ctx.rng
        x, y = rng.sample(range(c.n), 2)
        fam = [1 << x, 1 << y]
        path = self.ctx.write("nonclosed.top", gen.write_space(rng, c, fam))
        labels = c.labels

        def inner(res):
            w = witness(res)
            u = sum(1 << labels.index(v) for v in w["U"])
            v = sum(1 << labels.index(v) for v in w["V"])
            closed = {0, (1 << c.n) - 1, *fam}
            return None if (u | v) not in closed or (u & v) not in closed else f"witness {w} is closed"

        return self.op(f"space report non-topology {c.n}", ["space", "report", "--in", path], expect(1, inner))

    # check

    def check_base(self, c):
        rng = self.ctx.rng
        path = self.ctx.write(f"{c.name}.fam", gen.write_family(c.labels, gen.base_family(rng, c)))
        opens = self.opens(c)
        return self.op(f"check base {c.name}", ["check", "base", "--in", path],
                       expect(0, lambda r: same_space(r.out, c.labels, opens())))

    def check_non_base(self, labels):
        members = gen.non_base_family(self.ctx.rng, labels)
        path = self.ctx.write("nonbase.fam", gen.write_family(labels, members))

        def inner(res):
            w = witness(res)
            x = labels.index(w["x"])
            u = sum(1 << labels.index(v) for v in w["U"])
            v = sum(1 << labels.index(v) for v in w["V"])
            return None if orc.is_base_witness(members, x, u, v) else f"bad witness {w}"

        return self.op(f"check base non-base {len(labels)}", ["check", "base", "--in", path], expect(1, inner))

    def check_subbase(self, c):
        members = gen.subbase_family(self.ctx.rng, orc.upsets(c.up), c.n)
        path = self.ctx.write(f"{c.name}.sub", gen.write_family(c.labels, members))
        opens = self.ctx.later(lambda: orc.upsets(orc.kernels_of_family(c.n, members)))
        return self.op(f"check subbase {c.name}", ["check", "subbase", "--in", path],
                       expect(0, lambda r: same_space(r.out, c.labels, opens())))

    def closure_ops(self, c):
        """check closure-op and build from-closure on the down-closure table, plus a broken table."""
        table = [orc.closure(c.up, a) for a in range(1 << c.n)]
        path = self.ctx.write(f"{c.name}.clo", gen.write_closure(c.labels, table))
        broken = list(table)  # drop a point of A from cl(A): A <= cl(A) fails
        a = self.ctx.rng.randrange(1, (1 << c.n) - 1)
        broken[a] &= ~(1 << self.ctx.rng.choice(list(bits(a))))
        bad = self.ctx.write(f"{c.name}-bad.clo", gen.write_closure(c.labels, broken))
        opens = self.opens(c)
        return [
            self.op(f"check closure-op {c.name}", ["check", "closure-op", "--in", path],
                    expect(0, lambda r: None if "closure operator: ok" in r.out else r.out[:80])),
            self.op(f"check closure-op broken {c.name}", ["check", "closure-op", "--in", bad], expect(1)),
            self.op(f"build from-closure {c.name}", ["build", "from-closure", "--in", path],
                    expect(0, lambda r: same_space(r.out, c.labels, opens()))),
        ]

    # maps

    def continuity(self, c, path):
        """A monotone map into a 4-chain (continuous) and, unless c is discrete, one that is not."""
        rng = self.ctx.rng
        ch = gen.chain(rng, 4)
        dst = self.space_file(ch)
        f = gen.monotone_map_to_chain(c, 4)
        yes = self.ctx.write("cont.map", gen.write_map(c.labels, ch.labels, f))
        ops = [self.op(f"map continuity {c.name}", ["map", "continuity", "--src", path, "--dst", dst, "--map", yes],
                       expect(0, lambda r: None if r.out.strip() == "continuous: yes" else r.out[:80]))]
        pairs = [(i, j) for i in range(c.n) for j in bits(c.up[i]) if i != j]
        if not pairs:  # every map out of a discrete space is continuous
            return ops
        g = [rng.randrange(4) for _ in range(c.n)]
        i, j = rng.choice(pairs)
        g[i], g[j] = 3, 0  # i <= j but g(i) > g(j)
        no = self.ctx.write("noncont.map", gen.write_map(c.labels, ch.labels, g))
        src_opens, dst_opens = self.opens(c), self.opens(ch)

        def inner(res):
            w = label_set(res.out.split("witness open", 1)[1])[0]
            h = sum(1 << ch.labels.index(x) for x in w)
            ok = h in dst_opens() and orc.preimage(g, h) not in src_opens()
            return None if ok else f"witness {sorted(w)} does not show discontinuity"

        ops.append(self.op(f"map continuity non-continuous {c.name}",
                           ["map", "continuity", "--src", path, "--dst", dst, "--map", no], expect(1, inner)))
        return ops

    def homeo(self, c, path):
        """A relabelling (homeomorphism) and a bijection that is not one."""
        rng = self.ctx.rng
        c2, perm = gen.relabel(rng, c, "z")
        dst = self.space_file(c2)
        pos = {old: k for k, old in enumerate(perm)}
        f = [pos[i] for i in range(c.n)]
        yes = self.ctx.write("homeo.map", gen.write_map(c.labels, c2.labels, f))
        ops = [self.op(f"map homeo {c.name}", ["map", "homeo", "--src", path, "--dst", dst, "--map", yes],
                       expect(0, lambda r: None if r.out.strip() == "homeomorphism: yes" else r.out[:80]))]
        target, tpath = c2, dst
        for _ in range(200):
            g = list(range(c.n))
            rng.shuffle(g)
            inv = [0] * c.n
            for i, j in enumerate(g):
                inv[j] = i
            if not (orc.is_monotone(c.up, c2.up, g) and orc.is_monotone(c2.up, c.up, inv)):
                break
        else:  # every bijection is a homeomorphism (discrete): aim at a chain instead
            target = gen.chain(rng, c.n)
            tpath = self.space_file(target)
        no = self.ctx.write("nonhomeo.map", gen.write_map(c.labels, target.labels, g))
        ops.append(self.op(f"map homeo non-homeo {c.name}", ["map", "homeo", "--src", path, "--dst", tpath, "--map", no],
                           expect(1, lambda r: None if r.out.strip() == "homeomorphism: no" else r.out[:80])))
        return ops

    # constructions

    def build_from_poset(self, c, what="from-poset"):
        path = self.ctx.write(f"{c.name}.pos", gen.write_poset(c))
        opens = self.opens(c)
        return self.op(f"build {what} {c.name}", ["build", what, "--in", path],
                       expect(0, lambda r: same_space(r.out, c.labels, opens())))

    def subspace(self, c, path, drop):
        keep = (1 << c.n) - 1
        for i in self.ctx.rng.sample(range(c.n), drop):
            keep &= ~(1 << i)
        labels = tuple(c.labels[i] for i in bits(keep))
        opens = self.ctx.later(lambda: orc.upsets(orc.restrict(c.up, keep)))
        return self.op(f"build subspace {c.name}", ["build", "subspace", "--in", path, "--keep", " ".join(labels)],
                       expect(0, lambda r: same_space(r.out, labels, opens())))

    def quotient(self, c, path, blocks):
        parts = gen.partition(self.ctx.rng, c.n, blocks)
        eq = self.ctx.write(f"{c.name}.eq", gen.write_blocks(c.labels, parts))
        labels = tuple("".join(sorted(c.labels[i] for i in bits(b))) for b in parts)
        opens = self.ctx.later(lambda: orc.quotient_opens(c.up, parts))
        return self.op(f"build quotient {c.name}", ["build", "quotient", "--in", path, "--classes", eq],
                       expect(0, lambda r: same_space(r.out, labels, opens())))

    def sum_and_product(self, c, half):
        """Sum of a sub-carrier with a relabelled copy; its product with a 2-chain."""
        rng = self.ctx.rng
        while orc.count_upsets(orc.restrict(c.up, (1 << half) - 1), 80) > 80:
            half -= 1  # keep the sum at most 80^2 opens
        keep = (1 << half) - 1
        a = gen.Carrier(f"{c.name}[:{half}]", c.labels[:half], tuple(orc.restrict(c.up, keep)))
        b, _ = gen.relabel(rng, a, "s")
        two = gen.chain(rng, 2)
        pa, pb, p2 = self.space_file(a), self.space_file(b), self.space_file(two)
        sum_opens = self.ctx.later(lambda: orc.upsets(orc.disjoint_sum(a.up, b.up)))
        prod_labels = tuple(f"⟨{x},{y}⟩" for x in a.labels for y in two.labels)
        prod_opens = self.ctx.later(lambda: orc.upsets(orc.product(a.up, two.up)))
        return [
            self.op(f"build sum {a.name}", ["build", "sum", "--in", pa, "--with", pb],
                    expect(0, lambda r: same_space(r.out, a.labels + b.labels, sum_opens()))),
            self.op(f"build product {a.name}x2", ["build", "product", "--in", pa, "--with", p2],
                    expect(0, lambda r: same_space(r.out, prod_labels, prod_opens()))),
        ]

    def onepoint(self, c, path):
        """One-point extension of a discrete space: discrete on one more point."""
        labels = c.labels + ("w",)
        opens = self.ctx.later(lambda: orc.upsets(tuple(1 << i for i in range(c.n + 1))))
        return self.op(f"build onepoint {c.name}", ["build", "onepoint", "--in", path, "--label", "w"],
                       expect(0, lambda r: same_space(r.out, labels, opens())))

    # locale reports

    def implication(self, c, path):
        rng = self.ctx.rng
        opens = orc.upsets(c.up)  # the two arguments are drawn from the opens
        u, v = rng.choice(opens), rng.choice(opens)
        full = (1 << c.n) - 1
        want = self.ctx.later(lambda: (as_labels(c.labels, orc.interior(c.up, (full & ~u) | v)),
                                       as_labels(c.labels, orc.interior(c.up, full & ~u))))

        def inner(res):
            f = fields(res.out)
            got = ((label_set(f["implication"]) or [frozenset()])[0],
                   (label_set(f["negation of first"]) or [frozenset()])[0])
            return None if got == want() else f"got {got}"

        return self.op(f"locale implication {c.name}",
                       ["locale", "implication", "--in", path, "--a", _names(c.labels, u), "--b", _names(c.labels, v)],
                       expect(0, inner))

    def points(self, c, path):
        kernels = self.ctx.later(lambda: {as_labels(c.labels, k) for k in c.up})
        t0 = self.t0(c)

        def inner(res):
            d = json_out(res)
            gens = {label_set(row["top-valued opens"])[0] for row in d["morphisms"]}
            if d["count"] != len(kernels()) or gens != kernels():
                return f"{d['count']} points, expected the {len(kernels())} kernels"
            if d["phi_injective"] != t0() or d["phi_surjective"] is not True:
                return "phi flags differ"
            return None

        return self.op(f"locale points {c.name}", ["locale", "points", "--in", path, "--json"], expect(0, inner))

    def sober(self, c, path):
        closures = self.ctx.later(lambda: {as_labels(c.labels, orc.closure(c.up, 1 << i)) for i in range(c.n)})
        t0 = self.t0(c)

        def inner(res):
            d = json_out(res)
            if {frozenset(x) for x in d["irreducible_closed"]} != closures():
                return "irreducible closed sets are not the point closures"
            return None if d["sober"] == t0() else f"sober {d['sober']}, T0 {t0()}"

        return self.op(f"locale sober {c.name}", ["locale", "sober", "--in", path, "--json"], expect(0, inner))

    def hofmann_mislove(self, c, path):
        opens, t0 = self.opens(c), self.t0(c)

        def inner(res):
            d = json_out(res)
            if not d["bijection_holds"] or d["sober"] != t0():
                return f"bijection {d['bijection_holds']}, sober {d['sober']}"
            count = len(opens()) - 1
            if d["filter_count"] != count or d["saturated_compact_count"] != count:
                return "filter or saturated counts differ from the nonempty opens"
            for row in d["correspondence"]:
                if label_set(row["filter generator"]) != label_set(row["intersection"]):
                    return "a filter does not meet in its generator"
            return None

        return self.op(f"locale hofmann-mislove {c.name}", ["locale", "hofmann-mislove", "--in", path, "--json"],
                       expect(0, inner))

    def space_battery(self, c):
        """The space-level commands on one carrier."""
        path = self.space_file(c)
        ops = [self.report_json(c, path), self.emit(c, path), self.check_base(c), self.check_subbase(c)]
        ops += self.continuity(c, path) + self.homeo(c, path)
        ops += [self.subspace(c, path, max(1, c.n // 4)), self.quotient(c, path, max(2, c.n // 2)),
                self.build_from_poset(c), self.implication(c, path)]
        return ops, path


# -- spaces-large ----------------------------------------------------------------


def spaces_large(ctx):
    rng = ctx.rng
    s = SpaceOps(ctx, ctx.prog.in_process)
    ops = []
    # dense families (many opens) and sparse 16-point ones (2^16 subset sweeps)
    for c in (gen.chain(rng, 16), gen.fence(rng, 12), gen.antichain(rng, 8), gen.divisors(rng, 120),
              gen.random_preorder(rng, 16, 200, 230), gen.random_preorder(rng, 12, 150, 170, cycle=True)):
        batt, path = s.space_battery(c)
        ops += batt
        if not c.name.startswith("rand"):  # random halves would vary the output size by seed
            ops += s.sum_and_product(c, c.n // 2)
        if c.name.startswith("discrete"):
            ops.append(s.onepoint(c, path))
    # locale reports, on carriers where the cubic sweeps stay interactive
    for c in (gen.chain(rng, 16), gen.fence(rng, 8), gen.antichain(rng, 6), gen.divisors(rng, 60),
              gen.random_preorder(rng, 8, 40, 46), gen.random_preorder(rng, 10, 50, 58, cycle=True)):
        path = s.space_file(c)
        ops += [s.points(c, path), s.sober(c, path), s.hofmann_mislove(c, path)]
    c = gen.divisors(rng, 120)
    path = s.space_file(c)
    ops += [s.points(c, path), s.sober(c, path)]
    # Scott = Alexandrov on posets
    for c in (gen.chain(rng, 10), gen.fence(rng, 12), gen.antichain(rng, 8), gen.divisors(rng, 48),
              gen.random_preorder(rng, 10, 40, 60, accept=lambda up: 150 <= orc.directed_subsets(up) <= 200)):
        ops.append(s.build_from_poset(c, "scott"))
    # closure tables (2^n lines) and the failure verdicts
    for c in (gen.fence(rng, 8), gen.divisors(rng, 24), gen.random_preorder(rng, 8, 40, 46)):
        ops += s.closure_ops(c)
    ops.append(s.check_non_base(gen.antichain(rng, 12).labels))
    ops.append(s.not_a_topology(gen.antichain(rng, 10)))
    return ops


# -- cli-cold --------------------------------------------------------------------

FAULTS = {
    "F1": "approx weierstrass --fn poly:a ends in a ValueError traceback (expected exit 2)",
    "F2": "solve fixpoint --x0 a ends in a ValueError traceback (expected exit 2)",
    "F3": "a theory line of 5000 '~' before 'a' ends in a RecursionError traceback (expected exit 0 or 2)",
    "F4": "approx kernel-ratio --n 100000000 --delta 0.5 reports ratio_below_bound: False (expected True)",
    "F5": "metric quotient with the default labels 1..34 names the class {3, 4} like point 34 and exits 2 "
          "(expected exit 0)",
}


def cli_cold(ctx):
    rng = ctx.rng
    s = SpaceOps(ctx, ctx.prog.child)
    run = ctx.prog.child
    ops = []
    div12 = gen.divisors(rng, 12)
    batt, path = s.space_battery(div12)
    ops += batt
    ops.append(s.report_text(div12, path))
    for c in (gen.fence(rng, 5), gen.random_preorder(rng, 5, 6, 14, cycle=True)):
        path = s.space_file(c)
        ops += [s.report_json(c, path), s.points(c, path), s.sober(c, path), s.hofmann_mislove(c, path)]
    ops += s.sum_and_product(gen.chain(rng, 6), 3)
    d3 = gen.antichain(rng, 3)
    ops.append(s.onepoint(d3, s.space_file(d3)))
    ops.append(s.build_from_poset(gen.fence(rng, 6), "scott"))
    ops += s.closure_ops(gen.random_preorder(rng, 4, 4, 10))
    ops.append(s.check_non_base(gen.antichain(rng, 5).labels))
    ops.append(s.not_a_topology(gen.antichain(rng, 4)))
    ops += numeric_ops(ctx, run, small=True)
    ops += malformed_ops(ctx, run)
    ops += fault_ops(ctx, run)
    return ops


def malformed_ops(ctx, run):
    """Inputs the CLI must refuse with exit 2 and no traceback."""
    rng = ctx.rng
    a, b = f"q{rng.randrange(100)}", f"q{rng.randrange(100, 200)}"
    cases = [
        ("duplicate label", ["space", "report", "--in", ctx.write("dup.top", f"points: {a} {b} {a}\n")]),
        ("unknown label", ["space", "report", "--in", ctx.write("unk.top", f"points: {a} {b}\nopen: {a} zz\n")]),
        ("bad matrix", ["check", "pmetric", "--in", ctx.write("bad.csv", f"0,1\n1,{a}\n")]),
        ("theory syntax", ["logic", "model", "--in", ctx.write("bad.thy", f"{a} & ({b}\n")]),
        ("missing file", ["space", "report", "--in", ctx.work + "/absent.top"]),
        ("missing argument", ["space", "report"]),
    ]
    return [Op(f"malformed: {why}", (lambda argv=argv: run(argv)), expect(2)) for why, argv in cases]


def fault_ops(ctx, run):
    """The known faults; fixed inputs, so each fails on every run and seed."""
    deep = ctx.write("deep.thy", "~" * 5000 + "a\n")

    def f3(res):
        if "Traceback" in res.err:
            return "traceback: " + res.err.strip().splitlines()[-1][:80]
        if res.code == 2 or (res.code == 0 and "a=top" in res.out):
            return None
        return f"exit {res.code}"

    def f4(res):
        return None if fields(res.out).get("ratio_below_bound") == "True" else "ratio_below_bound is False"

    # 34 points on a line with points 3 and 4 at the same place: 33 classes
    xs = [i - (i >= 3) for i in range(34)]
    line = ctx.write("line34.csv", gen.write_matrix(gen.l1_matrix([(x,) for x in xs])))

    def f5(res):
        classes = sorted(sorted(c) for c in json_out(res)["classes"])
        return None if len(classes) == 33 and ["3", "4"] in classes else f"{len(classes)} classes"

    return [
        Op("F1 approx weierstrass --fn poly:a", lambda: run(["approx", "weierstrass", "--fn", "poly:a", "--n", "8",
                                                             "--grid", "0.5"]), expect(2), "F1"),
        Op("F2 solve fixpoint --x0 a", lambda: run(["solve", "fixpoint", "--fn", "cos", "--x0", "a"]), expect(2), "F2"),
        Op("F3 logic model deep negation", lambda: run(["logic", "model", "--in", deep]), f3, "F3"),
        Op("F4 approx kernel-ratio n=1e8", lambda: run(["approx", "kernel-ratio", "--n", "100000000",
                                                        "--delta", "0.5"]), expect(0, f4), "F4"),
        Op("F5 metric quotient default labels", lambda: run(["metric", "quotient", "--in", line, "--json"]),
           expect(0, f5), "F5"),
    ]


# -- numeric-logic -------------------------------------------------------------------


def logic_ops(ctx, run, k, ratio, whats):
    clauses = gen.cnf3(ctx.rng, k, max(1, round(ratio * k)))
    path = ctx.write(f"cnf{k}.thy", gen.write_theory(k, clauses))
    expected = ctx.later(lambda: orc.cnf_models(k, clauses))
    names = gen.var_names(k)
    ops = []
    for what in whats:
        def inner(res, what=what):
            models = expected()
            f = fields(res.out)
            if what == "consistent":
                return None if f["consistent"] == str(bool(models)) else f"consistent {f['consistent']}"
            if what == "model":
                vals = dict(kv.split("=") for kv in f["valuation"].split())
                true = {i for i, v in enumerate(names) if vals[v] == "top"}
                first = {i for i in range(k) if models[0] >> (k - 1 - i) & 1}
                if not orc.satisfies(k, clauses, true):
                    return "valuation is not a model"
                return None if true == first else "not the lexicographically first model"
            if what == "algebra":
                ok = int(f["models"]) == len(models) and int(f["elements"]) == 1 << len(models)
                return None if ok else f"models {f['models']}, expected {len(models)}"
            ok = (int(f["ultrafilters"]) == len(models) and f["top_maps_to_all"] == "True"
                  and f["bot_maps_to_empty"] == "True")
            return None if ok else f"ultrafilters {f['ultrafilters']}, expected {len(models)}"

        def check(res, what=what, inner=inner):
            sat = bool(expected())  # an inconsistent theory: exit 1, and only `consistent` prints a verdict
            return expect(0 if sat else 1, inner if sat or what == "consistent" else None)(res)

        ops.append(Op(f"logic {what} {k}v/{len(clauses)}c", (lambda argv=["logic", what, "--in", path]: run(argv)),
                      check))
    return ops


def metric_ops(ctx, run, n, whats):
    rng = ctx.rng
    pts = gen.l1_cloud(rng, n, 3, 12, max(1, n // 10))
    dist = gen.l1_matrix(pts)
    path = ctx.write(f"l1-{n}.csv", gen.write_matrix(dist))
    labels = [str(i + 1) for i in range(n)]
    ops = []
    if "pmetric" in whats:
        metric = ctx.later(lambda: len(set(pts)) == n)
        ops.append(Op(f"check pmetric {n}", lambda: run(["check", "pmetric", "--in", path]),
                      expect(0, lambda r: None if r.out.strip() == f"pseudometric: ok, metric: {metric()}" else r.out)))
    if "hausdorff" in whats:
        a = rng.sample(range(n), n // 4)
        b = rng.sample(range(n), n // 3)
        hausdorff = ctx.later(lambda: orc.hausdorff(dist, a, b))

        def inner(res):
            got, want = json_out(res)["hausdorff"], hausdorff()
            return None if abs(got - want) <= 1e-9 * max(1.0, want) else f"{got} != {want}"

        argv = ["metric", "hausdorff", "--in", path, "--json", "--a", " ".join(labels[i] for i in a),
                "--b", " ".join(labels[i] for i in b)]
        ops.append(Op(f"metric hausdorff {n}", lambda: run(argv), expect(0, inner)))
    if "quotient" in whats:
        def equal_points():
            groups = {}
            for i, p in enumerate(pts):
                groups.setdefault(p, []).append(i)
            return {frozenset(f"x{i}" for i in g): p for p, g in groups.items()}

        equal = ctx.later(equal_points)

        def inner(res):
            classes = equal()
            d = json_out(res)
            got = [frozenset(c) for c in d["classes"]]
            if set(got) != set(classes):
                return "classes differ"
            names = ["".join(sorted(c)) for c in got]
            for row in d["distances"]:
                i = names.index(row[""])
                for j, nm in enumerate(names):
                    want = sum(abs(x - y) for x, y in zip(classes[got[i]], classes[got[j]]))
                    if abs(float(row[nm]) - want) > 1e-9:
                        return f"d({row['']},{nm}) = {row[nm]}, expected {want}"
            return None

        # prefixed labels, so that class names cannot collide; the collision
        # with the default labels is the known fault F5 in cli-cold
        qlabels = " ".join(f"x{i}" for i in range(n))
        ops.append(Op(f"metric quotient {n}", lambda: run(["metric", "quotient", "--in", path, "--json",
                                                           "--labels", qlabels]), expect(0, inner)))
    if "net" in whats:
        eps = 5.0

        def inner(res):
            centers = [labels.index(x) for x in json_out(res)["centers"]]
            if any(min(dist[i][c] for c in centers) >= eps for i in range(n)):
                return "not a cover"
            if any(dist[a][b] < eps for a in centers for b in centers if a != b):
                return "two centers closer than eps"
            return None

        ops.append(Op(f"metric net {n}", lambda: run(["metric", "net", "--in", path, "--json", "--eps", str(eps)]),
                      expect(0, inner)))
    return ops


def chain_ops(ctx, run, n, depth):
    rng = ctx.rng
    labels = tuple(f"u{i}" for i in range(n))
    rels = gen.nested_partitions(rng, n, depth)
    path = ctx.write(f"chain{n}.chn", gen.write_chain(labels, rels))
    expected = ctx.later(lambda: orc.chain_distances(n, rels))

    def inner(res):
        want = expected()
        for row in json_out(res)["distances"]:
            i = labels.index(row[""])
            for j, lab in enumerate(labels):
                if abs(float(row[lab]) - want[i][j]) > 1e-12:
                    return f"d({row['']},{lab}) = {row[lab]}, expected {want[i][j]}"
        return None

    ranks = [rng.randint(1, 8) for _ in range(n)]
    rpath = ctx.write(f"ranks{n}.rnk", "".join(f"rank: {lab} {r}\n" for lab, r in zip(labels, ranks)))
    a, b = rng.sample(range(1 << n), 2)
    expected_dist = ctx.later(lambda: 2.0 ** -min(ranks[i] for i in bits(a ^ b)))

    def rinner(res):
        got, dist = json_out(res)["distance"], expected_dist()
        return None if got == dist else f"{got} != {dist}"

    return [
        Op(f"check chain {n}", lambda: run(["check", "chain", "--in", path]),
           expect(0, lambda r: None if r.out.strip() == f"chain: ok, depth {depth} on {n} points" else r.out)),
        Op(f"metric chain {n}", lambda: run(["metric", "chain", "--in", path, "--json"]), expect(0, inner)),
        Op(f"metric ultrarank {n}", lambda: run(["metric", "ultrarank", "--in", rpath, "--json",
                                                  "--a", _names(labels, a), "--b", _names(labels, b)]),
           expect(0, rinner)),
    ]


def pagerank_op(ctx, run, n):
    rows = gen.web_matrix(ctx.rng, n)
    path = ctx.write(f"web{n}.csv", gen.write_stochastic(rows))
    frows = ctx.later(lambda: [[v / den for v in row] for row, den in rows])

    def inner(res):
        p = json_out(res)["distribution"]
        if len(p) != n or min(p) < 0 or abs(sum(p) - 1.0) > 1e-9:
            return "not a distribution"
        resid = orc.stationarity_residual(frows(), p)
        return None if resid <= 1e-8 else f"residual {resid:.3g}"

    return Op(f"solve pagerank {n}", lambda: run(["solve", "pagerank", "--in", path, "--json"]), expect(0, inner))


def fixpoint_ops(ctx, run, dim):
    rng = ctx.rng
    ops = []
    for fn, fixed in (("cos", orc.COS_FIXED_POINT), ("halve", 0.0), ("damped-shift", 2.0)):
        x0 = ",".join(f"{rng.uniform(-3, 3):.6f}" for _ in range(dim))

        def inner(res, fixed=fixed):
            d = json_out(res)
            bad = max(abs(v - fixed) for v in d["x"])
            return None if bad <= 1e-9 and d["iterations"] > 0 else f"off by {bad:.3g}"

        ops.append(Op(f"solve fixpoint {fn} {dim}", (lambda argv=["solve", "fixpoint", "--fn", fn, f"--x0={x0}", "--json"]:
                                                     run(argv)), expect(0, inner)))
    return ops


_FUNCS = {
    "abs-half": lambda x: abs(x - 0.5),
    "sin-scaled": lambda x: math.sin(math.pi * x),
    "square": lambda x: x * x,
}


def approx_ops(ctx, run, degree, nodes, fn_name):
    rng = ctx.rng
    grid = sorted(rng.sample(range(1, 100), 5))
    grid_s = ",".join(f"{g / 100:g}" for g in grid)
    ops = []

    def sqrt_inner(res):
        for row in json_out(res)["values"]:
            t, v = float(row["t"]), float(row[f"f_{degree}(t)"])
            gap = math.sqrt(t) - v
            if not -1e-12 <= gap <= orc.sqrt_error_bound(degree, t) + 1e-12:
                return f"f_{degree}({t}) = {v} outside [sqrt(t) - bound, sqrt(t)]"
        return None

    ops.append(Op(f"approx sqrt {degree}", lambda: run(["approx", "sqrt", "--n", str(degree), "--grid", grid_s,
                                                         "--json"]), expect(0, sqrt_inner)))
    if fn_name == "poly":
        coeffs = [round(rng.uniform(-2, 2), 3) for _ in range(3)]
        fn_arg, f = f"poly:{','.join(map(str, coeffs))}", lambda x: coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
    else:
        fn_arg, f = fn_name, _FUNCS[fn_name]

    def w_inner(res):
        for row in json_out(res)["values"]:
            x = float(row["x"])
            want = orc.kernel_polynomial(f, degree, x, nodes())
            got = float(row[f"P_{degree}(x)"])
            if abs(got - want) > 1e-7 * max(1.0, abs(want)) or abs(float(row["f(x)"]) - f(x)) > 1e-9:
                return f"P_{degree}({x}) = {got}, expected {want}"
        return None

    ops.append(Op(f"approx weierstrass {degree}", lambda: run(["approx", "weierstrass", "--fn", fn_arg, "--n",
                                                               str(degree), "--grid", grid_s, "--json"]),
                  expect(0, w_inner)))
    delta = rng.choice((0.2, 0.3, 0.5))

    def r_inner(res):
        d = json_out(res)
        want = orc.kernel_tail_ratio(degree, delta, nodes())
        if not d["ratio"] <= d["bound"] or d["ratio_below_bound"] is not True:
            return f"ratio {d['ratio']} above bound {d['bound']}"
        return None if abs(d["ratio"] - want) <= 1e-3 * want else f"ratio {d['ratio']} != {want}"

    ops.append(Op(f"approx kernel-ratio {degree}", lambda: run(["approx", "kernel-ratio", "--n", str(degree),
                                                                "--delta", str(delta), "--json"]), expect(0, r_inner)))
    return ops


def numeric_ops(ctx, run, small):
    nodes = ctx.later(orc.gauss_nodes)
    if small:  # one of each subcommand on small inputs
        ops = logic_ops(ctx, run, 4, 2.0, ("consistent", "model", "algebra", "stone"))
        ops += logic_ops(ctx, run, 4, 8.0, ("consistent",))
        ops += metric_ops(ctx, run, 6, ("pmetric", "hausdorff", "quotient", "net"))
        ops += chain_ops(ctx, run, 5, 2)
        ops += [pagerank_op(ctx, run, 5)] + fixpoint_ops(ctx, run, 2)[:1]
        return ops + approx_ops(ctx, run, 16, nodes, "poly")
    # Sizes span the ranges of each input family with few operations near the
    # top, so a round takes about 2 s and every operation repeats six to ten
    # times in a 20 s run, enough for a steady median of its times (README.md)
    every = ("consistent", "model", "algebra", "stone")
    ops = []
    for k, ratio, whats in ((8, 3.0, every), (9, 3.0, every), (10, 3.0, every), (11, 3.0, ("consistent", "model")),
                            (12, 3.0, ("model",)), (14, 3.0, ("consistent",)), (8, 6.0, ("consistent", "model")),
                            (10, 6.0, ("algebra",)), (12, 6.0, ("consistent",))):
        ops += logic_ops(ctx, run, k, ratio, whats)
    every = ("pmetric", "hausdorff", "quotient", "net")
    for n, whats in ((20, every), (25, ("pmetric", "quotient")), (30, every), (40, every),
                     (60, ("hausdorff", "net")), (90, ("hausdorff",))):
        ops += metric_ops(ctx, run, n, whats)
    for n, depth in ((8, 2), (12, 3), (16, 3), (24, 4)):
        ops += chain_ops(ctx, run, n, depth)
    ops += [pagerank_op(ctx, run, n) for n in (50, 100, 200)]
    for dim in (1, 2, 5, 10, 20, 50):
        ops += fixpoint_ops(ctx, run, dim)
    for degree, fn_name in ((16, "poly"), (24, "square"), (32, "abs-half"), (48, "square"), (64, "sin-scaled"),
                            (96, "abs-half"), (128, "square"), (256, "poly"), (512, "abs-half"), (1024, "sin-scaled")):
        ops += approx_ops(ctx, run, degree, nodes, fn_name)
    return ops


def numeric_logic(ctx):
    return numeric_ops(ctx, ctx.prog.in_process, small=False)


# -- exhaustive-small ----------------------------------------------------------------

# five-point spaces per run, drawn by the seed and checked every round; few
# enough that each ~1 ms operation repeats 20-odd times, so its best time
# catches one of the host's fast moments
SAMPLE = 200


def exhaustive_small(ctx):
    """all_topologies(n) for n <= 4 and a seeded sample of the 6942 five-point topologies.

    The set-up draws which of the 6942 five-point preorders to use; the
    oracle enumerates them all (checked against A000798) afterwards, with
    the other expected values. The whole set takes about 20 s, too long to
    repeat within one run.
    """
    small = ctx.later(lambda: {n: orc.checked_preorders(n) for n in range(5)})
    by_opens = ctx.later(lambda: {n: {frozenset(orc.upsets(up)): up for up in ups} for n, ups in small().items()})
    five = ctx.later(lambda: orc.checked_preorders(5))
    picks = ctx.rng.sample(range(orc.A000798[5]), SAMPLE)
    labels5 = tuple("abcde")
    found = {}  # n -> spaces returned by this round's all_topologies(n)

    def enumerate_op(n):
        def call():
            found[n] = ctx.mods.spaces.all_topologies(n)
            return found[n]

        def check(spaces):
            got = {frozenset(s.opens) for s in spaces}
            if len(spaces) != orc.A000798[n] or got != set(by_opens()[n]):
                return f"{len(spaces)} topologies on {n} points, A000798 says {orc.A000798[n]}"
            return None

        return Op(f"all_topologies({n})", call, check)

    def small_op(n, k):
        def call():
            sp = found[n][k]
            return battery(ctx.mods, sp, None)

        def check(res):
            return check_battery(res, by_opens()[n].get(frozenset(res["space"].opens)))

        return Op(f"battery n={n}", call, check)

    def five_op(k):
        return Op("battery n=5", lambda: battery(ctx.mods, None, (labels5, five()[k])),
                  lambda res: check_battery(res, five()[k]))

    ops = [enumerate_op(n) for n in range(5)]
    ops += [small_op(n, k) for n in range(5) for k in range(orc.A000798[n])]
    return ops + [five_op(k) for k in picks]


def battery(m, space, preorder):
    """Separation, Kuratowski round trip, ultrafilter limits, phi, sobriety, HM, Scott."""
    sp, fl, lc = m.spaces, m.filters, m.locales
    order = None
    if space is None:
        order = sp.Preorder(*preorder)
        space = sp.topology_from_poset(order)
    out = {"space": space, "profile": sp.separation_profile(space)}
    table = sp.induced_closure_table(space)
    out["table"] = table.table
    out["round_trip"] = sp.topology_from_closure(table).opens
    out["limits"] = [fl.limits(space, fl.ultrafilter_at(space.points, p)) for p in space.points]
    out["phi"] = lc.phi_map(space)
    out["points"] = len(lc.points_of_locale(space))
    out["irreducible"], out["sober"] = lc.irreducible_closed_sets(space)
    out["hm"] = lc.hofmann_mislove_report(space)
    if order is not None and order.is_poset:
        out["scott"] = lc.scott_topology(order).opens
    return out


def check_battery(res, up):
    if up is None:
        return "space is not one of the oracle's topologies"
    space = res["space"]
    n = len(up)
    opens = orc.upsets(up)
    if set(space.opens) != set(opens):
        return "opens are not the up-sets"
    sep = orc.separation(up)
    prof = res["profile"]
    for k, v in sep.items():
        if getattr(prof, k) != v:
            return f"{k} = {getattr(prof, k)}, expected {v}"
    closures = [orc.closure(up, a) for a in range(1 << n)]
    if list(res["table"]) != closures or set(res["round_trip"]) != set(opens):
        return "Kuratowski round trip differs"
    for i, lim in enumerate(res["limits"]):
        if lim != closures[1 << i] or not lim >> i & 1:
            return "an ultrafilter does not converge to its point"
    phi = res["phi"]
    if phi.injective != sep["t0"] or not phi.surjective:
        return "phi flags differ"
    if res["points"] != len(set(up)):
        return "locale points are not the distinct kernels"
    if res["sober"] != sep["t0"] or set(res["irreducible"]) != {closures[1 << i] for i in range(n)}:
        return "sobriety differs"
    hm = res["hm"]
    if not hm.bijection_holds or hm.sober != sep["t0"] or list(hm.saturated_compacts) != [u for u in opens if u]:
        return "Hofmann-Mislove report differs"
    if "scott" in res and set(res["scott"]) != set(opens):
        return "Scott topology differs from Alexandrov"
    return None


WORKLOADS = {
    "cli-cold": cli_cold,
    "spaces-large": spaces_large,
    "exhaustive-small": exhaustive_small,
    "numeric-logic": numeric_logic,
}

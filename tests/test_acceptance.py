"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every criterion also enforces its runtime budget.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import finitetop as ft
from finitetop.approx import kernel_mass, named_function, weierstrass_polynomial
from finitetop.bitsets import bits, is_subset, subsets
from finitetop.cli import main
from finitetop.construct import product_label
from finitetop.errors import ValidationError
from finitetop.logic import And, BOT, Iff, Imp, Not, Or, TOP, Var

from conftest import indiscrete_space
from oracles import (
    atoms_of,
    chain_distances_by_fractions,
    chain_units,
    hausdorff_distance_threshold,
    squeeze_violation,
    stationary_by_squaring,
    stone_image,
    truth,
)


@contextmanager
def criterion(num, name, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_seconds
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)")
    assert ok, f"runtime {dt:.2f}s exceeds the {budget_seconds}s budget"


DIV6_SPACE = """\
points: 1 2 3 6
open: 6
open: 2 6
open: 3 6
open: 2 3 6
"""

# The published closure/interior table, with the two misprints corrected:
# row {2,3} closes to {1,2,3} (not {1,2,3,5}), and row {3,6} has interior
# {3,6} (it is an open set; the printed empty interior contradicts the
# complement duality the table itself is computed from).
DIV6_TABLE = {
    ("1",): (("1",), ()),
    ("2",): (("1", "2"), ()),
    ("3",): (("1", "3"), ()),
    ("6",): (("1", "2", "3", "6"), ("6",)),
    ("1", "2"): (("1", "2"), ()),
    ("1", "3"): (("1", "3"), ()),
    ("1", "6"): (("1", "2", "3", "6"), ("6",)),
    ("2", "3"): (("1", "2", "3"), ()),
    ("2", "6"): (("1", "2", "3", "6"), ("2", "6")),
    ("3", "6"): (("1", "2", "3", "6"), ("3", "6")),
    ("1", "2", "3"): (("1", "2", "3"), ()),
    ("1", "2", "6"): (("1", "2", "3", "6"), ("2", "6")),
    ("1", "3", "6"): (("1", "2", "3", "6"), ("3", "6")),
    ("2", "3", "6"): (("1", "2", "3", "6"), ("2", "3", "6")),
    ("1", "2", "3", "6"): (("1", "2", "3", "6"), ("1", "2", "3", "6")),
}

DIV6_NEIGHBORHOOD_BASES = {
    "1": [("1", "2", "3", "6")],
    "2": [("2", "6"), ("2", "3", "6"), ("1", "2", "3", "6")],
    "3": [("3", "6"), ("2", "3", "6"), ("1", "2", "3", "6")],
    "6": [("6",), ("2", "6"), ("3", "6"), ("2", "3", "6"), ("1", "2", "3", "6")],
}


def test_criterion_1_divisors_reproduction(tmp_path, capsys):
    with criterion(1, "divisors-of-6 reproduction", 1.0):
        top = tmp_path / "div6.top"
        top.write_text(DIV6_SPACE)
        assert main(["space", "report", "--in", str(top), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(tuple(o) for o in data["opens"]) == sorted(
            [(), ("6",), ("2", "6"), ("3", "6"), ("2", "3", "6"), ("1", "2", "3", "6")]
        )
        assert len(data["subsets"]) == 15
        for row in data["subsets"]:
            key = tuple(row["set"][1:-1].split())
            cl, interior = DIV6_TABLE[key]
            assert tuple(row["closure"][1:-1].split()) == cl
            assert tuple(row["interior"][1:-1].split()) == interior
        for row in data["neighborhood_bases"]:
            base = [
                tuple(part.strip().lstrip("{").split())
                for part in row["open neighborhoods"].split("}")
                if part.strip()
            ]
            assert base == DIV6_NEIGHBORHOOD_BASES[row["point"]]


def test_criterion_2_base_rejection_witness(tmp_path, capsys):
    with criterion(2, "base rejection witness", 1.0):
        fam = tmp_path / "overlap.fam"
        fam.write_text("points: 0 1 2\nmember: 0 1 2\nmember: 0 1\nmember: 1 2\nmember:\n")
        code = main(["check", "base", "--in", str(fam)])
        err = capsys.readouterr().err
        assert code == 1
        assert "'x': '1'" in err
        with pytest.raises(ValidationError, match="family is not a base") as err:
            ft.generate_topology(ft.SetFamily(("0", "1", "2"), (0b111, 0b011, 0b110, 0)))
        assert err.value.witness["x"] == "1"


def test_criterion_3_separation_examples():
    with criterion(3, "separation examples", 1.0):
        indiscrete = indiscrete_space(("1", "2", "3", "4"))
        prof = ft.separation_profile(indiscrete)
        assert prof.t3 and not prof.t2 and not prof.t1
        pts = ("1", "2", "3", "4")
        opens = {0, 0b1111, 0b0001, 0b0011, 0b0101, 0b0111}
        six = ft.FiniteSpace.from_opens(pts, opens)
        prof = ft.separation_profile(six)
        assert prof.t4 and not prof.t3


PAPER_WEB = (
    (0, 1, 0, 0, 0),
    (0.5, 0, 0.5, 0, 0),
    (1 / 3, 1 / 3, 0, 0, 1 / 3),
    (1, 0, 0, 0, 0),
    (0, 1 / 3, 1 / 3, 1 / 3, 0),
)


def test_criterion_4_pagerank():
    with criterion(4, "pagerank stationary distribution", 1.0):
        m = ft.StochasticMatrix(PAPER_WEB)
        p = ft.pagerank(m, tol=1e-9, max_iter=200)  # raises if 200 are not enough
        for got, want in zip(p, (0.293, 0.390, 0.220, 0.024, 0.073)):
            assert abs(got - want) <= 0.002
        oracle = stationary_by_squaring(m)
        assert max(abs(a - b) for a, b in zip(p, oracle)) <= 1e-6


def test_criterion_5_exhaustive_structural_suite():
    label = "exhaustive structural suite (counts and battery to 5 points, product diagonal to 4)"
    with criterion(5, label, 60.0):
        per_size = {n: ft.all_topologies(n) for n in range(6)}
        assert [len(per_size[n]) for n in range(6)] == [1, 1, 4, 29, 355, 6942]
        for n in range(6):
            for sp in per_size[n]:
                prof = ft.separation_profile(sp)
                # separation ladder and finite T1 rigidity
                if prof.t2:
                    assert prof.t1
                if prof.t1:
                    assert prof.t0
                    assert len(sp.opens) == 1 << sp.n  # discrete
                # Hausdorff iff the diagonal is closed in the product (a 5x5
                # product has 25 points, over the 16-point cap)
                if 0 < sp.n <= 4:
                    prod = ft.product(sp, sp)
                    diag = 0
                    for p in sp.points:
                        diag |= 1 << prod.index(product_label(p, p))
                    assert prof.t2 == (prod.closure(diag) == diag)
                # limit uniqueness iff Hausdorff, and ultrafilters converge
                if sp.n:
                    unique = True
                    for k in range(1, sp.full + 1):  # every filter, by its kernel
                        lim = ft.limits(sp, k)
                        if lim.bit_count() > 1:
                            unique = False
                        if k.bit_count() == 1:  # an ultrafilter
                            assert lim != 0
                    assert unique == prof.t2
                # Kuratowski round trips
                table = ft.induced_closure_table(sp)
                table.validate()
                back = ft.topology_from_closure(table)
                assert back.opens == sp.opens
                for mask in subsets(sp.full):
                    assert back.closure(mask) == table.table[mask]
                # Alexandrov / specialization inverse pair
                order = ft.Preorder(sp.points, sp.rel)  # the space's own `rel`
                assert ft.topology_from_poset(order).opens == sp.opens
                assert ft.topology_from_poset(order).rel == order.rel
                # Hofmann-Mislove bijection on the sober members
                hm = ft.hofmann_mislove_report(sp)
                assert hm.sober == (prof.t0)
                if hm.sober:
                    assert hm.bijection_holds


def _random_plane_pseudometric(rng, n):
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.25:
            pts.append(rng.choice(pts))
        else:
            pts.append((rng.uniform(0, 4), rng.uniform(0, 4)))
    labels = tuple(str(i + 1) for i in range(n))
    rows = [[math.dist(p, q) for q in pts] for p in pts]
    return ft.PMetricSpace(labels, rows)


def _random_chain(rng, max_points=6, max_depth=4):
    n = rng.randint(2, max_points)
    rels = []
    cur = [1 << i for i in range(n)]
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        cur[i] |= 1 << j
        cur[j] |= 1 << i
    rels.append(tuple(cur))
    for _ in range(rng.randint(1, max_depth) - 1):
        grown = [0] * n
        mid = [0] * n
        for i in range(n):
            for j in bits(rels[0][i]):
                mid[i] |= rels[0][j]
        for i in range(n):
            for j in bits(mid[i]):
                grown[i] |= rels[0][j]
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            grown[i] |= 1 << j
            grown[j] |= 1 << i
        rels.insert(0, tuple(grown))
    return ft.RelationChain(tuple(chr(97 + i) for i in range(n)), tuple(rels))


def test_criterion_6_pseudometric_suite():
    with criterion(6, "pseudometric suite", 30.0):
        rng = random.Random(60451)
        # Hausdorff max form == threshold-infimum form, all subset pairs
        for _ in range(50):
            sp = _random_plane_pseudometric(rng, 5)
            for c in range(1, 1 << sp.n):
                for d in range(1, 1 << sp.n):
                    assert ft.hausdorff_distance(sp, c, d) == hausdorff_distance_threshold(sp, c, d)
        # chain squeeze on 200 random valid chains
        for _ in range(200):
            chain = _random_chain(rng)
            result = ft.pseudometric_from_chain(chain)
            units = chain_units(chain, result)
            assert squeeze_violation(chain, units) is None
            scale = 1 << (chain.depth + 1)
            exact = tuple(tuple(Fraction(v, scale) for v in row) for row in units)
            assert exact == chain_distances_by_fractions(chain)
            for level, rel in enumerate(chain.relations, start=1):
                bound = Fraction(1, 2**level)
                for i in range(chain.n):
                    for j in range(chain.n):
                        if rel[i] >> j & 1:
                            assert exact[i][j] < bound
                        if exact[i][j] < bound and level >= 2:
                            assert chain.relations[level - 2][i] >> j & 1
        # metric quotient well-definedness and metric-ness
        for _ in range(50):
            sp = _random_plane_pseudometric(rng, 5)
            q, classes = ft.metric_quotient(sp)
            assert q.is_metric
            rep_of = {}
            for ci, cls in enumerate(classes):
                for i in bits(cls):
                    rep_of[i] = ci
            for i in range(sp.n):
                for j in range(sp.n):
                    assert sp.dist[i][j] == q.dist[rep_of[i]][rep_of[j]]
            # Lipschitz bound for d(x, A) = min over a in A of d(x, a) on the same space
            for a in range(1, 1 << sp.n):
                dvals = [min(row[j] for j in bits(a)) for row in sp.dist]
                for i in range(sp.n):
                    for j in range(sp.n):
                        assert abs(dvals[i] - dvals[j]) <= sp.dist[i][j] + 1e-12


def test_criterion_7_approximation():
    with criterion(7, "kernel approximation bounds", 30.0):
        for n in range(1, 21):
            assert kernel_mass(n) > 1.0 / (n + 1)
        for delta in (0.1, 0.3, 0.5, 0.9):
            for n in range(1, 33):
                r = ft.kernel_ratio(n, delta)
                assert r.ratio < r.bound
        f = named_function("abs-half")
        interior = [0.1 + i * 0.8 / 32 for i in range(33)]
        sup_err = {}
        for n in (4, 64):
            ev = weierstrass_polynomial(f, n)
            sup_err[n] = max(abs(ev(x) - f(x)) for x in interior)
        # both values pinned by the 16384-panel quadrature oracle
        assert abs(sup_err[4] - 0.2445927371582) < 1e-6
        assert abs(sup_err[64] - 0.0698446601632) < 1e-6
        assert sup_err[64] < sup_err[4]
        grid = [i / 16 for i in range(17)]
        prev = ft.sqrt_iteration(0, grid).values
        for n in range(1, 201):
            cur = ft.sqrt_iteration(n, grid).values
            for t, lo, hi in zip(grid, prev, cur):
                assert lo <= hi <= math.sqrt(t) + 1e-15
            prev = cur


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return TOP if rng.random() < 0.5 else BOT
        return Var(rng.choice(names))
    op = rng.choice(("not", "and", "or", "imp", "iff"))
    a = _random_formula(rng, names, depth - 1)
    if op == "not":
        return Not(a)
    b = _random_formula(rng, names, depth - 1)
    return {"and": And, "or": Or, "imp": Imp, "iff": Iff}[op](a, b)


def test_criterion_8_logic():
    with criterion(8, "propositional model builder", 10.0):
        rng = random.Random(80080)
        names = ["p", "q", "r"]
        satisfied = 0
        while satisfied < 200:
            theory = ft.Theory.of(
                [_random_formula(rng, names, rng.randint(1, 3)) for _ in range(rng.randint(1, 5))],
                vars=tuple(names),
            )
            if not theory.truth_table():  # inconsistent
                continue
            model = ft.model_from_ultrafilter(theory)
            assert all(truth(f, model.valuation) for f in theory.formulas)
            satisfied += 1
        assert ft.lindenbaum_algebra(ft.Theory.of([], vars=("p",))).size == 4
        assert ft.lindenbaum_algebra(ft.Theory.of([], vars=("p", "q"))).size == 16
        for vars in (("p",), ("p", "q")):
            alg = ft.lindenbaum_algebra(ft.Theory.of([], vars=vars))
            assert alg.size <= 16
            for a in subsets(alg.top):  # the elements; meet, join and complement are &, | and top ^
                for b in subsets(alg.top):
                    assert stone_image(alg, a & b) == stone_image(alg, a) & stone_image(alg, b)
                    assert stone_image(alg, a | b) == stone_image(alg, a) | stone_image(alg, b)
                assert stone_image(alg, alg.top ^ a) == sum(atoms_of(alg)) - stone_image(alg, a)

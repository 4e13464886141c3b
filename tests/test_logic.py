import random
import re
import tracemalloc

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitetop as ft
from finitetop import logic
from finitetop.bitsets import subsets
from finitetop.errors import FormatError, ValidationError
from finitetop.logic import (
    MAX_CONNECTIVES,
    MAX_DEPTH,
    MAX_NESTING,
    And,
    BOT,
    Not,
    TOP,
    Var,
    _Parser,
    biconditional,
    disjunction,
    implication,
    refutation,
    variables_of,
)
from oracles import depth_by_fold, evaluate, parse_formula_by_descent, size_by_fold, variables_by_fold


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TOP if rng.random() < 0.5 else BOT
        return Var(rng.choice(names))
    op = rng.choice(("not", "and", "or", "imp", "iff"))
    a = random_formula(rng, names, depth - 1)
    if op == "not":
        return Not(a)
    b = random_formula(rng, names, depth - 1)
    return {
        "and": And,
        "or": disjunction,
        "imp": implication,
        "iff": biconditional,
    }[op](a, b)


def structure(formula):
    """The formula as a DAG: one entry per distinct node (by identity), its kind and its children's indices.

    Linear in the distinct nodes, where `==` and `str` take time exponential
    in a chain of '<->'.
    """
    index, out = {}, []

    def visit(f):
        if id(f) not in index:
            if type(f) is Not:
                entry = ("~", visit(f.arg))
            elif type(f) is And:
                entry = ("&", visit(f.left), visit(f.right))
            else:
                entry = (type(f).__name__, f.name if type(f) is Var else f.value)
            index[id(f)] = len(out)
            out.append(entry)
        return index[id(f)]

    visit(formula)
    return out


def parsed_or_error(parse, line):
    try:
        return parse(line), None
    except FormatError as e:
        return None, str(e)


def agrees_with_descent(line):
    """The parser gives the oracle's tree or its FormatError, with the oracle's depth and variables.

    Returns whether the line parsed.
    """
    want, want_error = parsed_or_error(parse_formula_by_descent, line)
    got, got_error = parsed_or_error(ft.parse_formula, line)
    assert got_error == want_error, line
    if got is None:
        return False
    assert structure(got) == structure(want), line
    assert _Parser(line).iff(0)[1] == depth_by_fold(want), line
    assert variables_of(got) == variables_by_fold(want), line
    return True


_OPERANDS = ("p", "q", "r1", "x_y", "top", "bot")
_SPACES = ("", " ", " ", "  ", "\t")
# tokens, and characters and fragments that start none
_INSERTS = ("~", "(", ")", "&", "|", "->", "<->", "p", "top", "A", "1", "_", "<", "-", ">", "<-", "- >", "#", "\u00e9",
            "\u00a0", "\x1c", "\n")


def random_text(rng, depth):
    """Well-formed formula text with random spacing."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_OPERANDS)
    gap = rng.choice(_SPACES)
    roll = rng.random()
    if roll < 0.15:
        return "~" + gap + random_text(rng, depth - 1)
    if roll < 0.3:
        return "(" + gap + random_text(rng, depth - 1) + rng.choice(_SPACES) + ")"
    op = rng.choice(("&", "|", "->", "<->"))
    return random_text(rng, depth - 1) + gap + op + rng.choice(_SPACES) + random_text(rng, depth - 1)


def random_line(rng):
    """A formula line, at times past a cap, with up to three malformed insertions or deletions."""
    roll = rng.random()
    if roll < 0.03:  # long runs that reach the caps
        k = rng.randint(1, 160)
        text = rng.choice((
            "~" * k + "p", "(" * k + "p" + ")" * k, " & ".join(["p"] * k), " | ".join(["p"] * k),
            "p -> " * k + "p", " <-> ".join(["p"] * (k // 4 + 1)), "(p <-> " * (k // 8) + "p" + ")" * (k // 8),
        ))
    else:
        text = rng.choice(_SPACES) + random_text(rng, rng.randint(0, 6)) + rng.choice(_SPACES)
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.75:
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


# -- parsing -------------------------------------------------------------------


def test_precedence_and_over_or():
    f = ft.parse_formula("p & q | r")
    assert f == disjunction(And(Var("p"), Var("q")), Var("r"))


def test_implication_right_associative():
    f = ft.parse_formula("~p -> q -> r")
    assert f == implication(Not(Var("p")), implication(Var("q"), Var("r")))


def test_syntax_error_carries_position():
    with pytest.raises(FormatError) as err:
        ft.parse_formula("p & | q")
    assert "position 4" in str(err.value)


def test_parentheses_and_constants():
    f = ft.parse_formula("(p | q) & top")
    assert f == And(disjunction(Var("p"), Var("q")), TOP)
    assert ft.parse_formula("bot") == BOT


def test_biconditional_parses():
    f = ft.parse_formula("p <-> q")
    assert f == biconditional(Var("p"), Var("q"))


_A, _B, _C = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize(
    "text, tree",
    [
        ("a -> b <-> c", biconditional(implication(_A, _B), _C)),
        ("a <-> b -> c", biconditional(_A, implication(_B, _C))),
        ("a | b -> c", implication(disjunction(_A, _B), _C)),
        ("~a -> b", implication(Not(_A), _B)),
        ("a & b <-> c", biconditional(And(_A, _B), _C)),
    ],
)
def test_mixed_connectives_parse_by_precedence(text, tree):
    assert ft.parse_formula(text) == tree


@pytest.mark.parametrize(
    "build, cap, message",
    [
        (lambda k: "~" * k + "p", MAX_NESTING, "nests"),
        (lambda k: "(" * k + "p" + ")" * k, MAX_NESTING, "nests"),
        (lambda k: " & ".join(["p"] * (k + 1)), MAX_DEPTH, "deep"),
        # each '|' adds three levels: p | q is ~(~p & ~q)
        (lambda k: " | ".join(["p"] * (k + 1)), MAX_DEPTH // 3, "deep"),
        # p -> q is ~(~~p & ~q): the first arrow is 4 deep, each further one 3 more
        (lambda k: "p -> " * k + "p", (MAX_DEPTH - 1) // 3, "deep"),
    ],
    ids=["negations", "parentheses", "conjunctions", "disjunctions", "implications"],
)
def test_formula_caps(build, cap, message):
    """At the cap every recursive walk succeeds; one past it is refused by that cap.

    One below the cap, at it and one past it, the parser agrees with the oracle.
    """
    for k in (cap - 1, cap, cap + 1):
        assert agrees_with_descent(build(k)) == (k <= cap)
    f = ft.parse_formula(build(cap))
    evaluate(f, frozenset({"p"}))
    assert f == ft.parse_formula(build(cap)) and str(f) and repr(f) and hash(f)
    with pytest.raises(FormatError, match=message):
        ft.parse_formula(build(cap + 1))


def test_parser_round_trips_structure():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, ["p", "q", "r"], 4)
        assert ft.parse_formula(str(f)) == f


def test_parser_round_trips_semantics():
    rng = random.Random(5)
    names = ["p", "q", "r"]
    for _ in range(100):
        f = random_formula(rng, names, 3)
        g = ft.parse_formula(str(f))
        for bits in range(8):
            val = frozenset(n for i, n in enumerate(names) if bits >> i & 1)
            assert evaluate(f, val) == evaluate(g, val)


def test_parser_agrees_with_descent_oracle_on_random_lines():
    rng = random.Random(29)
    parsed = sum(agrees_with_descent(random_line(rng)) for _ in range(20_000))
    assert 5_000 < parsed < 15_000  # both outcomes are well represented


def refuted(f):
    """The theory {f, ~f}, the number of its refuted formula and that formula printed."""
    number = 2 if ft.Theory.of([f]).truth_table() else 1
    return ft.Theory.of([f, Not(f)]), number, str(Not(f) if number == 2 else f)


def test_size_counts_the_printed_connectives(monkeypatch):
    """The witness prints the refuted formula up to MAX_CONNECTIVES '~' and '&', and past that counts them."""
    rng = random.Random(31)
    for _ in range(300):
        f = ft.parse_formula(random_text(rng, 5))
        if size_by_fold(f) <= 5000:
            theory, number, printed = refuted(f)
            size = printed.count("~") + printed.count("&")
            monkeypatch.setattr(logic, "MAX_CONNECTIVES", size)
            assert refutation(theory) == (0, {"formula": printed})
            monkeypatch.setattr(logic, "MAX_CONNECTIVES", size - 1)
            assert refutation(theory) == (0, {"formula_number": number, "connectives": size})


def test_witness_of_a_biconditional_chain_is_linear():
    """k links print 11 * (2^k - 1) connectives: a witness prints 12 links and counts 13 or 30."""
    cap = (MAX_CONNECTIVES // 11 + 1).bit_length() - 1
    assert cap == 12
    for k in (cap - 1, cap, cap + 1, 30):
        f = ft.parse_formula(" <-> ".join(["p"] * (k + 1)))
        theory = ft.Theory.of([f, Not(f)])  # p = top satisfies the chain: ~f is refuted
        witness = refutation(theory)[1]
        if k <= cap:
            assert witness == {"formula": str(Not(f))}
        else:
            assert witness == {"formula_number": 2, "connectives": 11 * ((1 << k) - 1) + 1}
        with pytest.raises(ValidationError) as err:
            ft.lindenbaum_algebra(theory)
        assert err.value.witness == witness


def test_a_theory_of_non_formulas_is_refused():
    with pytest.raises(FormatError, match="not a formula: 'p'"):
        ft.Theory.of([Not(And(Var("a"), "p"))])


# -- consistency and equivalence ------------------------------------------------


def test_consistency_examples():
    # a theory is consistent iff its model table is nonzero
    assert ft.Theory.of([ft.parse_formula("p")]).truth_table()
    assert not ft.Theory.of([ft.parse_formula("p"), ft.parse_formula("~p")]).truth_table()
    t = ft.Theory.of(
        [ft.parse_formula("p -> q"), ft.parse_formula("p"), ft.parse_formula("~q")]
    )
    assert not t.truth_table()


def test_equivalence_examples():
    # equivalent modulo a theory iff the two formulas have one class
    empty = ft.lindenbaum_algebra(ft.Theory.of([], vars=("p",)))
    assert empty.class_of(ft.parse_formula("p | ~p")) == empty.class_of(TOP)
    with_p = ft.lindenbaum_algebra(ft.Theory.of([ft.parse_formula("p")], vars=("p", "q")))
    assert with_p.class_of(ft.parse_formula("p & q")) == with_p.class_of(ft.parse_formula("q"))
    assert with_p.class_of(ft.parse_formula("q")) != with_p.class_of(ft.parse_formula("~q"))
    alg = ft.lindenbaum_algebra(ft.Theory.of([], vars=("p", "q", "r")))
    assert alg.class_of(ft.parse_formula("p -> q & r")) == alg.class_of(ft.parse_formula("~p | q & r"))


def test_variable_universe_enforced():
    with pytest.raises(FormatError):
        ft.Theory.of([ft.parse_formula("p")], vars=("q",))
    with pytest.raises(ValidationError):
        ft.Theory.of([], vars=tuple(f"v{i}" for i in range(17)))
    with pytest.raises(FormatError, match="^duplicate variable in universe$"):
        ft.Theory.of([], vars=("p", "q", "p"))


def test_undeclared_variable_is_refused_by_every_table():
    theory = ft.Theory.of([], vars=("p",))
    q = ft.parse_formula("q")
    with pytest.raises(FormatError, match="undeclared variable 'q'"):
        theory.table_of(q)
    with pytest.raises(FormatError, match="^not a formula: 'p'$"):
        theory.table_of("p")
    with pytest.raises(FormatError, match="undeclared variable 'q'"):
        ft.lindenbaum_algebra(theory).class_of(q)


@pytest.mark.parametrize(
    "formula, message",
    [
        (And(Var("q"), "x"), "not a formula: 'x'"),
        (And("x", Var("q")), "formula uses undeclared variable 'q'"),
        (And(Var("q"), Var("r")), "formula uses undeclared variable 'r'"),
        (Not(And(Var("r"), Not(Var("q")))), "formula uses undeclared variable 'q'"),
        (And(Var("p"), 5), "not a formula: 5"),
        (Not(Not(3)), "not a formula: 3"),
    ],
)
def test_a_table_names_the_fault_its_fold_meets_first(formula, message):
    # the right operand of '&' is folded before the left, so of two faults it names the right one's
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        ft.Theory.of([], vars=("p",)).table_of(formula)


# -- the algebra -------------------------------------------------------------------


def test_algebra_sizes():
    assert ft.lindenbaum_algebra(ft.Theory.of([], vars=("p",))).size == 4
    assert ft.lindenbaum_algebra(ft.Theory.of([], vars=("p", "q"))).size == 16
    assert ft.lindenbaum_algebra(ft.Theory.of([ft.parse_formula("p")])).size == 2


def test_inconsistent_theory_has_no_algebra():
    t = ft.Theory.of([ft.parse_formula("p"), ft.parse_formula("~p")])
    with pytest.raises(ValidationError):
        ft.lindenbaum_algebra(t)


def test_class_operations_are_homomorphic():
    rng = random.Random(11)
    names = ["p", "q", "r"]
    alg = ft.lindenbaum_algebra(ft.Theory.of([ft.parse_formula("p | q")], vars=tuple(names)))
    for _ in range(200):
        a = random_formula(rng, names, 3)
        b = random_formula(rng, names, 3)
        ca, cb = alg.class_of(a), alg.class_of(b)
        # meet, join and complement are the mask expressions &, | and top ^
        assert alg.class_of(And(a, b)) == ca & cb
        assert alg.class_of(disjunction(a, b)) == ca | cb
        assert alg.class_of(Not(a)) == alg.top ^ ca
    assert alg.class_of(TOP) == alg.top
    assert alg.class_of(BOT) == 0


def test_boolean_axioms_elementwise():
    # the laws hold for the classes of formulas, and the classes are the submasks of top
    rng = random.Random(7)
    names = ["p", "q"]
    alg = ft.lindenbaum_algebra(ft.Theory.of([], vars=tuple(names)))
    seen = set()
    for _ in range(300):
        a, b, c = (random_formula(rng, names, 3) for _ in range(3))
        seen.add(alg.class_of(a))
        assert alg.class_of(disjunction(a, Not(a))) == alg.top
        assert alg.class_of(And(a, Not(a))) == 0
        # de Morgan
        assert alg.class_of(Not(And(a, b))) == alg.class_of(disjunction(Not(a), Not(b)))
        assert alg.class_of(And(a, disjunction(b, c))) == alg.class_of(disjunction(And(a, b), And(a, c)))
    assert seen == set(subsets(alg.top))


def test_equivalence_matches_class_equality():
    rng = random.Random(13)
    names = ["p", "q"]
    theory = ft.Theory.of([ft.parse_formula("p -> q")], vars=tuple(names))
    alg = ft.lindenbaum_algebra(theory)
    models = oracles.models(theory)
    for _ in range(100):
        a = random_formula(rng, names, 3)
        b = random_formula(rng, names, 3)
        # equivalent modulo the theory: the same truth value at every model
        assert all(oracles.truth(a, v) == oracles.truth(b, v) for v in models) == (
            alg.class_of(a) == alg.class_of(b)
        )


# -- models from ultrafilters --------------------------------------------------------


def test_model_examples():
    m = ft.model_from_ultrafilter(
        ft.Theory.of([ft.parse_formula("p | q"), ft.parse_formula("~p")])
    )
    assert m.valuation == frozenset({"q"})
    m = ft.model_from_ultrafilter(ft.Theory.of([], vars=("p",)))
    assert m.valuation == frozenset()  # lexicographically first, bot < top
    m = ft.model_from_ultrafilter(
        ft.Theory.of([ft.parse_formula("p <-> q"), ft.parse_formula("p")])
    )
    assert m.valuation == frozenset({"p", "q"})


def test_model_requires_consistency():
    with pytest.raises(ValidationError):
        ft.model_from_ultrafilter(
            ft.Theory.of([ft.parse_formula("p"), ft.parse_formula("~p")])
        )


def test_truth_in_model_equals_membership_in_ultrafilter():
    rng = random.Random(17)
    names = ["p", "q", "r"]
    theory = ft.Theory.of([ft.parse_formula("p | q | r")], vars=tuple(names))
    model = ft.model_from_ultrafilter(theory)
    for _ in range(300):
        f = random_formula(rng, names, 3)
        assert evaluate(f, model.valuation) == bool(model.algebra.class_of(f) & model.atom)


def test_random_consistent_theories_are_satisfied():
    rng = random.Random(19)
    names = ["p", "q", "r"]
    done = 0
    while done < 60:
        formulas = [
            random_formula(rng, names, rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        ]
        theory = ft.Theory.of(formulas, vars=tuple(names))
        if not theory.truth_table():  # inconsistent
            continue
        model = ft.model_from_ultrafilter(theory)
        assert all(evaluate(f, model.valuation) for f in theory.formulas)
        done += 1


# -- truth tables against the valuation sweep ------------------------------------


def shared_formula(rng, names, depth, pool):
    """A random formula that reuses earlier subformulas from `pool` as shared subtrees."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.3:
        if not names or rng.random() < 0.15:
            return TOP if rng.random() < 0.5 else BOT
        return Var(rng.choice(names))
    op = rng.choice(("not", "and", "or", "imp", "iff", "iff"))
    a = shared_formula(rng, names, depth - 1, pool)
    if op == "not":
        f = Not(a)
    else:
        b = shared_formula(rng, names, depth - 1, pool)
        f = {"and": And, "or": disjunction, "imp": implication, "iff": biconditional}[op](a, b)
    pool.append(f)
    return f


def test_models_match_valuation_sweep():
    rng = random.Random(23)
    for k in range(9):
        names = [f"v{i}" for i in range(k)]
        for _ in range(20):
            pool = []
            formulas = [shared_formula(rng, names, 4, pool) for _ in range(rng.randint(0, 4))]
            theory = ft.Theory.of(formulas, vars=tuple(names))
            want = oracles.models(theory)
            assert theory.models() == want
            assert bool(theory.truth_table()) == bool(want)
            # the refuting formula ends the shortest prefix of the theory that has no model
            prefixes = (ft.Theory.of(formulas[: i + 1], vars=tuple(names)) for i in range(len(formulas)))
            first = next((f for f, t in zip(formulas, prefixes) if not oracles.models(t)), None)
            assert refutation(theory)[1] == (None if first is None else {"formula": str(first)})
            if k <= 4:
                for f in formulas:
                    table = theory.table_of(f)
                    for m, v in enumerate(theory.valuations()):
                        assert evaluate(f, v) == oracles.truth(f, v) == bool(table >> m & 1)


def test_models_match_valuation_sweep_on_16_variables():
    rng = random.Random(16)
    names = [f"x{i}" for i in range(16)]
    clauses = [
        " | ".join(("~" if rng.random() < 0.5 else "") + v for v in rng.sample(names, 3))
        for _ in range(8)
    ]
    theory = ft.Theory.of([ft.parse_formula(c) for c in clauses + ["x0 <-> x15 <-> x7"]], vars=names)
    want = oracles.models(theory)
    assert theory.models() == want
    assert 0 < len(want) < 1 << 16


def assert_table_agrees(theory, f):
    """Every bit of the formula's table is its value by the fold oracle and by the tree walk."""
    table = theory.table_of(f)
    for m, v in enumerate(theory.valuations()):
        assert evaluate(f, v) == oracles.truth(f, v) == bool(table >> m & 1), (f, m)
    return table


def test_tables_agree_with_the_valuation_oracles_under_negation():
    theory = ft.Theory.of([], vars=("a", "b", "c"))
    a, b, c = Var("a"), Var("b"), Var("c")
    # constants under one and two '~', and '<->' nodes whose shared operands are reached under both polarities
    for f in (Not(TOP), Not(BOT), Not(Not(TOP)), Not(Not(BOT)), And(Not(TOP), a), disjunction(Not(Not(BOT)), b)):
        assert_table_agrees(theory, f)
    for text in ("~top", "~~bot", "~(a <-> b)", "~~(a <-> ~a)", "a <-> ~b <-> c <-> ~(a <-> b)",
                 "~(~(a <-> b) <-> ~(b <-> ~~c))", "~(a <-> (b <-> (c <-> ~a)))"):
        assert_table_agrees(theory, ft.parse_formula(text))
    assert theory.table_of(ft.parse_formula("~~(a <-> ~a)")) == 0
    assert theory.table_of(ft.parse_formula("~(a <-> ~a)")) == (1 << 8) - 1
    # one formula built twice: parsed as a tree, and from the constructors with its operands shared
    x = disjunction(a, Not(b))
    shared = biconditional(x, And(Not(x), implication(c, Not(x))))
    parsed = ft.parse_formula("(a | ~b) <-> ~(a | ~b) & (c -> ~(a | ~b))")
    assert str(parsed) == str(shared)
    assert assert_table_agrees(theory, shared) == assert_table_agrees(theory, parsed)
    rng = random.Random(34)
    for k in (3, 4, 5):
        names = [f"v{i}" for i in range(k)]
        theory = ft.Theory.of([], vars=tuple(names))
        for _ in range(60):
            f = shared_formula(rng, names, 5, [])
            table = assert_table_agrees(theory, f)
            if size_by_fold(f) <= 2000:
                assert theory.table_of(ft.parse_formula(str(f))) == table
            assert theory.table_of(Not(f)) == table ^ ((1 << (1 << k)) - 1)


def test_deep_library_built_formulas_fold_without_recursion():
    theory = ft.Theory.of([], vars=("p", "q"))
    p, q = theory.table_of(Var("p")), theory.table_of(Var("q"))
    f = Var("p")
    for _ in range(100_000):
        f = Not(f)
    assert theory.table_of(f) == p
    assert theory.table_of(Not(f)) == p ^ 0b1111
    g = Var("q")
    for _ in range(100_000):
        g = And(g, Var("p"))
    assert theory.table_of(g) == p & q
    h = Var("q")
    for _ in range(100_000):
        h = disjunction(Not(Var("p")), h)  # '&' nodes under alternating polarity, nested in the right operand
    assert theory.table_of(h) == (p ^ 0b1111) | q


# -- Stone representation --------------------------------------------------------------


def test_stone_extremes():
    alg = ft.lindenbaum_algebra(ft.Theory.of([], vars=("p",)))
    assert oracles.atoms_of(alg) == [0b01, 0b10]
    assert oracles.stone_image(alg, alg.top) == alg.top == sum(oracles.atoms_of(alg))
    assert oracles.stone_image(alg, 0) == 0


def test_stone_is_injective_homomorphism():
    for vars in (("p",), ("p", "q")):
        alg = ft.lindenbaum_algebra(ft.Theory.of([], vars=vars))
        images = {}
        for a in subsets(alg.top):  # the elements
            images[a] = oracles.stone_image(alg, a)
            assert images[a] == a  # the image, as a mask of single-model bits, is the element
            # the ultrafilter of an atom u contains a iff u lies below a
            assert images[a] == sum(u for u in oracles.atoms_of(alg) if u & a == u)
        assert len(set(images.values())) == alg.size  # injective
        for a in subsets(alg.top):
            for b in subsets(alg.top):
                assert oracles.stone_image(alg, a & b) == images[a] & images[b]
                assert oracles.stone_image(alg, a | b) == images[a] | images[b]
            assert oracles.stone_image(alg, alg.top ^ a) == alg.top - images[a]


def test_stone_and_model_on_the_16_variable_tautology_stay_small():
    theory = ft.Theory.of([ft.parse_formula(" | ".join(f"x{i}" for i in range(16)))])
    tracemalloc.start()
    try:
        alg = ft.lindenbaum_algebra(theory)
        assert alg.model_count == 65535
        model = ft.model_from_ultrafilter(theory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert oracles.stone_image(alg, alg.top) == alg.top  # every ultrafilter contains top
    # the first model in valuation order sets only the last sorted variable
    assert theory.vars[-1] == "x9" and model.valuation == frozenset({"x9"})

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
    And,
    BOT,
    Iff,
    Imp,
    Not,
    Or,
    TOP,
    Var,
    _fold,
    _parse,
    refutation,
)
from oracles import (
    biconditional,
    depth_by_fold,
    disjunction,
    evaluate,
    implication,
    parse_formula_by_descent,
    size_by_fold,
    variables_by_fold,
)


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
    return {"and": And, "or": Or, "imp": Imp, "iff": Iff}[op](a, b)


def structure(formula):
    """The formula by value: its distinct subformulas, each its kind and its operands' places, and the root's place.

    One fold, linear in the distinct nodes, where `==` and `str` take time
    exponential in a chain of '<->' rewritten over '~' and '&'.
    """
    index = {}

    def node(*key):
        return index.setdefault(key, len(index))

    def binary(kind):
        return lambda a, b: node(kind, a, b)

    root = _fold(formula, lambda name: node("var", name), node("top"), node("bot"), lambda a: node("~", a),
                 binary("&"), binary("|"), binary("->"), binary("<->"))
    return list(index), root


def parsed_or_error(parse, line):
    try:
        return parse(line), None
    except FormatError as e:
        return None, str(e)


def agrees_with_descent(line):
    """The parser gives the oracle's tree as written or its FormatError, with the oracle's depth, variables and table.

    The table is held to the oracle's tree rewritten over '~' and '&', on
    every valuation. Returns whether the line parsed.
    """
    want, want_error = parsed_or_error(lambda text: parse_formula_by_descent(text, written=True), line)
    atoms = {}
    got, got_error = parsed_or_error(lambda text: ft.parse_formula(text, atoms), line)
    assert got_error == want_error, line
    if got is None:
        return False
    assert structure(got) == structure(want), line
    assert _parse(line, {})[1] == depth_by_fold(want), line
    rewritten = parse_formula_by_descent(line)
    assert set(atoms) == variables_by_fold(rewritten), line
    theory = ft.Theory.of([], vars=sorted(atoms))
    table = theory.table_of(got)
    for m, v in enumerate(theory.valuations()):
        assert evaluate(rewritten, v) == bool(table >> m & 1), line
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
        return "~" * rng.choice((1, 1, 2, 3)) + gap + random_text(rng, depth - 1)
    if roll < 0.3:
        return "(" + gap + random_text(rng, depth - 1) + rng.choice(_SPACES) + ")"
    op = rng.choice(("&", "|", "->", "<->"))
    return random_text(rng, depth - 1) + gap + op + rng.choice(_SPACES) + random_text(rng, depth - 1)


def random_line(rng):
    """A formula line, at times past a cap, with up to three malformed insertions or deletions."""
    roll = rng.random()
    if roll < 0.03:  # long runs that reach the depth cap, and parentheses, which add no depth
        k = rng.randint(1, 160)
        text = rng.choice((
            "~" * k + "p", "(" * k + "p" + ")" * k, " & ".join(["p"] * k), " | ".join(["p"] * k),
            "p -> " * k + "p", " <-> ".join(["p"] * k), "(p <-> " * k + "p" + ")" * k,
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
    assert f == Or(And(Var("p"), Var("q")), Var("r"))


def test_implication_right_associative():
    f = ft.parse_formula("~p -> q -> r")
    assert f == Imp(Not(Var("p")), Imp(Var("q"), Var("r")))


def test_syntax_error_carries_position():
    with pytest.raises(FormatError) as err:
        ft.parse_formula("p & | q")
    assert "position 4" in str(err.value)
    # a character no token starts is placed at itself, not at the whitespace before it
    for text, pos in (("a é", 2), ("a  \t$b", 4), ("é", 0)):
        with pytest.raises(FormatError) as err:
            ft.parse_formula(text)
        assert str(err.value) == f"syntax error at position {pos}: {text[pos:][:10]!r}"


def test_parentheses_and_constants():
    f = ft.parse_formula("(p | q) & top")
    assert f == And(Or(Var("p"), Var("q")), TOP)
    assert ft.parse_formula("bot") == BOT


def test_biconditional_parses():
    f = ft.parse_formula("p <-> q")
    assert f == Iff(Var("p"), Var("q"))


_A, _B, _C = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize(
    "text, tree",
    [
        ("a -> b <-> c", Iff(Imp(_A, _B), _C)),
        ("a <-> b -> c", Iff(_A, Imp(_B, _C))),
        ("a | b -> c", Imp(Or(_A, _B), _C)),
        ("~a -> b", Imp(Not(_A), _B)),
        ("a & b <-> c", Iff(And(_A, _B), _C)),
    ],
)
def test_mixed_connectives_parse_by_precedence(text, tree):
    assert ft.parse_formula(text) == tree
    assert str(tree) == text  # printed as written


def test_a_witness_prints_the_formula_as_written():
    cases = {
        "~p03 | ~p09 | ~p07": "~p03 | ~p09 | ~p07",
        "((a & b)) & (c & d)": "a & b & (c & d)",
        "(a -> b) -> c -> d": "(a -> b) -> c -> d",
        "a <-> (b <-> c) <-> d": "a <-> (b <-> c) <-> d",
        "~(a | b) & ~~(c -> d) | ~(e <-> top)": "~(a | b) & ~~(c -> d) | ~(e <-> top)",
    }
    for text, printed in cases.items():
        theory = ft.Theory.of([ft.parse_formula(text), Not(ft.parse_formula(text))])
        assert refutation(theory)[1] == {"formula": f"~({printed})"}  # each formula is satisfiable
        assert str(ft.parse_formula(printed)) == printed


def test_parentheses_add_no_depth():
    """The parser does not recurse, so parentheses nest without a cap; only the connectives they hold count."""
    assert ft.parse_formula("(" * 100_000 + "p" + ")" * 100_000) == Var("p")
    assert ft.parse_formula("(" * 1000 + "~" * MAX_DEPTH + "(p)" + ")" * 1000) is not None
    with pytest.raises(FormatError, match=f"^formula is more than {MAX_DEPTH} connectives deep$"):
        ft.parse_formula("(" * 1000 + "~" * (MAX_DEPTH + 1) + "(p)" + ")" * 1000)
    with pytest.raises(FormatError, match="^syntax error at end of input: wanted '\\)'$"):
        ft.parse_formula("(" * 100_000 + "p" + ")" * 99_999)


def test_the_parser_collects_the_variables_it_reads():
    atoms = {}
    f = ft.parse_formula("a | ~b -> top", atoms)
    g = ft.parse_formula("b & c", atoms)
    assert sorted(atoms) == ["a", "b", "c"] and g.left is atoms["b"] is f.left.right.arg
    theory = ft.formats.load_theory("x2 | x1\n~x1 & bot\n")
    assert theory.vars == ("x1", "x2")


@pytest.mark.parametrize(
    "build, cap, message",
    [
        (lambda k: "~" * k + "p", MAX_DEPTH, "deep"),
        # parentheses add no depth; the connectives they hold do
        (lambda k: "(p & " * k + "p" + ")" * k, MAX_DEPTH, "deep"),
        (lambda k: " & ".join(["p"] * (k + 1)), MAX_DEPTH, "deep"),
        # depth is counted as written: each '|' and '->' is one level
        (lambda k: " | ".join(["p"] * (k + 1)), MAX_DEPTH, "deep"),
        (lambda k: "p -> " * k + "p", MAX_DEPTH, "deep"),
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
    """The witness prints the refuted formula up to MAX_CONNECTIVES connectives, and past that counts them."""
    rng = random.Random(31)
    for _ in range(300):
        f = ft.parse_formula(random_text(rng, 5))
        if size_by_fold(f) <= 5000:
            theory, number, printed = refuted(f)
            # '<->' holds one '->'
            size = printed.count("~") + printed.count("&") + printed.count("|") + printed.count("->")
            monkeypatch.setattr(logic, "MAX_CONNECTIVES", size)
            assert refutation(theory) == (0, {"formula": printed})
            monkeypatch.setattr(logic, "MAX_CONNECTIVES", size - 1)
            assert refutation(theory) == (0, {"formula_number": number, "connectives": size})


def test_witness_of_a_biconditional_chain_is_linear():
    """A parsed chain of k links prints its k '<->'. Rewritten over '~' and '&', each link holds both sides
    twice, and k links print 11 * (2^k - 1) connectives: a witness prints 12 links and counts 13 or 30.
    """
    f = ft.parse_formula(" <-> ".join(["p"] * (MAX_DEPTH + 1)))
    assert refutation(ft.Theory.of([f, Not(f)]))[1] == {"formula": "~(" + " <-> ".join(["p"] * (MAX_DEPTH + 1)) + ")"}
    cap = (MAX_CONNECTIVES // 11 + 1).bit_length() - 1
    assert cap == 12
    for k in (cap - 1, cap, cap + 1, 30):
        f = Var("p")
        for _ in range(k):
            f = biconditional(f, Var("p"))
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
        assert alg.class_of(Or(a, b)) == ca | cb
        assert alg.class_of(Imp(a, b)) == (alg.top ^ ca) | cb
        assert alg.class_of(Iff(a, b)) == alg.top ^ ca ^ cb
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
        assert alg.class_of(Or(a, Not(a))) == alg.top
        assert alg.class_of(And(a, Not(a))) == 0
        # de Morgan, and each connective against its rewriting over '~' and '&'
        assert alg.class_of(Not(And(a, b))) == alg.class_of(Or(Not(a), Not(b)))
        assert alg.class_of(And(a, Or(b, c))) == alg.class_of(Or(And(a, b), And(a, c)))
        assert alg.class_of(Or(a, b)) == alg.class_of(disjunction(a, b))
        assert alg.class_of(Imp(a, b)) == alg.class_of(implication(a, b))
        assert alg.class_of(Iff(a, b)) == alg.class_of(biconditional(a, b))
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
        # as written, or rewritten over '~' and '&', where each '<->' holds both sides twice
        written = rng.random() < 0.5
        f = {"and": And, "or": Or if written else disjunction, "imp": Imp if written else implication,
             "iff": Iff if written else biconditional}[op](a, b)
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
    for f in (Not(TOP), Not(BOT), Not(Not(TOP)), Not(Not(BOT)), And(Not(TOP), a), Or(Not(Not(BOT)), b),
              Imp(Not(TOP), Not(b)), Not(Iff(TOP, Not(c)))):
        assert_table_agrees(theory, f)
    for text in ("~top", "~~bot", "~(a <-> b)", "~~(a <-> ~a)", "a <-> ~b <-> c <-> ~(a <-> b)",
                 "~(~(a <-> b) <-> ~(b <-> ~~c))", "~(a <-> (b <-> (c <-> ~a)))"):
        assert_table_agrees(theory, ft.parse_formula(text))
    assert theory.table_of(ft.parse_formula("~~(a <-> ~a)")) == 0
    assert theory.table_of(ft.parse_formula("~(a <-> ~a)")) == (1 << 8) - 1
    # one formula built twice: parsed as a tree, and from the constructors with its operands shared
    x = Or(a, Not(b))
    shared = Iff(x, And(Not(x), Imp(c, Not(x))))
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
    i, j = Var("q"), Var("q")
    for _ in range(100_000):
        i, j = Imp(Var("p"), i), Iff(j, Var("p"))
    assert theory.table_of(i) == (p ^ 0b1111) | q
    assert theory.table_of(j) == q  # an even number of '<-> p'


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

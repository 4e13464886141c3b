"""Propositional formulas, theories, and the algebra of classes mod a theory.

Formulas are kept over negation and conjunction only; the other
connectives are desugared at construction time. With at most 16 variables
every semantic question is settled by the full truth table, held like a
subset as a 2^k-bit int (bit m is the value at the m-th valuation). The
Lindenbaum algebra of a theory T is T's model truth table: the class of a
formula is its table ANDed with it, so class identity is bitmask equality
and the algebra's ultrafilters are the single-model atoms, one per set bit.
"""

import re

from .errors import FormatError, ValidationError
from .records import cached, record

MAX_VARS = 16
# Caps on parsed formulas that keep every recursive walk well inside
# Python's default recursion limit of 1000 frames: the parser takes up to
# five frames per open '~', '(' or '->', and `==`, `repr` and `str` take one
# to four per level of the formula tree. `a <-> b` holds a and b twice, so
# `str` of a chain of k links has 2^k copies of its first operand.
MAX_NESTING = 64
MAX_DEPTH = 150
MAX_CONNECTIVES = 1 << 16  # '~' and '&' in the printed form of a formula a witness prints


class PropFormula:
    __slots__ = ()


@record
class Var(PropFormula):
    __slots__ = ("name",)
    name: str

    def __str__(self):
        return self.name


@record
class Const(PropFormula):
    __slots__ = ("value",)
    value: bool

    def __str__(self):
        return "top" if self.value else "bot"


@record
class Not(PropFormula):
    __slots__ = ("arg",)
    arg: PropFormula

    def __str__(self):
        return f"~{self.arg}" if isinstance(self.arg, (Var, Const, Not)) else f"~({self.arg})"


@record
class And(PropFormula):
    __slots__ = ("left", "right")
    left: PropFormula
    right: PropFormula

    def __str__(self):
        def wrap(f):
            return str(f) if isinstance(f, (Var, Const, Not)) else f"({f})"

        return f"{wrap(self.left)} & {wrap(self.right)}"


TOP = Const(True)
BOT = Const(False)


def disjunction(a, b):
    return Not(And(Not(a), Not(b)))


def implication(a, b):
    return disjunction(Not(a), b)


def biconditional(a, b):
    return And(implication(a, b), implication(b, a))


def _fold(formula, var, top, bot, neg, conj):
    """Fold a formula bottom-up without recursion (`refutation` counts a witness's connectives with it).

    A variable gives `var(name)`, top gives `top` and bot `bot`; `~` gives
    `neg(a)` and `&` gives `conj(a, b)` of its arguments' values. Each
    distinct node (by identity) is computed once, so subtrees the formula
    shares cost nothing extra.
    """
    memo = {}
    get = memo.get
    stack = [formula]
    while stack:
        f = stack.pop()
        if id(f) in memo:
            continue
        kind = type(f)  # the four node classes, most frequent first
        if kind is Not:
            a = get(id(f.arg))
            if a is None:
                stack += (f, f.arg)
            else:
                memo[id(f)] = neg(a)
        elif kind is And:
            a, b = get(id(f.left)), get(id(f.right))
            if a is None or b is None:
                stack += (f, f.left, f.right)
            else:
                memo[id(f)] = conj(a, b)
        elif kind is Var:
            memo[id(f)] = var(f.name)
        elif kind is Const:
            memo[id(f)] = top if f.value else bot
        else:
            raise FormatError(f"not a formula: {f!r}")
    return memo[id(formula)]


def variables_of(formula) -> set:
    """The formula's variable names, from one walk that enters each distinct `&` node once."""
    names, seen, stack = set(), set(), [formula]
    while stack:
        f = stack.pop()
        while type(f) is Not:
            f = f.arg
        if type(f) is Var:
            names.add(f.name)
        elif type(f) is And and id(f) not in seen:
            seen.add(id(f))
            stack += (f.left, f.right)
        elif type(f) not in (And, Const):
            raise FormatError(f"not a formula: {f!r}")
    return names


# -- parser -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(<->|->|[()&|~]|[a-z][a-z0-9_]*)|\S)")  # '' for a character no token starts
_CONSTANTS = {"top": TOP, "bot": BOT}
_NOT_OPERANDS = frozenset((None, ")", "&", "|", "->", "<->"))


class _Parser:
    """Recursive descent, one method per level; precedence ~ > & > | > -> (right) > <->.

    A level takes the count n of '~', '(' and '->' open around it and returns a subformula
    with the number of its desugared form's connectives on the longest path (its depth).
    """

    def __init__(self, text):
        self.text, self.pos = text, 0
        self.tokens = _TOKEN.findall(text)
        if "" in self.tokens:
            pos = next(m.start() for m in _TOKEN.finditer(text) if m.group(1) is None)
            raise FormatError(f"syntax error at position {pos}: {text[pos:].strip()[:10]!r}")
        self.tokens.append(None)  # end of input

    def fail(self, expected):
        if self.tokens[self.pos] is None:
            raise FormatError(f"syntax error at end of input: wanted {expected}")
        m = list(_TOKEN.finditer(self.text))[self.pos]
        raise FormatError(f"syntax error at position {m.start(1)}: unexpected {m[1]!r}, wanted {expected}")

    def parse(self):
        f, depth = self.iff(0)
        if self.tokens[self.pos] is not None:
            self.fail("end of input")
        if depth > MAX_DEPTH:
            raise FormatError(f"formula is more than {MAX_DEPTH} connectives deep")
        return f

    def iff(self, n):
        f, d = self.imp(n)
        while self.tokens[self.pos] == "<->":
            self.pos += 1
            g, e = self.imp(n)
            f, d = biconditional(f, g), max(d, e) + 5
        return f, d

    def imp(self, n):
        f, d = self.disj(n)
        if self.tokens[self.pos] != "->":
            return f, d
        self.pos += 1
        g, e = self.imp(n + 1)  # '->' groups to the right
        return implication(f, g), max(d + 1, e) + 3

    def disj(self, n):
        f, d = self.conj(n)
        while self.tokens[self.pos] == "|":
            self.pos += 1
            g, e = self.conj(n)
            f, d = disjunction(f, g), max(d, e) + 3
        return f, d

    def conj(self, n):
        f, d = self.atom(n)
        while self.tokens[self.pos] == "&":
            self.pos += 1
            g, e = self.atom(n)
            f, d = And(f, g), max(d, e) + 1
        return f, d

    def atom(self, n):
        if n > MAX_NESTING:  # each '~', '(' and '->' leads here before the next token
            raise FormatError(f"formula nests '~', '(' and '->' more than {MAX_NESTING} deep")
        tok = self.tokens[self.pos]
        if tok in _NOT_OPERANDS:
            self.fail("a variable, constant, '~' or '('")
        self.pos += 1
        if tok == "~":
            f, d = self.atom(n + 1)
            return Not(f), d + 1
        if tok == "(":
            f = self.iff(n + 1)
            if self.tokens[self.pos] != ")":
                self.fail("')'")
            self.pos += 1
            return f
        return _CONSTANTS.get(tok) or Var(tok), 0


def parse_formula(text: str) -> PropFormula:
    return _Parser(text).parse()


# -- theories and their algebras ---------------------------------------------


@record
class Theory:
    formulas: tuple
    vars: tuple  # the universe; None takes the formulas' variables, sorted

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        used = [variables_of(f) for f in self.formulas]  # one walk per formula serves both uses
        names = sorted(set().union(*used)) if self.vars is None else self.vars
        object.__setattr__(self, "vars", tuple(names))
        if len(self.vars) > MAX_VARS:
            witness = {"x": self.vars[MAX_VARS]}  # the first variable past the cap
            raise ValidationError(f"at most {MAX_VARS} variables are supported", witness)
        if len(set(self.vars)) != len(self.vars):
            raise FormatError("duplicate variable in universe")
        universe = set(self.vars)
        for u in used:
            extra = u - universe
            if extra:
                raise FormatError(f"formula uses undeclared variable {sorted(extra)[0]!r}")

    @classmethod
    def of(cls, formulas, vars=None):
        return cls(formulas, vars)

    def _valuation(self, m):
        """The m-th valuation: variable i is true iff bit k-1-i of m is set."""
        k = len(self.vars)
        return frozenset(self.vars[i] for i in range(k) if m >> (k - 1 - i) & 1)

    def valuations(self):
        """Valuations in lexicographic order with bot < top on each variable."""
        yield from map(self._valuation, range(1 << len(self.vars)))

    @cached
    def _columns(self):
        """Each variable's truth table, then its complement: variable i repeats 2^(k-1-i) zeros then as many ones."""
        n = 1 << len(self.vars)
        full, columns, complements = (1 << n) - 1, {}, {}
        for i, name in enumerate(self.vars):
            h = n >> (i + 1)
            c, width = ((1 << h) - 1) << h, 2 * h
            while width < n:  # copy the block up to 2^k bits by doubling: linear, where a division is not
                c |= c << width
                width *= 2
            columns[name], complements[name] = c, c ^ full
        return columns, complements

    def table_of(self, formula) -> int:
        """The formula's truth table: bit m is its value at the m-th valuation.

        One pass without recursion carries each node's polarity (odd under
        `~` or not): a run of `~` flips it, a variable reads its column or
        its complement, and `&` under an odd number of `~` is `|`. Each
        distinct `&` node is folded once per polarity it is reached in,
        right operand first. A variable outside the theory's universe is a
        format error.
        """
        columns = self._columns
        memo, values = {}, []
        push = values.append
        stack = [(formula, 0)]  # a node and its polarity, or an `&` node's memo key and None
        pop = stack.pop
        while stack:
            f, odd = pop()
            while type(f) is Not:
                f = f.arg
                odd ^= 1
            kind = type(f)
            if kind is And:
                key = id(f) << 1 | odd
                if key in memo:
                    push(memo[key])
                else:
                    stack += ((key, None), (f.left, odd), (f.right, odd))
            elif kind is Var:
                try:
                    push(columns[odd][f.name])
                except KeyError:
                    raise FormatError(f"formula uses undeclared variable {f.name!r}") from None
            elif odd is None:  # both operands of the `&` node keyed f are folded
                a, b = values.pop(), values.pop()
                memo[f] = a = a | b if f & 1 else a & b
                push(a)
            elif kind is Const:
                push((1 << (1 << len(self.vars))) - 1 if bool(f.value) ^ odd else 0)
            else:
                raise FormatError(f"not a formula: {f!r}")
        return values[0]

    def _conjunction(self):
        """The running AND of the formulas' tables, and the number (from 1) of the formula taking it to 0, or 0."""
        table = (1 << (1 << len(self.vars))) - 1
        for i, f in enumerate(self.formulas, 1):  # one fold per formula keeps few 2^k-bit tables alive
            table &= self.table_of(f)
            if not table:
                return 0, i
        return table, 0

    def truth_table(self):
        """The table of the conjunction of the formulas: bit m is set iff valuation m is a model."""
        return self._conjunction()[0]

    def models(self):
        """The satisfying valuations, in the order of `valuations`."""
        table = bin(self.truth_table())[:1:-1]
        return [self._valuation(m) for m, bit in enumerate(table) if bit == "1"]


def refutation(theory: Theory):
    """The theory's model table and, if it is 0, the witness naming the formula that makes it 0 (else None).

    The formula is printed up to MAX_CONNECTIVES '~' and '&', which one fold
    counts; past that the witness is its number in the theory, from 1, and the count.
    """
    table, number = theory._conjunction()
    if table:
        return table, None
    f = theory.formulas[number - 1]
    size = _fold(f, lambda name: 0, 0, 0, lambda a: a + 1, lambda a, b: a + b + 1)
    if size > MAX_CONNECTIVES:
        return 0, {"formula_number": number, "connectives": size}
    return 0, {"formula": str(f)}


@record
class LindenbaumAlgebra:
    """Boolean algebra of formula classes, as submasks of the model truth table.

    Bit m of `top` is set iff the m-th valuation is a model, and the class
    of a formula is its truth table restricted to those bits. So the
    operations are mask expressions: bottom is 0, the meet of a and b is
    `a & b`, their join `a | b`, the complement of a is `top ^ a`, and the
    elements are the submasks of top, `bitsets.subsets(top)`.
    """

    theory: Theory
    top: int

    @property
    def model_count(self):
        return self.top.bit_count()

    @property
    def size(self):
        return 1 << self.model_count

    def class_of(self, formula) -> int:
        return self.theory.table_of(formula) & self.top


def lindenbaum_algebra(theory: Theory) -> LindenbaumAlgebra:
    top, witness = refutation(theory)
    if witness:
        raise ValidationError("inconsistent theory: the algebra degenerates to top = bot", witness)
    return LindenbaumAlgebra(theory, top)


@record
class UltrafilterModel:
    valuation: frozenset  # set of true variables
    atom: int  # kernel of the chosen ultrafilter: an element e is in it iff e & atom
    algebra: LindenbaumAlgebra


def model_from_ultrafilter(theory: Theory) -> UltrafilterModel:
    """Model read off a principal ultrafilter of the theory's algebra.

    The atoms of the finite algebra are the single-model bits, so an
    ultrafilter amounts to choosing one model; the tie-break is the lowest
    set bit, the lexicographically first satisfying valuation (bot before
    top). Truth in the model agrees with membership of the class in the
    ultrafilter.
    """
    algebra = lindenbaum_algebra(theory)
    atom = algebra.top & -algebra.top
    return UltrafilterModel(theory._valuation(atom.bit_length() - 1), atom, algebra)


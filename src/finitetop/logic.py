"""Propositional formulas, theories, and the algebra of classes mod a theory.

Formulas are kept as written: a variable, a constant, or a node for one of
the connectives `~ & | -> <->`. With at most 16 variables every semantic
question is settled by the full truth table, held like a subset as a
2^k-bit int (bit m is the value at the m-th valuation). The Lindenbaum
algebra of a theory T is T's model truth table: the class of a formula is
its table ANDed with it, so class identity is bitmask equality and the
algebra's ultrafilters are the single-model atoms, one per set bit.
"""

import re
from operator import and_, or_, xor

from .errors import FormatError, ValidationError
from .records import cached, record

MAX_VARS = 16
# A parsed formula is at most MAX_DEPTH connectives deep, which keeps `==`, `repr` and `str`, one to four
# frames per level of the tree, well inside Python's default recursion limit; the parser does not recurse.
MAX_DEPTH = 150
MAX_CONNECTIVES = 1 << 16  # connectives in the printed form of a formula a witness prints


class PropFormula:
    __slots__ = ()
    rank = 6  # how tightly the printed form binds: an atom 6, '~' 5, '&' 4, '|' 3, '->' 2, '<->' 1


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
    rank = 5

    def __str__(self):
        return f"~{self.arg}" if self.arg.rank >= 5 else f"~({self.arg})"


class _Binary(PropFormula):
    __slots__ = ("left", "right")
    left: PropFormula
    right: PropFormula

    def __str__(self):
        """Operands in parentheses only where the grammar needs them ('->' groups to the right)."""
        r, to_right = self.rank, self.rank == 2
        left = f"({self.left})" if self.left.rank < r + to_right else str(self.left)
        right = f"({self.right})" if self.right.rank < r + (not to_right) else str(self.right)
        return f"{left} {self.symbol} {right}"


@record
class And(_Binary):
    __slots__, rank, symbol = (), 4, "&"


@record
class Or(_Binary):
    __slots__, rank, symbol = (), 3, "|"


@record
class Imp(_Binary):
    __slots__, rank, symbol = (), 2, "->"


@record
class Iff(_Binary):
    __slots__, rank, symbol = (), 1, "<->"


TOP, BOT = Const(True), Const(False)


def _fold(formula, var, top, bot, neg, conj, disj, imp, iff):
    """Fold a formula bottom-up without recursion (`Theory.of` and `refutation` use it).

    A variable gives `var(name)`, top gives `top` and bot `bot`; `~` gives
    `neg(a)`, and `&`, `|`, `->` and `<->` give `conj`, `disj`, `imp` and
    `iff` of their operands' values. Each distinct node (by identity) is
    computed once, so subtrees the formula shares cost nothing extra.
    """
    binary, memo, stack = {And: conj, Or: disj, Imp: imp, Iff: iff}, {}, [formula]
    get = memo.get
    while stack:
        f = stack.pop()
        if id(f) in memo:
            continue
        kind = type(f)
        if kind is Not:
            a = get(id(f.arg))
            if a is None:
                stack += (f, f.arg)
            else:
                memo[id(f)] = neg(a)
        elif kind in binary:
            a, b = get(id(f.left)), get(id(f.right))
            if a is None or b is None:
                stack += (f, f.left, f.right)
            else:
                memo[id(f)] = binary[kind](a, b)
        elif kind is Var:
            memo[id(f)] = var(f.name)
        elif kind is Const:
            memo[id(f)] = top if f.value else bot
        else:
            raise FormatError(f"not a formula: {f!r}")
    return memo[id(formula)]


# -- parser -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(<->|->|[()&|~]|[a-z][a-z0-9_]*)|\S)")  # '' for a character no token starts
_CONSTANTS = {"top": TOP, "bot": BOT}
_NOT_OPERANDS = frozenset((None, ")", "&", "|", "->", "<->"))
# each connective's rank, node class, and the least rank of a connective waiting before it that it closes
_BINARY = {"<->": (1, Iff, 1), "->": (2, Imp, 3), "|": (3, Or, 3), "&": (4, And, 4)}


def _syntax_error(text, tokens, i, expected):
    if tokens[i] is None:
        return FormatError(f"syntax error at end of input: wanted {expected}")
    m = list(_TOKEN.finditer(text))[i]
    return FormatError(f"syntax error at position {m.start(1)}: unexpected {m[1]!r}, wanted {expected}")


def _parse(text, atoms):
    """The formula `text` writes and its depth, from one operator-precedence pass over its tokens.

    Precedence ~ > & > | > -> (right) > <->. `pending` holds, innermost
    last, each '(' still open as the number of '~' before it, and each
    connective waiting for its right operand as (rank, node class, left
    operand, its depth); a connective closes the waiting ones that bind at
    least as tightly ('->' only tighter ones). `atoms` maps each variable
    name read to its node, which every later use shares.
    """
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        pos = next(m.end() - 1 for m in _TOKEN.finditer(text) if m.group(1) is None)
        raise FormatError(f"syntax error at position {pos}: {text[pos:].strip()[:10]!r}")
    tokens.append(None)  # end of input
    pending, i = [], 0
    push, pop, get = pending.append, pending.pop, atoms.get
    while True:
        nots = 0  # an operand: '~' and '(', then a variable or constant
        while True:
            tok = tokens[i]
            i += 1
            f = get(tok)
            if f is not None:
                break
            if tok == "~":
                nots += 1
            elif tok == "(":
                push(nots)
                nots = 0
            elif tok in _NOT_OPERANDS:
                raise _syntax_error(text, tokens, i - 1, "a variable, constant, '~' or '('")
            else:
                f = _CONSTANTS.get(tok) or atoms.setdefault(tok, Var(tok))
                break
        d = nots
        while True:  # what follows a complete operand, under `nots` '~'
            while nots:
                f, nots = Not(f), nots - 1
            tok = tokens[i]
            i += 1
            binary = _BINARY.get(tok)
            least = binary[2] if binary else 0  # any other token closes every connective back to the last '('
            while pending and type(pending[-1]) is tuple and pending[-1][0] >= least:
                _, kind, left, e = pop()
                f, d = kind(left, f), (e if e > d else d) + 1
            if binary:
                push((binary[0], binary[1], f, d))
                break
            if not pending:
                if tok is not None:
                    raise _syntax_error(text, tokens, i - 1, "end of input")
                return f, d
            if tok != ")":
                raise _syntax_error(text, tokens, i - 1, "')'")
            nots = pop()
            d += nots


def parse_formula(text: str, atoms: dict = None) -> PropFormula:
    """The formula `text` writes, kept as written; a syntax error or a depth past MAX_DEPTH is a FormatError.

    Calls given one `atoms` dict share their variable nodes, and its keys
    are the variables they read.
    """
    f, depth = _parse(text, {} if atoms is None else atoms)
    if depth > MAX_DEPTH:
        raise FormatError(f"formula is more than {MAX_DEPTH} connectives deep")
    return f


# -- theories and their algebras ---------------------------------------------

# a connective's table in each polarity, even then odd: the operation on its operands' tables and their polarities
_POLARITY = {
    And: ((and_, 0, 0), (or_, 1, 1)),  # ~(a & b) is ~a | ~b
    Or: ((or_, 0, 0), (and_, 1, 1)),  # ~(a | b) is ~a & ~b
    Imp: ((or_, 1, 0), (and_, 0, 1)),  # a -> b is ~a | b, and ~(a -> b) is a & ~b
    Iff: ((xor, 1, 0), (xor, 0, 0)),  # a <-> b is ~a ^ b, and ~(a <-> b) is a ^ b
}


@record
class Theory:
    formulas: tuple
    vars: tuple  # the universe, which holds every variable of the formulas

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(self.vars) > MAX_VARS:
            witness = {"x": self.vars[MAX_VARS]}  # the first variable past the cap
            raise ValidationError(f"at most {MAX_VARS} variables are supported", witness)
        if len(set(self.vars)) != len(self.vars):
            raise FormatError("duplicate variable in universe")

    @classmethod
    def of(cls, formulas, vars=None):
        """The theory over `vars`, or if None over the formulas' variables sorted, which one fold per formula finds.

        `vars` must hold them; `formats.load_theory` has them from the parser and calls `Theory` itself.
        """
        formulas, empty = tuple(formulas), frozenset()
        used = [_fold(f, lambda name: frozenset((name,)), empty, empty, lambda a: a, or_, or_, or_, or_)
                for f in formulas]
        theory = cls(formulas, sorted(empty.union(*used)) if vars is None else vars)
        for u in used:
            extra = u.difference(theory.vars)
            if extra:
                raise FormatError(f"formula uses undeclared variable {sorted(extra)[0]!r}")
        return theory

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
        its complement, and a connective folds its operands' tables by its
        `_POLARITY` rule. Each distinct connective node is folded once per
        polarity it is reached in, right operand first. A variable outside
        the theory's universe is a format error.
        """
        columns = self._columns
        memo, values = {}, []
        push = values.append
        stack = [(formula, 0)]  # a node and its polarity, or a connective's memo key and its operation
        pop = stack.pop
        while stack:
            f, odd = pop()
            while type(f) is Not:
                f = f.arg
                odd ^= 1
            kind = type(f)
            if kind is Var:
                try:
                    push(columns[odd][f.name])
                except KeyError:
                    raise FormatError(f"formula uses undeclared variable {f.name!r}") from None
            elif type(odd) is not int:  # both operands of the connective keyed f are folded: odd is its operation
                memo[f] = a = odd(values.pop(), values.pop())
                push(a)
            elif kind in _POLARITY:
                key = id(f) << 1 | odd
                if key in memo:
                    push(memo[key])
                else:
                    op, left, right = _POLARITY[kind][odd]
                    stack += ((key, op), (f.left, left), (f.right, right))
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

    The formula is printed up to MAX_CONNECTIVES connectives, which one fold
    counts; past that the witness is its number in the theory, from 1, and the count.
    """
    table, number = theory._conjunction()
    if table:
        return table, None
    f = theory.formulas[number - 1]
    size = _fold(f, lambda name: 0, 0, 0, lambda a: a + 1, *[lambda a, b: a + b + 1] * 4)
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


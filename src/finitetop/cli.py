"""Batch command line front end.

Exit codes: 0 success, 1 validation or mathematical failure (message
carries the witness), 2 usage or format error. Reports are plain aligned
text; `--json` switches to a machine-readable variant with the same
content. Output is deterministic: point order comes from the input file.
"""

import argparse
import functools
import math
import re
import sys
from itertools import compress, repeat

from . import approx, construct, formats, locales, pmetric, spaces
from .bitsets import bits, subsets
from .errors import FormatError, ValidationError
from .logic import lindenbaum_algebra, model_from_ultrafilter, refutation

CLOSURE_TABLE_LIMIT = 6  # carriers above this get their subset table elided
SQRT_N_LIMIT = 1 << 16  # `approx sqrt --n`: the iteration costs O(n * grid points)
KERNEL_N_LIMIT = 1 << 53  # `approx weierstrass` and `kernel-ratio --n`: past it a float no longer holds n
MAX_ITER_LIMIT = 1 << 16  # `solve --max-iter`: each iteration is a pass over the vector or matrix


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"cannot read {path}: not UTF-8 text (byte {e.start})") from None


def _numbers_arg(text, what):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise FormatError(f"{what} must be comma-separated numbers") from None
    if not all(map(math.isfinite, values)):
        raise FormatError(f"{what} must be finite numbers")
    return values


def _checked(kind, *rules):
    """argparse type: the text converted by `kind`, then checked by each `(ok, message)` rule in order.

    A failed conversion reports `invalid <kind> value: '<text>'`, a failed rule its message with
    `{value}` and `{text}` filled in; nan fails every rule, since every comparison with it is false.
    """

    def check(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        for ok, message in rules:
            if not ok(value):
                raise argparse.ArgumentTypeError(message.format(value=value, text=text))
        return value

    return check


def _count(low, high=math.inf, *rules):
    """argparse type: an int from `low` to `high` that meets `rules`; any other value is a usage error."""
    at_least, at_most = f"must be at least {low}, got {{value}}", f"must be at most {high}, got {{value}}"
    return _checked(int, (lambda v: v >= low, at_least), (lambda v: v <= high, at_most), *rules)


def _real(ok, what):
    """argparse type: a float for which `ok` holds; any other value, nan included, is a usage error."""
    return _checked(float, (ok, f"must be {what}, got {{text}}"))


_nonempty = _checked(str, (str.split, "must name at least one point"))  # a label list naming a point
_tolerance = _real(lambda v: 0.0 < v < math.inf, "a finite positive number")
_positive = _real(lambda v: v > 0.0, "a positive number")


def _radius(text):
    """argparse type: a positive number, as the number its text writes (`0.1` is 1/10), or inf."""
    return formats._exact_row(text, [text], {})[0] if _positive(text) < math.inf else math.inf


def _emit(out, text):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _set_strs(space, masks):
    """The masks of a space as `{a b}`, from two per-byte tables of label text built once for the call."""
    lo, hi = spaces._tables_by_byte([" " + p for p in space.points])
    return ["{" + (lo[m & 255] + hi[m >> 8])[1:] + "}" for m in masks]  # less the first label's space


class _Report:
    """Collects rows so the same data can print as text or JSON."""

    def __init__(self, as_json):
        self.as_json = as_json
        self.data = {}
        self.lines = []

    def add(self, key, value, line=None):
        """`value` for `--json`, `line` (by default `key: value`) for text; a value
        only `--json` prints comes as `rep.as_json and value`, unbuilt for text."""
        self.data[key] = value
        self.lines.append(line if line is not None else f"{key}: {value}")

    def label_lists(self, space, masks):
        """For `--json`, the masks, printed as lists of the space's labels; False for text."""
        if not self.as_json:
            return False
        from .jsonout import LabelLists

        return LabelLists(space.points, masks)

    def table(self, key, headers, rows):
        """Rows under headers: a list of row dicts for `--json`, else padded columns."""
        if self.as_json:
            self.data[key] = [dict(zip(headers, r)) for r in rows]
            return
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        self.lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip())
        for r in rows:
            self.lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())

    def print(self, out):
        if self.as_json:
            from .jsonout import dumps  # only `--json` output needs it, so a text call never compiles it

            _emit(out, dumps(self.data))
        else:
            out.write("\n".join(self.lines) + "\n")


# -- space ------------------------------------------------------------------


def cmd_space(args, out):
    space = formats.load_space(_read(args.infile))
    if args.emit:
        _emit(out, formats.dump_space(space))
        return 0
    rep = _Report(args.json)
    rep.add("points", list(space.points), "points: " + " ".join(space.points))
    opens = space.opens_by_size
    strs = _set_strs(space, opens)  # each open rendered once; the rows below filter this list
    rep.add("opens", rep.label_lists(space, opens), "opens: " + " ".join(strs))
    if space.n <= CLOSURE_TABLE_LIMIT:
        masks = []
        for m in sorted(subsets(space.full), key=lambda m: (m.bit_count(), m))[1:]:  # the empty set sorts first
            r = spaces.closure_interior(space, m)
            masks += (m, r["closure"], r["interior"], r["boundary"])
        cells = iter(_set_strs(space, masks))
        rows = list(zip(cells, cells, cells, cells))  # four cells a row
        rep.lines.append("")
        rep.table("subsets", ("set", "closure", "interior", "boundary"), rows)
    else:
        rep.add("subsets", None, f"(subset table elided for more than {CLOSURE_TABLE_LIMIT} points)")
    prof = spaces.separation_profile(space)
    rep.lines.append("")
    for name in ("t0", "t1", "t2", "t3", "t4", "regular", "normal"):
        rep.add(name, getattr(prof, name))
    pairs = [(space.points[i], space.points[j]) for i in range(space.n) for j in bits(space.rel[i]) if i != j]
    rep.lines.append("")
    rep.add(
        "specialization",
        rep.as_json and [list(p) for p in pairs],
        "specialization: " + (" ".join(f"{a}<={b}" for a, b in pairs) or "(discrete order)"),
    )
    rep.add("specialization_is_poset", space.is_poset)
    rep.lines.append("")
    # a point's neighbourhood base: the opens holding its bit
    nbrows = [(p, " ".join(compress(strs, map((1 << i).__and__, opens)))) for i, p in enumerate(space.points)]
    rep.table("neighborhood_bases", ("point", "open neighborhoods"), nbrows)
    rep.print(out)
    return 0


# -- check ------------------------------------------------------------------


def cmd_check(args, out):
    if args.what == "base" or args.what == "subbase":
        fam = formats.load_family(_read(args.infile))
        space = spaces.generate_topology(fam, mode=args.what)
        _emit(out, formats.dump_space(space))
    elif args.what == "closure-op":
        table = formats.load_closure_table(_read(args.infile))
        table.validate()
        _emit(out, "closure operator: ok")
    elif args.what == "pmetric":
        sp = _load_pmetric(args)
        _emit(out, f"pseudometric: ok, metric: {sp.is_metric}")
    elif args.what == "chain":
        chain = formats.load_chain(_read(args.infile))
        _emit(out, f"chain: ok, depth {chain.depth} on {chain.n} points")
    return 0


# -- map --------------------------------------------------------------------


def cmd_map(args, out):
    src = formats.load_space(_read(args.src))
    dst = formats.load_space(_read(args.dst))
    pm = construct.PointMap.from_dict(src, dst, formats.load_map(_read(args.mapfile)))
    # a "no" verdict prints on stdout, then exits 1 with its witness on stderr
    if args.what == "continuity":
        check = construct.is_continuous(pm)
        if check.ok:
            _emit(out, "continuous: yes")
            return 0
        witness = pm.target.set_str(check.witness_open)
        _emit(out, f"continuous: no, witness open {witness}")
        raise ValidationError("map is not continuous", {"open": witness})
    fault = construct.homeomorphism_fault(pm)
    _emit(out, "homeomorphism: no" if fault else "homeomorphism: yes")
    if fault:
        raise fault
    return 0


# -- build ------------------------------------------------------------------


def cmd_build(args, out):
    what = args.what
    if what == "product":
        a = formats.load_space(_read(args.infile))
        b = formats.load_space(_read(args.second))
        space = construct.product(a, b)
    elif what == "subspace":
        a = formats.load_space(_read(args.infile))
        space = construct.subspace(a, a.mask(args.keep.split()))
    elif what == "sum":
        a = formats.load_space(_read(args.infile))
        b = formats.load_space(_read(args.second))
        space = construct.topological_sum(a, b)
    elif what == "quotient":
        a = formats.load_space(_read(args.infile))
        eq = formats.load_equivalence(_read(args.classes), a)
        space, _ = construct.quotient(a, eq)
    elif what == "onepoint":
        a = formats.load_space(_read(args.infile))
        space = construct.one_point_extension(a, args.label)
    elif what == "from-poset":
        order = formats.load_poset(_read(args.infile))
        space = spaces.topology_from_poset(order)
    elif what == "from-closure":
        table = formats.load_closure_table(_read(args.infile))
        space = spaces.topology_from_closure(table)
    else:  # scott
        order = formats.load_poset(_read(args.infile))
        space = locales.scott_topology(order)
    _emit(out, formats.dump_space(space))
    return 0


# -- locale -----------------------------------------------------------------


def cmd_locale(args, out):
    space = formats.load_space(_read(args.infile))
    rep = _Report(args.json)
    if args.what == "implication":
        a = space.mask(args.seta.split())
        b = space.mask(args.setb.split())
        c = locales.heyting_implication(space, a, b)
        rep.add("implication", rep.as_json and list(space.labels(c)), f"implication: {space.set_str(c)}")
        neg = locales.heyting_implication(space, a, 0)
        rep.add("negation_of_first", rep.as_json and list(space.labels(neg)),
                f"negation of first: {space.set_str(neg)}")
    elif args.what == "points":
        pts = locales.points_of_locale(space)
        rep.add("count", len(pts))
        # the opens top-valued at the point g are those containing g
        opens = space.opens_by_size
        strs = _set_strs(space, opens)
        rows = [(i, " ".join(compress(strs, map(g.__eq__, map(g.__and__, opens))))) for i, g in enumerate(pts)]
        rep.table("morphisms", ("index", "top-valued opens"), rows)
        phi = locales.phi_map(space)
        rep.add("phi_injective", phi.injective)
        rep.add("phi_surjective", phi.surjective)
    elif args.what == "sober":
        irr, sober = locales.irreducible_closed_sets(space)
        rep.add(
            "irreducible_closed",
            rep.label_lists(space, irr),
            "irreducible closed: " + " ".join(_set_strs(space, irr)),
        )
        rep.add("sober", sober)
    else:  # hofmann-mislove
        hm = locales.hofmann_mislove_report(space)
        rep.add("sober", hm.sober)
        # one proper filter per saturated compact: its generator, which its members intersect to
        rep.add("filter_count", len(hm.saturated_compacts))
        rep.add("saturated_compact_count", len(hm.saturated_compacts))
        rep.add("bijection_holds", hm.bijection_holds)
        rows = [(s, s) for s in _set_strs(space, hm.saturated_compacts)]
        rep.table("correspondence", ("filter generator", "intersection"), rows)
    rep.print(out)
    return 0


# -- metric -----------------------------------------------------------------


def _load_pmetric(args):
    rows = formats.load_distances(_read(args.infile))
    labels = args.labels.split() if args.labels else [str(i + 1) for i in range(len(rows))]
    return pmetric.PMetricSpace(labels, rows)


def _distances(rep, sp):
    rows = [(p, *map(format, map(float, row), repeat(".12g"))) for p, row in zip(sp.points, sp.dist)]
    rep.table("distances", ("",) + sp.points, rows)


def cmd_metric(args, out):
    rep = _Report(args.json)
    if args.what == "hausdorff":
        sp = _load_pmetric(args)
        c = sp.mask(args.seta.split())
        d = sp.mask(args.setb.split())
        v = float(pmetric.hausdorff_distance(sp, c, d))
        rep.add("hausdorff", v, f"hausdorff: {v:.12g}")
    elif args.what == "quotient":
        sp = _load_pmetric(args)
        q, classes = pmetric.metric_quotient(sp)
        rep.add("classes", [list(sp.labels(c)) for c in classes],
                "classes: " + " ".join(map(sp.set_str, classes)))
        _distances(rep, q)
    elif args.what == "net":
        sp = _load_pmetric(args)
        centers = pmetric.epsilon_net(sp, args.eps)
        rep.add("centers", centers, "centers: " + " ".join(centers))
    elif args.what == "chain":
        chain = formats.load_chain(_read(args.infile))
        _distances(rep, pmetric.pseudometric_from_chain(chain))
        # the squeeze holds for every valid chain, so it is not rechecked;
        # the definitional check is a test oracle
        rep.add("squeeze_verified", True)
    else:  # ultrarank
        rs = formats.load_ranks(_read(args.infile))
        a = rs.mask(args.seta.split())
        b = rs.mask(args.setb.split())
        v = pmetric.ultrametric_from_rank(rs, a, b)
        rep.add("distance", v, f"distance: {v:.12g}")
    rep.print(out)
    return 0


# -- solve ------------------------------------------------------------------

_FIXPOINT_FUNCTIONS = {
    "cos": lambda v: [math.cos(x) for x in v],
    "halve": lambda v: [x / 2.0 for x in v],
    "damped-shift": lambda v: [0.5 * x + 1.0 for x in v],
}


def cmd_solve(args, out):
    rep = _Report(args.json)
    if args.what == "fixpoint":
        if args.func not in _FIXPOINT_FUNCTIONS:
            raise FormatError(f"unknown function {args.func!r}; have {sorted(_FIXPOINT_FUNCTIONS)}")
        x0 = _numbers_arg(args.x0, "x0")
        res = pmetric.banach_fixed_point(
            _FIXPOINT_FUNCTIONS[args.func], x0, metric=args.metric, tol=args.tol, max_iter=args.max_iter
        )
        rep.add("x", list(res.x), "x: " + " ".join(f"{v:.12g}" for v in res.x))
        rep.add("iterations", res.iterations)
        rep.add("gamma_estimate", res.gamma_estimate, f"gamma_estimate: {res.gamma_estimate:.6g}")
    else:  # pagerank
        rows = formats.load_matrix(_read(args.infile))
        matrix = pmetric.StochasticMatrix(rows)
        p = pmetric.pagerank(matrix, tol=args.tol, max_iter=args.max_iter)
        rep.add("distribution", [float(v) for v in p], "distribution: " + " ".join(f"{v:.6f}" for v in p))
    rep.print(out)
    return 0


# -- approx -----------------------------------------------------------------


def cmd_approx(args, out):
    rep = _Report(args.json)
    if args.what == "sqrt":
        gf = approx.sqrt_iteration(args.n, _numbers_arg(args.grid, "grid"))
        rep.table(
            "values", ("t", f"f_{args.n}(t)"), [(f"{t:.12g}", f"{v:.12g}") for t, v in zip(gf.grid, gf.values)]
        )
    elif args.what == "weierstrass":
        f = approx.named_function(args.func)
        ev = approx.weierstrass_polynomial(f, args.n)
        rows = []
        for x in _numbers_arg(args.grid, "grid"):
            # finite inputs can still overflow: float `**` raises, sums reach inf or nan
            try:
                p, fx = ev(x), f(x)
            except OverflowError:
                p = fx = math.inf
            except ValueError:  # a domain error: sqrt below 0
                raise ValidationError("f(x) is undefined", {"x": x}) from None
            if not (math.isfinite(p) and math.isfinite(fx)):
                raise ValidationError(f"P_{args.n}(x) or f(x) leaves the float range", {"x": x})
            rows.append((f"{x:.12g}", f"{p:.12g}", f"{fx:.12g}"))
        rep.table("values", ("x", f"P_{args.n}(x)", "f(x)"), rows)
    else:  # kernel-ratio
        r = approx.kernel_ratio(args.n, args.delta)
        rep.add("ratio", r.ratio, f"ratio: {r.ratio:.12g}")
        rep.add("bound", r.bound, f"bound: {r.bound:.12g}")
        rep.add("ratio_below_bound", r.below_bound)
    rep.print(out)
    return 0


# -- logic ------------------------------------------------------------------


def cmd_logic(args, out):
    theory = formats.load_theory(_read(args.infile))
    rep = _Report(args.json)
    if args.what == "consistent":
        witness = refutation(theory)[1]
        rep.add("consistent", witness is None)
        rep.print(out)
        if witness:  # as for `map`: the verdict on stdout, the witness on stderr
            raise ValidationError("inconsistent theory", witness)
        return 0
    if args.what == "model":
        model = model_from_ultrafilter(theory)
        rep.add(
            "valuation",
            {v: (v in model.valuation) for v in theory.vars},
            "valuation: "
            + " ".join(f"{v}={'top' if v in model.valuation else 'bot'}" for v in theory.vars),
        )
    elif args.what == "algebra":
        alg = lindenbaum_algebra(theory)
        rep.add("models", alg.model_count)
        try:
            str(alg.size)
            rep.add("elements", alg.size)
        except ValueError:  # past the interpreter's limit on int-to-str digits
            rep.add("elements", f"2^{alg.model_count}")
    else:  # stone
        alg = lindenbaum_algebra(theory)
        rep.add("ultrafilters", alg.model_count)
        # an element maps to the ultrafilters of the atoms below it, which is
        # itself as a mask of single-model bits: top goes to all, bot to none
        # on every algebra, so neither is recomputed; the image is a test oracle
        rep.add("top_maps_to_all", True)
        rep.add("bot_maps_to_empty", True)
    rep.print(out)
    return 0


# -- parser wiring ------------------------------------------------------------


def _command_table():
    """command: (help, options every subcommand takes first, {subcommand: its own options}).

    A shared option is declared once, as the flags and keywords of its
    `add_argument` call; a subcommand lists its options in help order.
    """

    def opt(*flags, **kw):
        return flags, kw

    infile = opt("--in", dest="infile", required=True)
    as_json = opt("--json", action="store_true")
    report = (infile, as_json)
    second = opt("--with", dest="second", required=True)
    labels = opt("--labels", type=_nonempty, default=None)
    func = opt("--fn", dest="func", required=True)
    grid = opt("--grid", required=True)

    def count(low, high=math.inf):
        return opt("--n", type=_count(low, high), required=True)

    def sets(kind=str):
        return opt("--a", dest="seta", type=kind, required=True), opt("--b", dest="setb", type=kind, required=True)

    def iteration(tol, max_iter):
        return (
            opt("--tol", type=_tolerance, default=tol),
            opt("--max-iter", type=_count(1, MAX_ITER_LIMIT), default=max_iter),
        )

    return {
        "space": ("inspect a space", report, {
            "report": (opt("--emit", action="store_true", help="print the canonical space file instead"),),
        }),
        "check": ("validate an input file", (infile,), {
            "base": (), "subbase": (), "closure-op": (), "pmetric": (labels,), "chain": (),
        }),
        "map": ("test a point map", (
            opt("--src", required=True), opt("--dst", required=True), opt("--map", dest="mapfile", required=True),
        ), {"continuity": (), "homeo": ()}),
        "build": ("construct a new space", (infile,), {
            "product": (second,),
            "subspace": (opt("--keep", type=_nonempty, required=True, help="labels to keep"),),
            "sum": (second,),
            "quotient": (opt("--classes", required=True, help="equivalence file"),),
            "onepoint": (opt("--label", default="inf"),),
            "from-poset": (), "from-closure": (), "scott": (),
        }),
        "locale": ("order-theoretic reports", report, {
            "implication": sets(), "points": (), "sober": (), "hofmann-mislove": (),
        }),
        "metric": ("pseudometric computations", report, {
            "hausdorff": (labels, *sets(_nonempty)),
            "quotient": (labels,),
            "net": (labels, opt("--eps", type=_radius, required=True)),
            "chain": (),
            "ultrarank": sets(),  # a rank distance takes the empty set
        }),
        "solve": ("fixed-point solvers", (), {
            "fixpoint": (
                func, opt("--x0", required=True, help="comma-separated start vector"),
                opt("--metric", default="l2", choices=("l1", "l2", "linf")), *iteration(1e-12, 1000), as_json,
            ),
            "pagerank": (infile, *iteration(1e-9, 200), as_json),
        }),
        "approx": ("constructive approximation", (), {
            "sqrt": (count(0, SQRT_N_LIMIT), grid, as_json),
            "weierstrass": (func, count(1, KERNEL_N_LIMIT), grid, as_json),
            "kernel-ratio": (
                count(1, KERNEL_N_LIMIT), opt("--delta", required=True, type=_real(lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")),
                as_json,
            ),
        }),
        "logic": ("propositional workbench", report, dict.fromkeys(("consistent", "model", "algebra", "stone"), ())),
    }


_COMMANDS = _command_table()
# a value that starts "-", then an optional ".", then a digit is a number, not a flag: Python
# 3.13's rule, under which `-1e-3` and `-1,2` are values too; older argparse reads them as flags.
# So is one that starts "-inf" or "-nan" in any case, as `float` reads them (`-Infinity` too)
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(?:inf|nan)", re.IGNORECASE)


def _fill(parser, command, what):
    """`parser` as the parser of `command what`: its options from `_COMMANDS`, and both names as defaults."""
    # the one private argparse attribute the CLI sets; no option of ours looks like a number
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    _, common, own = _COMMANDS[command]
    for flags, kw in common + own[what]:
        parser.add_argument(*flags, **kw)
    parser.set_defaults(command=command, what=what)
    return parser


@functools.cache
def _leaf(command, what):
    """The parser of `command what` alone, built once per process; it parses what follows the two names."""
    return _fill(argparse.ArgumentParser(prog=f"finitetop {command} {what}"), command, what)


@functools.cache
def build_parser():
    """The parser of every command and its subcommands, built once per process; parsing leaves it unchanged.

    `main` builds it only for an argv that does not start with a command and
    one of its subcommands, and to refuse a leftover: it answers help and
    usage errors, and its top level lists every command.
    """
    subcommand_help = {"report": {"help": "closure table, separation, neighborhoods"}}
    p = argparse.ArgumentParser(prog="finitetop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _, own) in _COMMANDS.items():
        group = sub.add_parser(name, help=help_text).add_subparsers(dest="what", required=True)
        for what in own:
            _fill(group.add_parser(what, **subcommand_help.get(what, {})), name, what)
    return p


def _parse(argv):
    """The namespace of a call; help, usage and errors exit as argparse does.

    An argv that starts with a command and one of its subcommands is parsed
    by that subcommand's parser alone, as the tree would hand it the rest;
    leftovers are refused in the top level's words. Any other argv goes to
    the tree.
    """
    if len(argv) > 1 and argv[0] in _COMMANDS and argv[1] in _COMMANDS[argv[0]][2]:
        args, extras = _leaf(argv[0], argv[1]).parse_known_args(argv[2:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    return build_parser().parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # the handler is looked up by name on each call, not bound into the
    # cached parsers, so a handler rebound in this module takes effect
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args, sys.stdout)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        witness = f" [{e.witness}]" if e.witness else ""
        print(f"failed: {e}{witness}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

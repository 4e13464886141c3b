"""Seeded input generators, written in the CLI's own file formats.

Every generator takes a `random.Random` and returns plain data; the
`write_*` helpers turn that data into the text the program reads. The
program under test is never imported here, so nothing a generator emits
can depend on the code being measured.

Carriers are preorders, stored as `up[i]` = bitmask of {j : i <= j}. That
is the specialization order of the Alexandrov space whose opens are the
up-sets, so every space file below lists exactly the up-sets of `up`.
"""

from dataclasses import dataclass

from oracles import bits, count_upsets, transitive_closure, upsets


@dataclass(frozen=True)
class Carrier:
    name: str
    labels: tuple
    up: tuple

    @property
    def n(self):
        return len(self.labels)


# -- the five carrier families ----------------------------------------------


def _labels(rng, n, prefix):
    order = list(range(n))
    rng.shuffle(order)
    return tuple(f"{prefix}{k}" for k in order)


def chain(rng, n):
    up = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
    return Carrier(f"chain{n}", _labels(rng, n, "c"), up)


def fence(rng, n):
    """Zigzag 0 < 1 > 2 < 3 > ...: even points sit below their neighbours."""
    up = []
    for i in range(n):
        m = 1 << i
        if i % 2 == 0:
            if i > 0:
                m |= 1 << (i - 1)
            if i + 1 < n:
                m |= 1 << (i + 1)
        up.append(m)
    return Carrier(f"fence{n}", _labels(rng, n, "f"), tuple(up))


def antichain(rng, n):
    return Carrier(f"discrete{n}", _labels(rng, n, "d"), tuple(1 << i for i in range(n)))


def divisors(rng, number):
    """Divisors of `number` ordered by divisibility; labels are the divisors, as `n12`.

    The prefix keeps quotient class names, which the CLI builds by joining
    the sorted labels of a class, apart: unprefixed, {1, 2} and {12} would
    both be named "12".
    """
    ds = [d for d in range(1, number + 1) if number % d == 0]
    rng.shuffle(ds)
    up = tuple(
        sum(1 << j for j, e in enumerate(ds) if e % d == 0) for d in ds
    )
    return Carrier(f"div{number}", tuple(f"n{d}" for d in ds), up)


def random_preorder(rng, n, lo, hi, cycle=False, accept=None):
    """Random preorder whose Alexandrov space has between lo and hi opens.

    Edges i -> j (i < j) are drawn with a fixed probability and closed
    transitively; `cycle` merges one comparable pair into an equivalence
    class, which makes the space fail T0. Rejection keeps the open count,
    and with it the cost of every sweep, inside the window for every seed;
    `accept(up)` can narrow the choice further.
    """
    p = 0.5
    for _ in range(2000):
        up = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    up[i] |= 1 << j
        if cycle:
            i = rng.randrange(n - 1)
            j = rng.choice([j for j in bits(up[i]) if j != i] or [i + 1])
            up[i] |= 1 << j
            up[j] |= 1 << i
        up = transitive_closure(up)
        count = count_upsets(up, hi + 1)
        if lo <= count <= hi and (accept is None or accept(up)):
            return Carrier(f"rand{n}", _labels(rng, n, "r"), tuple(up))
        p = min(0.95, p * 1.1) if count > hi else p * 0.9
    raise RuntimeError(f"no random preorder on {n} points with {lo}..{hi} opens")


def relabel(rng, c, prefix):
    """Same preorder on fresh labels, listed in a shuffled order."""
    perm = list(range(c.n))
    rng.shuffle(perm)  # new position k holds old point perm[k]
    pos = {old: k for k, old in enumerate(perm)}
    up = tuple(
        sum(1 << pos[j] for j in bits(c.up[old])) for old in perm
    )
    labels = tuple(f"{prefix}{k}" for k in range(c.n))
    return Carrier(c.name + "'", labels, up), perm


# -- space-level files -------------------------------------------------------


def write_space(rng, c, opens=None):
    opens = list(upsets(c.up) if opens is None else opens)
    rng.shuffle(opens)
    lines = ["points: " + " ".join(c.labels)]
    for u in opens:
        lines.append("open: " + " ".join(c.labels[i] for i in bits(u)))
    return "\n".join(lines) + "\n"


def write_poset(c):
    lines = ["points: " + " ".join(c.labels)]
    for i in range(c.n):
        for j in bits(c.up[i]):
            if i != j:
                lines.append(f"le: {c.labels[i]} {c.labels[j]}")
    return "\n".join(lines) + "\n"


def write_family(labels, members):
    lines = ["points: " + " ".join(labels)]
    for m in members:
        lines.append("member: " + " ".join(labels[i] for i in bits(m)))
    return "\n".join(lines) + "\n"


def write_closure(labels, table):
    lines = ["points: " + " ".join(labels)]
    for a, b in enumerate(table):
        left = " ".join(labels[i] for i in bits(a))
        right = " ".join(labels[i] for i in bits(b))
        lines.append(f"cl: {left} -> {right}")
    return "\n".join(lines) + "\n"


def write_map(src_labels, dst_labels, assignment):
    return "".join(f"{src_labels[i]} -> {dst_labels[j]}\n" for i, j in enumerate(assignment))


def write_blocks(labels, blocks):
    return "".join("block: " + " ".join(labels[i] for i in bits(b)) + "\n" for b in blocks)


def base_family(rng, c):
    """Every kernel plus a few unions of kernels: a base of the up-set topology."""
    members = list(dict.fromkeys(c.up))
    for _ in range(min(4, c.n)):
        a, b = rng.sample(c.up, 2) if c.n > 1 else (c.up[0], c.up[0])
        members.append(a | b)
    rng.shuffle(members)
    return members


def non_base_family(rng, labels):
    """Two overlapping members whose overlap holds no member: not a base.

    U = {x, y}, V = {y, z} plus singletons covering the rest; nothing
    contains y inside U & V = {y}.
    """
    n = len(labels)
    x, y, z = rng.sample(range(n), 3)
    members = [(1 << x) | (1 << y), (1 << y) | (1 << z)]
    members += [1 << i for i in range(n) if i not in (x, y, z)]
    members.append(1 << x)
    rng.shuffle(members)
    return members


def subbase_family(rng, opens, n):
    """A few random opens: the topology they generate is a coarsening, so never larger."""
    return rng.sample(opens, min(len(opens), max(2, n // 2)))


def monotone_map_to_chain(c, m):
    """Point -> size of its down-set, clipped to a chain of m points: monotone."""
    down = [0] * c.n
    for i in range(c.n):
        for j in bits(c.up[i]):
            down[j] |= 1 << i
    return tuple(min(m - 1, down[i].bit_count() - 1) for i in range(c.n))


def partition(rng, n, blocks):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    out = []
    for a, b in zip([0] + cuts, cuts + [n]):
        out.append(sum(1 << order[k] for k in range(a, b)))
    return out


# -- 3-CNF theories ----------------------------------------------------------


def var_names(k):
    return tuple(f"p{i:02d}" for i in range(k))


def cnf3(rng, k, clauses):
    """Random 3-CNF: clauses as tuples of (variable index, negated)."""
    out = []
    for _ in range(clauses):
        vs = rng.sample(range(k), 3)
        out.append(tuple((v, rng.random() < 0.5) for v in vs))
    return out


def write_theory(k, clauses):
    """One clause per line; a tautology line declares any unused variable."""
    names = var_names(k)
    lines = []
    used = set()
    for cl in clauses:
        lits = [("~" if neg else "") + names[v] for v, neg in cl]
        used.update(v for v, _ in cl)
        lines.append(" | ".join(lits))
    for v in range(k):
        if v not in used:
            lines.append(f"{names[v]} | ~{names[v]}")
    return "\n".join(lines) + "\n"


# -- metric and stochastic matrices -----------------------------------------


def l1_cloud(rng, n, dim, span, dup):
    """Integer points in Z^dim with L1 distances; `dup` copies make a pseudometric."""
    pts = [tuple(rng.randrange(span) for _ in range(dim)) for _ in range(n - dup)]
    for _ in range(dup):
        pts.append(rng.choice(pts))
    rng.shuffle(pts)
    return pts


def l1_matrix(pts):
    return [[sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts]


def write_matrix(rows):
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def web_matrix(rng, n):
    """Damped random-surfer matrix with exact rational rows summing to 1.

    Row i is returned as integer numerators over the denominator 20·n·k,
    k the number of links of page i: teleport 3/(20n) to every page, plus
    17/(20k) to each link, for a damping of 85/100.
    """
    rows = []
    for i in range(n):
        k = rng.randint(1, min(8, n - 1))
        links = rng.sample([j for j in range(n) if j != i], k)
        row = [3 * k] * n
        for j in links:
            row[j] += 17 * n
        rows.append((row, 20 * n * k))
    return rows


def write_stochastic(rows):
    return "".join(",".join(f"{v}/{den}" for v in row) + "\n" for row, den in rows)


def write_chain(labels, relations):
    lines = ["points: " + " ".join(labels)]
    for level, rel in enumerate(relations, start=1):
        lines.append(f"relation {level}:")
        for i in range(len(labels)):
            for j in bits(rel[i]):
                if i < j:
                    lines.append(f"pair: {labels[i]} {labels[j]}")
    return "\n".join(lines) + "\n"


def nested_partitions(rng, n, depth):
    """Relations of ever finer partitions: each is an equivalence, so V^3 = V."""
    blocks = [(1 << n) - 1]
    rels = []
    for _ in range(depth):
        finer = []
        for b in blocks:
            members = list(bits(b))
            if len(members) > 1 and rng.random() < 0.8:
                cut = rng.randrange(1, len(members))
                rng.shuffle(members)
                finer.append(sum(1 << i for i in members[:cut]))
                finer.append(sum(1 << i for i in members[cut:]))
            else:
                finer.append(b)
        blocks = finer
        rel = [0] * n
        for b in blocks:
            for i in bits(b):
                rel[i] = b
        rels.append(tuple(rel))
    return rels

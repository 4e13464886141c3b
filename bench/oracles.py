"""Independent oracles: every expected value the benchmark checks comes from here.

Nothing in this file imports the program under test. Spaces are handled
through their generating preorder (`up[i]` = bitmask of {j : i <= j});
the facts used are classical (Alexandroff 1937, Stong 1966):

- the opens of the space are the up-sets, the kernels are the `up[i]`,
  the closure of a set is its down-closure;
- T0 iff the preorder is antisymmetric, T1 iff T2 iff it is the identity;
  T3 fails iff some x not in cl{y} has k_x & k_y nonempty, T4 fails iff
  some x, y with disjoint point closures have k_x & k_y nonempty;
- points of the locale are the distinct kernels, sober iff T0, the
  saturated sets are the opens, Scott = Alexandrov on a finite poset;
- topologies on n points are counted by OEIS A000798.
"""

import math

A000798 = (1, 1, 4, 29, 355, 6942)
COS_FIXED_POINT = 0.7390851332151607


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(up):
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def downs(up):
    down = [0] * len(up)
    for i, u in enumerate(up):
        for j in bits(u):
            down[j] |= 1 << i
    return down


def _walk_upsets(up, emit):
    """Decide points in index order, propagating up-sets and down-sets."""
    n = len(up)
    down = downs(up)

    def rec(i, inc, exc):
        while i < n and (inc | exc) >> i & 1:
            i += 1
        if i == n:
            return emit(inc)
        if not up[i] & exc and rec(i + 1, inc | up[i], exc):
            return True
        if not down[i] & inc and rec(i + 1, inc, exc | down[i]):
            return True
        return False

    rec(0, 0, 0)


def upsets(up):
    out = []
    _walk_upsets(up, lambda m: out.append(m))
    return sorted(out)


def count_upsets(up, cap):
    """Number of up-sets, stopping once it exceeds `cap`."""
    count = [0]

    def emit(_):
        count[0] += 1
        return count[0] > cap

    _walk_upsets(up, emit)
    return count[0]


def directed_subsets(up):
    """Nonempty subsets with a greatest element: the directed sets of a finite poset."""
    return sum(1 << (d.bit_count() - 1) for d in downs(up))


def expected_open_count(name, n):
    """Closed forms for two families: F(n+2) up-sets of an n-fence, 2^n of an antichain."""
    if name.startswith("fence"):
        a, b = 1, 1
        for _ in range(n):
            a, b = b, a + b
        return b
    if name.startswith("discrete"):
        return 1 << n
    return None


def check_open_count(name, up):
    """Raise when the up-set search disagrees with the closed form for this family."""
    want = expected_open_count(name, len(up))
    got = len(upsets(up))
    if want is not None and got != want:
        raise RuntimeError(f"oracle finds {got} opens on {name}, expected {want}")


def closure(up, mask):
    down = downs(up)
    out = 0
    for i in bits(mask):
        out |= down[i]
    return out


def interior(up, mask):
    return sum(1 << i for i in range(len(up)) if up[i] & ~mask == 0)


def separation(up):
    n = len(up)
    down = downs(up)
    t0 = all(not (up[i] >> j & 1 and up[j] >> i & 1) for i in range(n) for j in range(n) if i != j)
    t1 = all(up[i] == 1 << i for i in range(n))
    t3 = not any(
        not down[y] >> x & 1 and up[x] & up[y] for x in range(n) for y in range(n)
    )
    t4 = not any(
        down[x] & down[y] == 0 and up[x] & up[y] for x in range(n) for y in range(n)
    )
    return {
        "t0": t0, "t1": t1, "t2": t1, "t3": t3, "t4": t4,
        "regular": t1 and t3, "normal": t1 and t4,
    }


def product(up_a, up_b):
    """Product preorder, point (x, y) at index x * |b| + y."""
    nb = len(up_b)
    out = []
    for x in range(len(up_a)):
        for y in range(nb):
            m = 0
            for x2 in bits(up_a[x]):
                for y2 in bits(up_b[y]):
                    m |= 1 << (x2 * nb + y2)
            out.append(m)
    return out


def disjoint_sum(up_a, up_b):
    shift = len(up_a)
    return list(up_a) + [u << shift for u in up_b]


def restrict(up, keep):
    idx = list(bits(keep))
    pos = {i: k for k, i in enumerate(idx)}
    return [sum(1 << pos[j] for j in bits(up[i] & keep)) for i in idx]


def quotient_opens(up, blocks):
    """Opens of the quotient, as masks over block indices."""
    out = []
    for u in upsets(up):
        picked = [k for k, b in enumerate(blocks) if b & u]
        if all(blocks[k] & ~u == 0 for k in picked):
            out.append(sum(1 << k for k in picked))
    return sorted(out)


def kernels_of_family(n, members):
    """Kernel of each point: intersection of the members containing it."""
    full = (1 << n) - 1
    ker = []
    for i in range(n):
        k = full
        for m in members:
            if m >> i & 1:
                k &= m
        ker.append(k)
    return ker


def is_base_witness(members, x, u, v):
    """True when (x, U, V) shows the family is not a base."""
    both = u & v
    return bool(both >> x & 1) and not any(
        w >> x & 1 and w & ~both == 0 for w in members
    )


def is_monotone(up_src, up_dst, f):
    return all(up_dst[f[i]] >> f[j] & 1 for i in range(len(up_src)) for j in bits(up_src[i]))


def preimage(f, mask):
    return sum(1 << i for i, j in enumerate(f) if mask >> j & 1)


# -- exhaustive enumeration ---------------------------------------------------


def all_preorders(n):
    """Every preorder on n points, grown one point at a time.

    A preorder on k + 1 points restricts to one on the first k; the new
    point k brings an up-set U and a down-set D of the old order with
    every d in D below every u in U. Rows are returned as up-masks.
    """
    level = [[]]
    for k in range(n):
        nxt = []
        full = (1 << k) - 1
        for up in level:
            down = downs(up)
            ups = [u for u in range(full + 1) if all(up[i] & ~u == 0 for i in bits(u))]
            dns = [d for d in range(full + 1) if all(down[i] & ~d == 0 for i in bits(d))]
            for u in ups:
                for d in dns:
                    if any(up[i] & u != u for i in bits(d)):
                        continue
                    row = [r | (1 << k if d >> i & 1 else 0) for i, r in enumerate(up)]
                    for i in bits(d):
                        row[i] |= u
                    row.append(u | 1 << k)
                    nxt.append(row)
        level = nxt
    return level


def checked_preorders(n):
    out = all_preorders(n)
    if len(out) != A000798[n]:
        raise RuntimeError(f"preorder enumerator found {len(out)} on {n} points, A000798 says {A000798[n]}")
    return out


# -- logic ---------------------------------------------------------------------


def cnf_models(k, clauses):
    """Models of a CNF, as integers over the variables in lexicographic order.

    A valuation is the bit vector with variable 0 as the most significant
    bit, so ascending integers are the lexicographic order with bot < top.
    Each clause becomes a 2^k-bit truth table; their AND is the model set.
    """
    size = 1 << k
    all_ones = (1 << size) - 1
    var_true = []
    for v in range(k):
        half = 1 << (k - 1 - v)
        table = ((1 << half) - 1) << half  # one period: var v bot, then top
        period = 2 * half
        while period < size:
            table |= table << period
            period *= 2
        var_true.append(table)
    models = all_ones
    for cl in clauses:
        t = 0
        for v, neg in cl:
            t |= (all_ones & ~var_true[v]) if neg else var_true[v]
        models &= t
    return list(bits(models))


def satisfies(k, clauses, true_vars):
    return all(any((v in true_vars) != neg for v, neg in cl) for cl in clauses)


# -- metrics -------------------------------------------------------------------


def hausdorff(dist, a, b):
    ab = max(min(dist[i][j] for j in b) for i in a)
    ba = max(min(dist[i][j] for i in a) for j in b)
    return max(ab, ba)


def chain_distances(n, relations):
    """Ultrametric of nested equivalences: 2^-(m+1) past the last shared level m."""
    k = len(relations)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            level = 0
            for m, rel in enumerate(relations, start=1):
                if rel[i] >> j & 1:
                    level = m
                else:
                    break
            out[i][j] = 0.0 if level == k else 2.0 ** -(level + 1)
    return out


def stationarity_residual(rows, p):
    n = len(rows)
    return sum(abs(sum(p[i] * rows[i][j] for i in range(n)) - p[j]) for j in range(n))


# -- approximation -------------------------------------------------------------


def log_kernel_mass(n):
    """log of J_n = integral_0^1 (1 - v^2)^n dv = (sqrt(pi)/2) Gamma(n+1) / Gamma(n+3/2)."""
    return math.log(math.sqrt(math.pi) / 2) + math.lgamma(n + 1) - math.lgamma(n + 1.5)


def gauss_nodes(panels=64, order=20):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    import numpy as np

    t, w = np.polynomial.legendre.leggauss(order)
    h = 1.0 / panels
    return [(h * (p + (ti + 1.0) / 2.0), wi * h / 2.0) for p in range(panels) for ti, wi in zip(t, w)]


def kernel_polynomial(f, n, x, nodes):
    """P_n(x) = integral_0^1 f(u) (1 - (u - x)^2)^n du / (2 J_n), J_n in closed form."""
    acc = sum(w * f(u) * (1.0 - (u - x) ** 2) ** n for u, w in nodes)
    return acc / (2.0 * math.exp(log_kernel_mass(n)))


def kernel_tail_ratio(n, delta, nodes):
    """integral_delta^1 (1 - v^2)^n dv / J_n."""
    tail = sum(w * (1.0 - delta) * (1.0 - (delta + (1.0 - delta) * u) ** 2) ** n for u, w in nodes)
    return tail / math.exp(log_kernel_mass(n))


def sqrt_error_bound(n, t):
    """0 <= sqrt(t) - f_n(t) <= 2 sqrt(t) / (2 + n sqrt(t)) for the iteration f <- f + (t - f^2)/2."""
    s = math.sqrt(t)
    return 2.0 * s / (2.0 + n * s)

"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive: plain loops, plain sets, no numpy,
no shared code with the library under test.  Slow is fine; wrong is not.
"""

import cmath
import itertools
import math
from fractions import Fraction


def naive_sumset_mod(A, B, N):
    return sorted({(a + b) % N for a in A for b in B})


def naive_sumset_int(A, B):
    return sorted({a + b for a in A for b in B})


def naive_sumset_vec(A, B, r):
    out = set()
    for a in A:
        for b in B:
            out.add(tuple((x + y) % r for x, y in zip(a, b)))
    return sorted(out)


def loop_torsion_add(a, b, r, n):
    """Indices of a + b in (Z/r)^n, one base-r digit at a time, most significant first.

    Each digit of the sum is (digit of a + digit of b) mod r, put back at its
    place value.  a and b are ints or broadcasting integer arrays.
    """
    out = 0
    place = r ** (n - 1)
    for _ in range(n):
        out = out + (a // place % r + b // place % r) % r * place
        place //= r
    return out


def chain_incm(A, T, m_max, add, neg):
    """Largest m <= m_max with (m+1)(A-A) inside (A-A) + m(T-T), forming both chains of sums in full."""
    D = {add(a, neg(b)) for a in A for b in A}
    E = {add(s, neg(t)) for s in T for t in T}
    lhs = rhs = D
    for m in range(1, m_max + 1):
        lhs = {add(x, d) for x in lhs for d in D}
        rhs = {add(x, e) for x in rhs for e in E}
        if not lhs <= rhs:
            return m - 1
    return m_max


def naive_iterated_mod(A, k, N):
    cur = sorted(set(a % N for a in A))
    for _ in range(k - 1):
        cur = naive_sumset_mod(cur, A, N)
    return cur


def brute_diameter(A, N):
    """Least l with A inside {a, a+d, ..., a+l*d}, minimized over all (d, a).

    Only invertible d can cover a set of more than one residue with fewer
    than N terms, so d ranges over the units.
    """
    A = sorted(set(x % N for x in A))
    if len(A) == 1:
        return 0
    best = N - 1
    for d in range(1, N):
        if math.gcd(d, N) != 1:
            continue
        inv = pow(d, -1, N)
        for a in A:
            positions = [((x - a) * inv) % N for x in A]
            best = min(best, max(positions))
    return best


def brute_canonical_affine_form(A, N):
    """Lexicographically least sorted image of A under x -> u*x + c mod N, u a unit.

    Every unit u, and for each every shift c that sends an element of u*A
    to 0.  In Z/1 the only unit is 0, which range(N) meets: gcd(0, 1) = 1.
    """
    best = ()
    for u in range(N):
        if math.gcd(u, N) != 1:
            continue
        vals = [(u * x) % N for x in A]
        for v in vals:
            cand = tuple(sorted((x - v) % N for x in vals))
            if not best or cand < best:
                best = cand
    return best


def brute_shortest_arc(vals, N):
    """(length, start) of the shortest circular interval of Z/N holding vals.

    The interval starts where the largest circular gap ends; the wraparound
    gap wins ties, then the first of the inner gaps.
    """
    vals = sorted(vals)
    gap, start = vals[0] + N - vals[-1], vals[0]
    for prev, v in zip(vals, vals[1:]):
        if v - prev > gap:
            gap, start = v - prev, v
    return N - gap, start


def brute_diameter_witness(A, N):
    """(length, step, start) of the documented diameter search.

    Units u = 1..N//2 coprime to N are tried in increasing order; the first
    unit with the least interval length wins, and the search stops at the
    first unit whose length reaches the floor |A| - 1.  The progression is
    {start + j*step}, with step = u^-1 and start = u^-1 * (interval start).
    """
    A = sorted(set(x % N for x in A))
    if N == 1 or len(A) == 1:
        return 0, 1 % N, A[0]
    best = None
    for u in range(1, N // 2 + 1):
        if math.gcd(u, N) != 1:
            continue
        length, start = brute_shortest_arc([(u * x) % N for x in A], N)
        if best is None or length < best[0]:
            best = (length, u, start)
        if length == len(A) - 1:
            break
    length, u, start = best
    step = pow(u, -1, N)
    return length, step, (step * start) % N


def brute_j_count(k, m):
    count = 0
    for t in itertools.product(range(-m, m + 1), repeat=k):
        pos = sum(x for x in t if x > 0)
        neg = -sum(x for x in t if x < 0)
        if pos == neg and pos <= m:
            count += 1
    return count


def dft_coefficient(B, N, r):
    return sum(cmath.exp(2j * math.pi * b * r / N) for b in B)


def direct_transform(B, r, n):
    """B^(c) = sum over b in B of e((c.b)/r) for every c in (Z/r)^n, in index order.

    The defining sums, term by term.  Elements are coordinate tuples, or
    plain ints for Z/N (r = N, n = 1); characters run lexicographically.
    """
    B = [(b,) if isinstance(b, int) else b for b in B]
    return [
        sum(cmath.exp(2j * math.pi * (sum(x * y for x, y in zip(c, b)) % r) / r) for b in B)
        for c in itertools.product(range(r), repeat=n)
    ]


def dirichlet_magnitude(length, r, N):
    """|B^(r)| for the interval {0, ..., length-1} in Z/N, in closed form."""
    if r % N == 0:
        return float(length)
    num = math.sin(math.pi * length * r / N)
    den = math.sin(math.pi * r / N)
    return abs(num / den)


def brute_convolution_counts(B, m, add):
    """{x: number of (m+1)-tuples of B summing to x}, folding one summand at a time."""
    counts = {}
    for b in B:
        counts[b] = counts.get(b, 0) + 1
    for _ in range(m):
        nxt = {}
        for x, c in counts.items():
            for b in B:
                y = add(x, b)
                nxt[y] = nxt.get(y, 0) + c
        counts = nxt
    return counts


def brute_window_counts(B, N, l):
    """For every start s, how many points of B lie in {s, s+1, ..., s+l} mod N."""
    pts = set(x % N for x in B)
    return [sum(1 for j in range(l + 1) if (s + j) % N in pts) for s in range(N)]


def brute_freiman(A, mapping, k, add_domain, add_image):
    """Quadratic check over all pairs of k-multisets from A.

    True when domain sums agree exactly where image sums agree.  This is
    the definition, with none of the partition bookkeeping the library uses.
    """
    combos = list(itertools.combinations_with_replacement(sorted(A), k))

    def dsum(c):
        s = c[0]
        for x in c[1:]:
            s = add_domain(s, x)
        return s

    def isum(c):
        s = mapping[c[0]]
        for x in c[1:]:
            s = add_image(s, mapping[x])
        return s

    for c1, c2 in itertools.combinations(combos, 2):
        if (dsum(c1) == dsum(c2)) != (isum(c1) == isum(c2)):
            return False
    return True


def naive_subgroup(gens, r, n):
    """Closure of gens under addition mod r, coordinatewise, as a sorted list."""
    zero = (0,) * n
    members = {zero}
    frontier = {zero}
    gens = [tuple(x % r for x in g) for g in gens]
    while frontier:
        nxt = set()
        for f in frontier:
            for g in gens:
                s = tuple((a + b) % r for a, b in zip(f, g))
                if s not in members:
                    members.add(s)
                    nxt.add(s)
        frontier = nxt
    return sorted(members)


def span_subgroup(gens, r, n):
    """All combinations c_1*g_1 + ... + c_k*g_k with 0 <= c_i < r, sorted.

    In (Z/r)^n every element has order dividing r, so this set of
    combinations is the subgroup generated by gens.
    """
    members = {(0,) * n}
    for g in gens:
        members = {
            tuple((x + c * y) % r for x, y in zip(m, g)) for m in members for c in range(r)
        }
    return sorted(members)


def brute_greedy_translates(core, candidates, add):
    """Greedy translate selection, as sorted chosen candidates.

    Each round scans the candidates in sorted order and takes the first with
    the largest number of points of core + u outside the union so far, as
    long as that number is at least |core|/2.
    """
    core = sorted(set(core))
    covered = set()
    chosen = []
    while True:
        best = None
        for u in sorted(set(candidates)):
            gain = len({add(a, u) for a in core} - covered)
            if 2 * gain >= len(core) and (best is None or gain > best[0]):
                best = (gain, u)
        if best is None:
            return sorted(chosen)
        chosen.append(best[1])
        covered |= {add(a, best[1]) for a in core}


def sum_ratio(S, B1, B2, add):
    """|S + B1 + B2| / |S| for a nonempty S."""
    S = set(S)
    sums = {add(add(a, b1), b2) for a in S for b1 in B1 for b2 in B2}
    return Fraction(len(sums), len(S))


def brute_witness_ratio(A, B1, B2, add):
    """Least |A' + B1 + B2| / |A'| over every nonempty subset A' of A."""
    A = sorted(set(A))
    return min(
        sum_ratio(sub, B1, B2, add)
        for size in range(1, len(A) + 1)
        for sub in itertools.combinations(A, size)
    )


def naive_doubling(A, N):
    return Fraction(len(naive_sumset_mod(A, A, N)), len(set(x % N for x in A)))


def loop_freiman(A, B, mapping, k):
    """(ok, tuples_compared, counterexample) of the partition walk over k-multisets.

    Walks combinations_with_replacement(A.elements, k) adding with the groups'
    own add, one element at a time.  The first multiset whose domain sum was
    seen with another image sum is a counterexample; with none, two domain
    classes (in order of first appearance) that share an image sum are.
    """
    ga, gb = A.group, B.group
    by_domain_sum = {}
    count = 0
    for combo in itertools.combinations_with_replacement(A.elements, k):
        count += 1
        sa = combo[0]
        sb = mapping[combo[0]]
        for x in combo[1:]:
            sa = ga.add(sa, x)
            sb = gb.add(sb, mapping[x])
        prev = by_domain_sum.get(sa)
        if prev is None:
            by_domain_sum[sa] = (sb, combo)
        elif prev[0] != sb:
            return False, count, (prev[1], combo)
    seen_image = {}
    for sa, (sb, combo) in by_domain_sum.items():
        if sb in seen_image:
            return False, count, (seen_image[sb], combo)
        seen_image[sb] = combo
    return True, count, None


def loop_pluennecke(A, B1, B2, overlap_rule=True):
    """(subset, ratio, subsets_searched) of the documented witness search, in Fractions.

    Nonempty subsets of A's positions run by decreasing size, in combinations
    order within a size; a size class is skipped, and the search ends, once
    |B1 + B2| / size or (size * |B1 + B2| - C(size, 2) * M) / size is no less
    than the best ratio, M the most points two translates a + B1 + B2 share;
    without overlap_rule only the first bound stops it.  A subset replaces
    the best only with a strictly smaller |A' + B1 + B2| / |A'|.  The subset
    is the tuple of its elements in A's order.
    """
    add = A.group.add
    elems = A.elements
    sigma = {add(b1, b2) for b1 in B1.elements for b2 in B2.elements}
    # one bit per point of A + B1 + B2, one mask of A' + B1 + B2 per a in A
    bit = {x: 1 << i for i, x in enumerate({add(a, s) for a in elems for s in sigma})}
    mask = {a: sum(bit[add(a, s)] for s in sigma) for a in elems}
    overlap = max((bin(mask[a] & mask[b]).count("1") for a, b in itertools.combinations(elems, 2)), default=0)
    best_ratio = None
    best = ()
    searched = 0
    for size in range(len(elems), 0, -1):
        if best_ratio is not None and Fraction(len(sigma), size) >= best_ratio:
            break
        if overlap_rule and best_ratio is not None and Fraction(size * len(sigma) - math.comb(size, 2) * overlap, size) >= best_ratio:
            break
        for combo in itertools.combinations(elems, size):
            searched += 1
            union = 0
            for a in combo:
                union |= mask[a]
            ratio = Fraction(bin(union).count("1"), size)
            if best_ratio is None or ratio < best_ratio:
                best_ratio, best = ratio, combo
    return best, best_ratio, searched


# The Fraction chains that the library's exact gates once ran, kept as
# oracles for the integer comparisons that replaced them.


def fraction_torsion_bounds(s, d, n, r, size, order):
    """(e_a, e_b, bound_a_raw, bound_b_raw, bound_a, bound_b, bound_a_holds, bound_b_holds) in Fractions.

    s = |A + A|, d = |A - A|, n = |A|, r the exponent, size = |gen(A - A)|,
    order = |G|: e = floor(2K^2 - 2) for K = s/n and d/n, the raw bounds
    K^2 r^e_a n and K r^e_b n, capped at the order.
    """
    k_double, k_diff = Fraction(s, n), Fraction(d, n)
    e_a = math.floor(2 * k_double * k_double - 2)
    e_b = math.floor(2 * k_diff * k_diff - 2)
    raw_a = k_double * k_double * Fraction(r) ** e_a * n
    raw_b = k_diff * Fraction(r) ** e_b * n
    return (
        e_a,
        e_b,
        raw_a,
        raw_b,
        min(math.floor(raw_a), order),
        min(math.floor(raw_b), order),
        size <= raw_a,
        size <= raw_b,
    )


def fraction_size_bound(n, s1, s2, total, witness):
    """floor(2 K1 K2 - 1) with Ki = si/n on the witness path, else floor(2 total/n - 1)."""
    if witness:
        return math.floor(2 * Fraction(s1, n) * Fraction(s2, n) - 1)
    return math.floor(2 * Fraction(total, n) - 1)


def fraction_witness_within(ratio, n, s1, s2):
    """Whether a witness ratio is at most K1 K2 = (s1/n)(s2/n)."""
    return not ratio > Fraction(s1, n) * Fraction(s2, n)


def fraction_growth_ratio_holds(grown, base, bound):
    """|(m+1)B| < bound * |B|, for the (14m/k)^k bound as a Fraction."""
    return grown < bound * base


def fraction_gap_hypothesis(outside, n):
    """Fewer than |A|/2 differences outside the window."""
    return not outside >= Fraction(n, 2)


def fraction_max_power_bound(R, N, size, m):
    """float((1/R - 1/N) * |B|^(2m+1))."""
    return float((Fraction(1, R) - Fraction(1, N)) * Fraction(size) ** (2 * m + 1))

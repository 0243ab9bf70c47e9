"""Reference computations that check the package's outputs.

Nothing here imports ``starfactor``: graphs are plain ``(n, edges)``
pairs with the package's edge order (sorted ``(u, v)`` pairs, ``u < v``),
so that edge indices and the factor order agree with the package without
trusting its code.  Results are exact (ints and Fractions).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import comb

Edges = tuple[tuple[int, int], ...]


# ------------------------------------------------------------ star-factors

def star_factors(n: int, edges: Edges) -> list[tuple[int, ...]]:
    """Every star-factor as an ascending tuple of edge indices, sorted.

    This is the 2^m subset filter by the degree rule (every vertex is
    covered and every chosen edge has an endpoint of degree one), searched
    edge by edge so that a subset is dropped as soon as the rule fails for
    it and for all its extensions.  The order matches the package's factor
    order, which is lexicographic in the sorted edge-index tuples.
    """
    m = len(edges)
    last = [-1] * n
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    if n == 0 or min(last) < 0:
        return []
    deg = [0] * n
    mate = [-1] * n  # the chosen neighbour of a vertex of degree one
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def can_join(a: int, b: int) -> bool:
        # a joins b as a leaf: b is uncovered, a center, or one end of a K2
        return deg[b] == 0 or deg[b] >= 2 or deg[mate[b]] == 1

    def rec(i: int) -> None:
        if i == m:
            out.append(tuple(chosen))
            return
        u, v = edges[i]
        if (deg[u] == 0 and can_join(u, v)) or (deg[v] == 0 and can_join(v, u)):
            saved = (mate[u], mate[v])
            deg[u] += 1
            deg[v] += 1
            mate[u], mate[v] = v, u
            chosen.append(i)
            rec(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            mate[u], mate[v] = saved
        if not ((last[u] == i and deg[u] == 0) or (last[v] == i and deg[v] == 0)):
            rec(i + 1)

    rec(0)
    out.sort()
    return out


def complete_graph_factor_count(n: int) -> int:
    """Star-factors of K_n in closed form.

    A star-factor of K_n is a partition of the vertices into blocks of
    size >= 2 with a center chosen in each block of size >= 3 (a block of
    size k carries k stars, one of size 2 carries one), so the counts have
    the exponential generating function exp(x e^x - x - x^2/2).  The
    recurrence picks the block of the first vertex.
    """
    a = [1] + [0] * n
    for k in range(1, n + 1):
        a[k] = sum(
            comb(k - 1, s - 1) * (1 if s == 2 else s) * a[k - s] for s in range(2, k + 1)
        )
    return a[n]


def incidence(factors: list[tuple[int, ...]], m: int) -> list[tuple[int, ...]]:
    rows = []
    for f in factors:
        row = [0] * m
        for i in f:
            row[i] = 1
        rows.append(tuple(row))
    return rows


# ------------------------------------------------------------ certificates

def witness_ok(factors: list[tuple[int, ...]], weights, common=None) -> bool:
    """Positive weights under which every factor has the same total."""
    if any(w <= 0 for w in weights) or not factors:
        return False
    totals = {sum((weights[i] for i in f), Fraction(0)) for f in factors}
    return len(totals) == 1 and (common is None or totals == {Fraction(common)})


def refutation_ok(factors: list[tuple[int, ...]], m: int, coeffs, forced_zero) -> bool:
    """Stiemke certificate: forced_zero = sum_i coeffs[i] (x_{i+1} - x_1),
    recomputed here, is nonnegative and nonzero."""
    if len(coeffs) != len(factors) - 1 or len(forced_zero) != m:
        return False
    vectors = incidence(factors, m)
    forced = [Fraction(0)] * m
    for c, vec in zip(coeffs, vectors[1:]):
        if c:
            for e in range(m):
                forced[e] += c * (vec[e] - vectors[0][e])
    return (
        forced == [Fraction(x) for x in forced_zero]
        and all(x >= 0 for x in forced)
        and any(x > 0 for x in forced)
    )


# ------------------------------------------------------------ forests

def adjacency(n: int, edges: Edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def components(n: int, edges: Edges) -> list[list[int]]:
    adj = adjacency(n, edges)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, queue = [s], deque([s])
        while queue:
            for y in adj[queue.popleft()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        out.append(sorted(comp))
    return out


def split_components(n: int, edges: Edges) -> list[tuple[tuple[int, Edges], list[int]]]:
    """Per component: the component relabeled to 0..k-1 in vertex order,
    as (k, edges), and the indices of its edges in ``edges`` (the
    relabeling keeps the edge order)."""
    out = []
    for comp in components(n, edges):
        index = {v: i for i, v in enumerate(comp)}
        idx = [i for i, (u, v) in enumerate(edges) if u in index]
        sub = tuple((index[edges[i][0]], index[edges[i][1]]) for i in idx)
        out.append(((len(comp), sub), idx))
    return out


def forest_weight_range(n: int, edges: Edges, weights) -> tuple[Fraction, Fraction] | None:
    """Minimum and maximum star-factor weight of a forest, by tree DP.

    None when the forest has no star-factor.  Per vertex v (rooted at
    the smallest vertex of each tree), over v's subtree:
      S  covered, v's star inside the subtree;
      L  v is a leaf of its parent, every child covered without v;
      Q  v is a center that the parent joins as a leaf (zero or more
         child leaves).
    """
    index = {e: i for i, e in enumerate(edges)}
    adj = adjacency(n, edges)
    parent = [-1] * n
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    stack.append(y)
    result = []
    for pick in (min, max):
        S: list = [None] * n
        L: list = [None] * n
        Q: list = [None] * n
        for v in reversed(order):
            kids = [c for c in adj[v] if parent[c] == v]
            w = {c: Fraction(weights[index[(min(v, c), max(v, c))]]) for c in kids}
            # with v a center, each child covers itself (S) or is a leaf of v (w + L)
            best = {}
            for c in kids:
                opts = [x for x in (S[c], None if L[c] is None else w[c] + L[c]) if x is not None]
                if opts:
                    best[c] = pick(opts)
            Q[v] = sum(best.values(), Fraction(0)) if len(best) == len(kids) else None
            selfs = [c for c in kids if S[c] is not None]
            total_s = sum((S[c] for c in selfs), Fraction(0))
            L[v] = total_s if len(selfs) == len(kids) else None
            cands = []
            for c in kids:
                if Q[v] is not None and L[c] is not None:  # c is a leaf of the center v
                    cands.append(Q[v] - best[c] + w[c] + L[c])
                others_s = total_s - (S[c] if S[c] is not None else 0)
                if Q[c] is not None and len(selfs) >= len(kids) - (S[c] is None):
                    cands.append(others_s + w[c] + Q[c])  # v is a leaf of the center c
            S[v] = pick(cands) if cands else None
        roots = [v for v in order if parent[v] < 0]
        if any(S[r] is None for r in roots):
            return None
        result.append(sum((S[r] for r in roots), Fraction(0)))
    return result[0], result[1]


def tree_member(n: int, edges: Edges) -> bool:
    """The paper's verdict for a tree: every component of T minus its
    leaves and stems is an isolated vertex, a single edge, or a star
    K_{1,k} whose center has degree k in T."""
    adj = adjacency(n, edges)
    leaves = {v for v in range(n) if len(adj[v]) == 1}
    outer = leaves | {v for v in range(n) if any(u in leaves for u in adj[v])}
    core = [v for v in range(n) if v not in outer]
    core_set = set(core)
    seen: set[int] = set()
    for s in core:
        if s in seen:
            continue
        comp, stack = [s], [s]
        seen.add(s)
        while stack:
            for y in adj[stack.pop()]:
                if y in core_set and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        if len(comp) <= 2:
            continue
        deg = {v: sum(1 for u in adj[v] if u in core_set) for v in comp}
        centers = [v for v in comp if deg[v] == len(comp) - 1]
        if not centers or len(adj[centers[0]]) != len(comp) - 1:
            return False
    return True


# ------------------------------------------------------------ girth, counts

def girth(n: int, edges: Edges) -> int | None:
    """Shortest cycle: min over edges uv of dist(u, v) in G - uv, plus one."""
    adj = adjacency(n, edges)
    best = None
    for u, v in edges:
        dist = {u: 0}
        queue = deque([u])
        while queue and v not in dist:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist and (x, y) != (u, v):
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def girth_class(n: int, edges: Edges) -> str:
    g = girth(n, edges)
    return "inf" if g is None else ">=8" if g >= 8 else str(g)


# connected labeled graphs on n = 1..5 vertices (OEIS A001187)
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def cycle_or_corollary_verdict(n: int, edges: Edges) -> bool | None:
    """Known verdicts for connected graphs of girth >= 5 and minimum
    degree two: members are exactly C5 and C7 (the paper's corollary,
    which covers the cycles).  None for any other graph."""
    adj = adjacency(n, edges)
    if n < 2 or min(len(a) for a in adj) < 2 or (girth(n, edges) or 5) < 5:
        return None
    return n in (5, 7) and len(edges) == n

"""Brute-force reference implementations used to pin expected test values.

Everything here trades efficiency for obviousness: exhaustive loops over
all maps or all colorings, no pruning.  The canonical labeling reference
is the individualisation-refinement search without automorphism pruning,
which expands every leaf.  Intended for structures of at most 5 or 6
elements.
"""

import itertools
import random

from ramseykit import (PropertyReport, Structure, canonical_certificate,
                       canonical_form, define_by_type_union, qftp,
                       substructure_closure, tuples_by_type, type_digest)
from ramseykit.classes import GRAPH_SIGNATURE, OrderabilityResult


def oracle_is_embedding(pattern: Structure, host: Structure, mapping) -> bool:
    """Atom-by-atom check that mapping is an embedding pattern -> host."""
    if pattern.signature != host.signature:
        return False
    if len(set(mapping)) != len(mapping) or len(mapping) != pattern.size:
        return False
    for sym, ar in pattern.signature.relations:
        for tup in itertools.product(range(pattern.size), repeat=ar):
            image = tuple(mapping[x] for x in tup)
            if pattern.holds(sym, tup) != host.holds(sym, image):
                return False
    for sym, ar in pattern.signature.functions:
        for args in itertools.product(range(pattern.size), repeat=ar):
            value = pattern.fn_value(sym, args)
            if value is None:
                continue
            image = host.fn_value(sym, tuple(mapping[x] for x in args))
            if image != mapping[value]:
                return False
    for sym in pattern.signature.constants:
        if mapping[pattern.const(sym)] != host.const(sym):
            return False
    return True


def oracle_embeddings(host: Structure, pattern: Structure):
    """All embeddings as mapping tuples, by exhaustive injection scan."""
    return [m for m in itertools.permutations(range(host.size), pattern.size)
            if oracle_is_embedding(pattern, host, m)]


def oracle_isomorphic(M1: Structure, M2: Structure) -> bool:
    if M1.size != M2.size:
        return False
    return bool(oracle_embeddings(M2, M1))


def oracle_generated_qftp_equal(M1: Structure, t1, M2: Structure, t2) -> bool:
    """Pointed isomorphism of generated substructures, by brute force.

    The types of t1 and t2 agree exactly when some isomorphism of the
    closures carries t1 to t2 pointwise.
    """
    if M1.signature != M2.signature or len(t1) != len(t2):
        return False
    c1 = sorted(substructure_closure(M1, set(t1)))
    c2 = sorted(substructure_closure(M2, set(t2)))
    if len(c1) != len(c2):
        return False
    pos1 = {x: i for i, x in enumerate(c1)}
    pos2 = {x: i for i, x in enumerate(c2)}
    sub1 = _restrict(M1, c1)
    sub2 = _restrict(M2, c2)
    p1 = tuple(pos1[x] for x in t1)
    p2 = tuple(pos2[x] for x in t2)
    for m in itertools.permutations(range(len(c1))):
        if tuple(m[x] for x in p1) != p2:
            continue
        # isomorphism, not just embedding: definedness must match both
        # ways, so check the inverse too
        inv = [0] * len(m)
        for i, y in enumerate(m):
            inv[y] = i
        if oracle_is_embedding(sub1, sub2, m) and \
                oracle_is_embedding(sub2, sub1, tuple(inv)):
            return True
    return False


def _restrict(M: Structure, elements) -> Structure:
    """Induced substructure on a closed element list (sorted order)."""
    elements = list(elements)
    pos = {x: i for i, x in enumerate(elements)}
    inside = set(elements)
    rels = {}
    for sym, _ in M.signature.relations:
        rels[sym] = {tuple(pos[x] for x in t) for t in M.rel_tuples(sym)
                     if all(x in inside for x in t)}
    fns = {}
    for sym, _ in M.signature.functions:
        fns[sym] = {tuple(pos[x] for x in args): pos[v]
                    for args, v in M.fn_entries(sym)
                    if all(x in inside for x in args) and v in inside}
    consts = {sym: pos[M.const(sym)] for sym in M.signature.constants}
    return Structure(M.signature, len(elements), rels, fns, consts)


def oracle_induced_qftp_equal(M1: Structure, t1, M2: Structure, t2) -> bool:
    """Tuple-local diagram comparison: the positional map must be a
    well-defined bijection of entry sets preserving atoms, function values
    inside the entry sets (escape counts as undefined), and constants."""
    if M1.signature != M2.signature or len(t1) != len(t2):
        return False
    n = len(t1)
    for i in range(n):
        for j in range(n):
            if (t1[i] == t1[j]) != (t2[i] == t2[j]):
                return False
    s1, s2 = set(t1), set(t2)
    for sym, ar in M1.signature.relations:
        for ptup in itertools.product(range(n), repeat=ar):
            a1 = M1.holds(sym, tuple(t1[p] for p in ptup))
            a2 = M2.holds(sym, tuple(t2[p] for p in ptup))
            if a1 != a2:
                return False
    mapping = {t1[i]: t2[i] for i in range(n)}
    for sym, ar in M1.signature.functions:
        for ptup in itertools.product(range(n), repeat=ar):
            v1 = M1.fn_value(sym, tuple(t1[p] for p in ptup))
            v2 = M2.fn_value(sym, tuple(t2[p] for p in ptup))
            in1 = v1 if v1 in s1 else None
            in2 = v2 if v2 in s2 else None
            if (in1 is None) != (in2 is None):
                return False
            if in1 is not None and mapping[in1] != in2:
                return False
    for sym in M1.signature.constants:
        c1, c2 = M1.const(sym), M2.const(sym)
        in1 = c1 if c1 in s1 else None
        in2 = c2 if c2 in s2 else None
        if (in1 is None) != (in2 is None):
            return False
        if in1 is not None and mapping[in1] != in2:
            return False
    return True


def oracle_arrow_holds(C: Structure, B: Structure, A: Structure, r: int,
                       d: int = 1) -> bool:
    """Try every one of the r^m colorings of the A-copies in C.

    The arrow holds when each coloring leaves some B-copy whose inner
    A-copies use at most d colors.
    """
    acopies = oracle_embeddings(C, A)
    bcopies = oracle_embeddings(C, B)
    inner = oracle_embeddings(B, A)
    index = {m: i for i, m in enumerate(acopies)}
    members = [[index[tuple(bm[x] for x in am)] for am in inner]
               for bm in bcopies]
    if not bcopies:
        return False
    for colors in itertools.product(range(r), repeat=len(acopies)):
        if not any(len({colors[ci] for ci in mem}) <= d for mem in members):
            return False
    return True


def oracle_joint_holds(nb: int, members, sizes, rs, caps) -> bool:
    """Try every tuple of colorings, one per part: the joint arrow holds
    when each leaves some B-copy within ``caps[p]`` colors in every part p.
    With no B-copy it fails."""
    if nb == 0:
        return False
    parts = range(len(sizes))
    for colors in itertools.product(*(itertools.product(range(r), repeat=n)
                                      for n, r in zip(sizes, rs))):
        if not any(all(len({colors[p][ci] for ci in members[p][bi]}) <= caps[p]
                       for p in parts) for bi in range(nb)):
            return False
    return True


def oracle_search_bad_coloring(members, ncopies: int, r: int, d: int, budget):
    """Reference for ``arrows._search_bad_coloring``: the same DFS written
    with closures, which tests every B-copy through a copy for being one
    member short of complete.

    Complete DFS for a coloring where every B-copy shows > d colors.

    Returns ``(colors or None, stats, exhausted)``.  ``exhausted`` is True
    only when the whole space was covered, so ``None, stats, True`` is a
    proof that no bad coloring exists.  Symmetry over color names is
    broken by first-use order (a fresh color may only be one past the
    largest color used so far), which is sound: badness is invariant
    under renaming colors.
    """
    stats = {"nodes": 0, "prunes": 0, "early_exit": 0}
    nb = len(members)
    if nb == 0:
        # no B-copies at all: every coloring is vacuously bad
        return [0] * ncopies, stats, False
    totals = [len(m) for m in members]
    if r <= d or min(totals) <= d:
        # some B-copy can never show more than d colors
        return None, stats, True

    copy_to_b: list[list[int]] = [[] for _ in range(ncopies)]
    for bi, mem in enumerate(members):
        for ci in mem:
            copy_to_b[ci].append(bi)

    counts = [[0] * r for _ in range(nb)]
    assigned = [0] * nb
    distinct = [0] * nb
    colors = [-1] * ncopies
    safe = 0  # B-copies already past d distinct colors

    def feasible(ci: int, c: int) -> bool:
        for bi in copy_to_b[ci]:
            if assigned[bi] + 1 == totals[bi]:
                extra = 1 if counts[bi][c] == 0 else 0
                if distinct[bi] + extra <= d:
                    return False
        return True

    def do_assign(ci: int, c: int) -> None:
        nonlocal safe
        colors[ci] = c
        for bi in copy_to_b[ci]:
            if counts[bi][c] == 0:
                distinct[bi] += 1
                if distinct[bi] == d + 1:
                    safe += 1
            counts[bi][c] += 1
            assigned[bi] += 1

    def undo_assign(ci: int, c: int) -> None:
        nonlocal safe
        colors[ci] = -1
        for bi in copy_to_b[ci]:
            counts[bi][c] -= 1
            assigned[bi] -= 1
            if counts[bi][c] == 0:
                if distinct[bi] == d + 1:
                    safe -= 1
                distinct[bi] -= 1

    trail = [-1] * ncopies
    next_try = [0] * (ncopies + 1)
    saved_max = [-1] * (ncopies + 1)
    depth = 0
    while True:
        if depth == ncopies:
            return list(colors), stats, False
        advanced = False
        cap = min(r - 1, saved_max[depth] + 1)
        c = next_try[depth]
        while c <= cap:
            if feasible(depth, c):
                do_assign(depth, c)
                stats["nodes"] += 1
                if budget is not None and stats["nodes"] > budget:
                    undo_assign(depth, c)
                    return None, stats, False
                trail[depth] = c
                next_try[depth] = c + 1
                if safe == nb:
                    # every B-copy already refuted; any completion is bad
                    stats["early_exit"] += 1
                    out = [x if x >= 0 else 0 for x in colors]
                    return out, stats, False
                depth += 1
                next_try[depth] = 0
                saved_max[depth] = max(saved_max[depth - 1], c)
                advanced = True
                break
            stats["prunes"] += 1
            c += 1
        if advanced:
            continue
        depth -= 1
        if depth < 0:
            return None, stats, True
        undo_assign(depth, trail[depth])


def oracle_first_bad_draw(members, ncopies: int, r: int, d: int, seed: int,
                          samples: int):
    """Reference for single-arrow sampling: make all ``samples`` seeded
    uniform draws, ``random.Random(seed).randrange(r)`` per copy in index
    order, even past a bad one.

    Returns the first draw under which every B-copy shows more than d
    colors, or None, and the number of draws before it.
    """
    rng = random.Random(seed)
    first, before = None, samples
    for i in range(samples):
        colors = [rng.randrange(r) for _ in range(ncopies)]
        if first is None and all(len({colors[ci] for ci in mem}) > d
                                 for mem in members):
            first, before = colors, i
    return first, before


def oracle_subset_members(acopies, bcopies):
    """Member lists by containment: for each B-copy, the indices of the
    A-copies whose entries all lie among its entries."""
    return tuple(tuple(i for i, t in enumerate(acopies) if set(t) <= set(bt))
                 for bt in bcopies)


def oracle_jep_report(F) -> PropertyReport:
    """The pairwise JEP scan: for each member pair (A, B), the first member
    that hosts both, asked afresh for every pair."""
    rows = []
    for i, A in enumerate(F.members):
        for B in F.members[i:]:
            witness = next((C.name for C in F.members
                            if oracle_embeddings(C, A) and oracle_embeddings(C, B)),
                           None)
            rows.append((A.name, B.name, witness))
    unwitnessed = sum(row[2] is None for row in rows)
    verdict = "PASS" if not unwitnessed else \
        "INCONCLUSIVE" if F.open_window else "FAIL"
    notes = ("missing witnesses may lie beyond the class bound",) \
        if unwitnessed and F.open_window else ()
    return PropertyReport("JEP", verdict, (("members", len(F.members)),
                                           ("size_bound", F.bound)), tuple(rows), notes)


def oracle_ap_report(F, config_bound=None) -> PropertyReport:
    """The per-span AP scan: every span B <-e- A -f-> C over the members up
    to the bound gets its own search for the first member D with
    embeddings g of B and h of C such that g after e equals h after f."""
    cap = config_bound if config_bound is not None else F.bound
    small = F.members_upto(cap)
    embeddings = {}

    def embs(host, pattern):
        if (host, pattern) not in embeddings:
            embeddings[host, pattern] = oracle_embeddings(host, pattern)
        return embeddings[host, pattern]

    def first_amalgam(B, C, e, f):
        for D in F.members:
            glued = {tuple(h[x] for x in f) for h in embs(D, C)}
            if any(tuple(g[x] for x in e) in glued for g in embs(D, B)):
                return D.name
        return None

    spans = 0
    failures = []
    rows = []
    for A in small:
        for B in small:
            for C in small:
                for e in embs(B, A):
                    for f in embs(C, A):
                        spans += 1
                        found = first_amalgam(B, C, e, f)
                        if found is None:
                            failures.append((A.name, B.name, C.name, e, f))
                        elif len(rows) < 50:
                            rows.append((A.name, B.name, C.name, e, f, found))
    if not failures:
        verdict = "PASS"
    else:
        verdict = "INCONCLUSIVE" if F.open_window else "FAIL"
        rows = failures[:10]
    notes = (f"{spans} spans checked",)
    if failures and F.open_window:
        notes += ("missing amalgams may lie beyond the class bound",)
    return PropertyReport("AP", verdict, (("config_bound", cap),
                                          ("size_bound", F.bound)), tuple(rows), notes)


def _dense_ranks(keys) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def oracle_canonical_search(size, rel_items, fn_items, const_items, pointing=()):
    """The canonical search with no automorphism pruning.

    Same refinement, target cell, child order and leaf certificate as
    ``structures.canonical_search``, but every child of every node is
    expanded.  Returns the least leaf certificate and the first labeling
    (in search order) that reaches it.
    """
    pointing = tuple(pointing)
    if size == 0:
        cert = (0, tuple((n, ()) for n, _ in rel_items),
                tuple((n, ()) for n, _ in fn_items), (), pointing)
        return cert, ()

    incidence: list[list] = [[] for _ in range(size)]
    for si, (_, tuples) in enumerate(rel_items):
        for t in tuples:
            ent = (0, si, t)
            for e in set(t):
                incidence[e].append(ent)
    for si, (_, entries) in enumerate(fn_items):
        for args, val in entries:
            ent = (1, si, args + (val,))
            for e in set(args) | {val}:
                incidence[e].append(ent)

    pos_of: list[list[int]] = [[] for _ in range(size)]
    for i, e in enumerate(pointing):
        pos_of[e].append(i)
    const_at: list[list[str]] = [[] for _ in range(size)]
    for sym, e in const_items:
        const_at[e].append(sym)

    init_keys = []
    for e in range(size):
        profile = sorted((kind, si, j)
                         for kind, si, t in incidence[e]
                         for j, x in enumerate(t) if x == e)
        init_keys.append((tuple(pos_of[e]), tuple(const_at[e]), tuple(profile)))

    def refine(colors):
        while True:
            keys = []
            for e in range(size):
                sigs = sorted((kind, si, tuple(colors[x] for x in t),
                               tuple(j for j, x in enumerate(t) if x == e))
                              for kind, si, t in incidence[e])
                keys.append((colors[e], tuple(sigs)))
            new = _dense_ranks(keys)
            if new == colors:
                return colors
            colors = new

    def build_cert(perm):
        rel_sec = tuple(
            (name, tuple(sorted(tuple(perm[x] for x in t) for t in tuples)))
            for name, tuples in rel_items)
        fn_sec = tuple(
            (name, tuple(sorted((tuple(perm[x] for x in args), perm[val])
                                for args, val in entries)))
            for name, entries in fn_items)
        const_sec = tuple(sorted((sym, perm[e]) for sym, e in const_items))
        return (size, rel_sec, fn_sec, const_sec, tuple(perm[e] for e in pointing))

    best = [None, None]

    def rec(colors):
        colors = refine(colors)
        if len(set(colors)) == size:
            cert = build_cert(colors)
            if best[0] is None or cert < best[0]:
                best[0], best[1] = cert, tuple(colors)
            return
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k > 1)
        for e in [e for e in range(size) if colors[e] == target]:
            rec(_dense_ranks([(colors[x], 0 if x == e else 1) for x in range(size)]))

    rec(_dense_ranks(init_keys))
    return best[0], best[1]


def oracle_orderability(F) -> OrderabilityResult:
    """The orientation walk: every choice of one type from each transpose
    class, in ``itertools.product`` order, evaluated on every member by
    ``define_by_type_union``; the first choice that orders every member
    wins.  A type equal to its own transpose refutes first.  ``tried``
    lists the rejected choices."""
    realizer = {}
    for mi, M in enumerate(F.members):
        for t, group in tuples_by_type(M, 2).items():
            a, b = group[0]
            if a != b:
                realizer.setdefault(t, (mi, group[0]))
    transpose = {t: qftp(F.members[mi], (b, a)) for t, (mi, (a, b)) in realizer.items()}
    for t in sorted(realizer, key=lambda t: t.sort_key()):
        if transpose[t] == t:
            mi, pair = realizer[t]
            return OrderabilityResult("NOT-ORDERABLE", (), (
                F.members[mi].name, pair, type_digest(t)), (), (realizer[t],))
    classes = []
    done = set()
    for t in sorted(realizer, key=lambda t: realizer[t]):
        if t not in done:
            done.update((t, transpose[t]))
            classes.append((t, transpose[t]))
    tried = []
    for choice in itertools.product((0, 1), repeat=len(classes)):
        phi = [pair[c] for pair, c in zip(classes, choice)]
        if all(define_by_type_union(M, phi).is_strict_linear_order for M in F.members):
            return OrderabilityResult("ORDERABLE", tuple(phi), None, tuple(tried),
                                      tuple(realizer[t] for t in phi))
        tried.append(choice)
    return OrderabilityResult("NOT-ORDERABLE", (), None, tuple(tried))


def oracle_graphs(n: int) -> list[Structure]:
    """Graphs of sizes 1..n up to isomorphism: every edge set in bit order
    is canonicalised and kept when its certificate is new."""
    members = []
    seen = set()
    for size in range(1, n + 1):
        vertex_pairs = list(itertools.combinations(range(size), 2))
        for bits in range(2 ** len(vertex_pairs)):
            edges = {p for i, p in enumerate(vertex_pairs) if bits >> i & 1}
            sym = edges | {(b, a) for a, b in edges}
            G = Structure(GRAPH_SIGNATURE, size, {"E": sym},
                          name=f"g{size}_{len(members)}")
            cert = canonical_certificate(G)
            if cert not in seen:
                seen.add(cert)
                members.append(canonical_form(G))
    return members

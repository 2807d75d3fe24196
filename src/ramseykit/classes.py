"""Finite classes of structures and their combinatorial properties.

A class here is an explicit finite corpus: member structures in canonical
form, pairwise non-isomorphic, over one signature.  Classes produced by
the built-in generators are windows into infinite families, and the
checks account for that: a missing witness inside a window is
INCONCLUSIVE (the bound may be the only obstruction), while a missing
witness in a closed, explicitly given class is a FAIL.  Ramsey-property
failures are different: they are refutations by exhibited colorings, so
they are reported as FAIL in both cases, as bounded claims whose bounds
the report records.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .arrows import DEFAULT_BUDGET, FAILS, HOLDS, arrow_instance, check_instance, \
    subset_arrow_instance
from .embeddings import automorphism_group, embeds, enumerate_embeddings, \
    iter_embeddings
from .expansions import TypeUnionRelation, define_by_type_union
from .qftypes import QfType, enumerate_qf_copies, qf_copies_within, qftp, \
    tuples_by_type, type_digest
from .structures import InputError, Signature, Structure, canonical_certificate, \
    canonical_form, generated_substructure

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class ClassError(InputError):
    """Malformed class (empty, mixed signatures, bound violations)."""


@dataclass(frozen=True)
class FiniteClass:
    """Canonical members of one signature, no two of one size isomorphic.

    Isomorphic structures have one size, so canonical certificates are
    compared only between members of a shared size.  The member order is
    the builder's: :func:`finite_class`, and so class-file parsing, sorts
    by (size, certificate), while each generator keeps its own (``graphs``:
    the least edge set of each class, in bit order).  So
    ``parse_class_file(serialize_class(graphs(4)))`` lists the members in
    another order, and its ``jep_check`` rows differ from those of
    ``jep_check(graphs(4))``.

    ``open_window`` marks corpora that stand for an infinite family (all
    generated classes do), which softens missing-witness verdicts from
    FAIL to INCONCLUSIVE.
    """

    signature: Signature
    members: tuple[Structure, ...]
    bound: int
    label: str = ""
    open_window: bool = False

    def __post_init__(self) -> None:
        if not self.members:
            raise ClassError("a class needs at least one member")
        sizes = Counter(M.size for M in self.members)
        certs = set()
        for M in self.members:
            if M.signature != self.signature:
                raise ClassError("members must share the class signature")
            if M.size > self.bound:
                raise ClassError(f"member {M.name!r} exceeds the size bound {self.bound}")
            if sizes[M.size] > 1:
                cert = canonical_certificate(M)
                if cert in certs:
                    raise ClassError(f"members must be pairwise non-isomorphic ({M.name!r})")
                certs.add(cert)

    def members_upto(self, size: int) -> tuple[Structure, ...]:
        return tuple(M for M in self.members if M.size <= size)


def finite_class(members, label: str = "", open_window: bool = False,
                 bound: int | None = None) -> FiniteClass:
    """Canonicalize, deduplicate up to isomorphism, and sort the members."""
    pool = list(members)
    if not pool:
        raise ClassError("a class needs at least one member")
    sig = pool[0].signature
    by_cert: dict = {}
    for M in pool:
        if M.signature != sig:
            raise ClassError("members must share one signature")
        by_cert.setdefault(canonical_certificate(M), M)
    canon = [canonical_form(M) for M in by_cert.values()]
    canon.sort(key=lambda M: (M.size, canonical_certificate(M)))
    top = max(M.size for M in canon)
    return FiniteClass(sig, tuple(canon), bound if bound is not None else top,
                       label, open_window)


# -- built-in generators ------------------------------------------------------

LO_SIGNATURE = Signature(relations=(("<", 2),))
GRAPH_SIGNATURE = Signature(relations=(("E", 2),))
ORDERED_GRAPH_SIGNATURE = Signature(relations=(("E", 2), ("<", 2)))
PURE_SIGNATURE = Signature()


def linear_order(n: int, name: str = "") -> Structure:
    return Structure(LO_SIGNATURE, n,
                     {"<": {(i, j) for i in range(n) for j in range(n) if i < j}},
                     name=name or f"LO_{n}")


def pure_set(n: int, name: str = "") -> Structure:
    return Structure(PURE_SIGNATURE, n, name=name or f"P_{n}")


def linear_orders(n: int) -> FiniteClass:
    """LO_1 .. LO_n: a window into the class of finite linear orders."""
    if n < 1:
        raise ClassError("generator bound must be positive")
    return FiniteClass(LO_SIGNATURE, tuple(linear_order(k) for k in range(1, n + 1)),
                       n, f"linear-orders<={n}", open_window=True)


def pure_sets(n: int) -> FiniteClass:
    if n < 1:
        raise ClassError("generator bound must be positive")
    return FiniteClass(PURE_SIGNATURE, tuple(pure_set(k) for k in range(1, n + 1)),
                       n, f"pure-sets<={n}", open_window=True)


def graphs(n: int) -> FiniteClass:
    """All simple undirected graphs up to isomorphism, sizes 1..n.

    Edge sets of each size are walked in bit order (bit i is the i-th
    vertex pair in lexicographic order).  The first edge set of each
    isomorphism class in that order is canonicalised and becomes the
    member; every relabelling of it is then marked seen, so the rest of
    the class is skipped without a search.  Marking costs size! steps per
    class, so the 1,044 classes of size 7 take 5.3 million.
    The class checks run on graphs(4) (18 members) at the full bound: AP
    there scans 25,549 spans but searches for amalgams only once per
    orbit, 1,762 times.  n >= 9 is refused: its seen-table needs 2^36 bytes.
    """
    if not 1 <= n <= 8:
        raise ClassError("graphs are generated for bounds 1..8 only")
    members = []
    for size in range(1, n + 1):
        vertex_pairs = list(itertools.combinations(range(size), 2))
        pair_bit = {p: i for i, p in enumerate(vertex_pairs)}
        # relabelling p sends the edge at bit i to the edge at bit moved[i]
        relabellings = [
            [pair_bit[tuple(sorted((p[a], p[b])))] for a, b in vertex_pairs]
            for p in itertools.permutations(range(size))]
        seen = bytearray(2 ** len(vertex_pairs))
        for bits in range(len(seen)):
            if seen[bits]:
                continue
            on = [i for i in range(len(vertex_pairs)) if bits >> i & 1]
            for moved in relabellings:
                image = 0
                for i in on:
                    image |= 1 << moved[i]
                seen[image] = 1
            edges = [vertex_pairs[i] for i in on]
            sym = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
            G = Structure(GRAPH_SIGNATURE, size, {"E": sym},
                          name=f"g{size}_{len(members)}")
            members.append(canonical_form(G))
    return FiniteClass(GRAPH_SIGNATURE, tuple(members), n, f"graphs<={n}",
                       open_window=True)


def ordered_graphs(n: int) -> FiniteClass:
    """Graphs carrying a linear order; rigid, so no isomorphism dedup needed."""
    if n < 1:
        raise ClassError("generator bound must be positive")
    members = []
    for size in range(1, n + 1):
        lt = {(i, j) for i in range(size) for j in range(size) if i < j}
        vertex_pairs = list(itertools.combinations(range(size), 2))
        for bits in range(2 ** len(vertex_pairs)):
            edges = {p for i, p in enumerate(vertex_pairs) if bits >> i & 1}
            sym = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
            members.append(Structure(ORDERED_GRAPH_SIGNATURE, size,
                                     {"E": sym, "<": lt},
                                     name=f"og{size}_{bits}"))
    return finite_class(members, f"ordered-graphs<={n}", open_window=True, bound=n)


GENERATORS = {
    "linear-orders": linear_orders,
    "pure-sets": pure_sets,
    "graphs": graphs,
    "ordered-graphs": ordered_graphs,
}


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one class-level property check.

    ``rows`` carry one tuple of primitives per checked configuration
    (enough to re-verify a FAIL without re-running the search); ``bounds``
    records every bound the verdict is relative to.
    """

    property: str
    verdict: str
    bounds: tuple[tuple[str, int], ...]
    rows: tuple[tuple, ...]
    notes: tuple[str, ...] = ()


# -- hereditary property ------------------------------------------------------


def hp_check(F: FiniteClass) -> PropertyReport:
    """Is every (nonempty, generated) substructure of a member a member?"""
    certs = {canonical_certificate(M) for M in F.members}
    rows = []
    missing = []
    checked = 0
    for M in F.members:
        seen_closures = set()
        for k in range(1, M.size + 1):
            for points in itertools.combinations(range(M.size), k):
                sub, closure = generated_substructure(M, points)
                if closure in seen_closures:
                    continue
                seen_closures.add(closure)
                checked += 1
                if canonical_certificate(sub) not in certs:
                    missing.append((M.name, closure, sub.size))
    verdict = PASS if not missing else FAIL
    rows = tuple(missing[:10]) if missing else (("substructures_checked", checked),)
    return PropertyReport("HP", verdict, (("members", len(F.members)),
                                          ("size_bound", F.bound)), rows)


# -- joint embedding ----------------------------------------------------------


def jep_check(F: FiniteClass) -> PropertyReport:
    """For every member pair, find one member embedding both.

    One table records which members host each member, from n^2
    ``embeds`` queries over n members; the witness of a pair (A, B) is the
    first member, in member order, that hosts both.
    """
    hosts = [frozenset(ci for ci, C in enumerate(F.members) if embeds(C, A))
             for A in F.members]
    rows = []
    unwitnessed = 0
    for i, A in enumerate(F.members):
        for j in range(i, len(F.members)):
            both = hosts[i] & hosts[j]
            witness = F.members[min(both)].name if both else None
            rows.append((A.name, F.members[j].name, witness))
            if witness is None:
                unwitnessed += 1
    if unwitnessed == 0:
        verdict = PASS
    else:
        verdict = INCONCLUSIVE if F.open_window else FAIL
    notes = ()
    if unwitnessed and F.open_window:
        notes = ("missing witnesses may lie beyond the class bound",)
    return PropertyReport("JEP", verdict, (("members", len(F.members)),
                                           ("size_bound", F.bound)), tuple(rows), notes)


# -- amalgamation -------------------------------------------------------------


def _first_amalgam(members, B: Structure, C: Structure, e, f) -> str | None:
    """Name of the first member D with g: B -> D, h: C -> D, g∘e = h∘f.

    h is found by pinning its values on the image of f, so each g costs
    one constrained embedding search.
    """
    for D in members:
        for g in iter_embeddings(D, B):
            if embeds(D, C, fixed={fa: g.mapping[ea] for ea, fa in zip(e, f)}):
                return D.name
    return None


def _span_orbit(e, f, aut_a, aut_b, aut_c) -> set:
    """The spans (β∘e∘α, γ∘f∘α) over automorphisms α, β, γ of A, B, C,
    all as mapping tuples.

    For each α the orbit gains every pair from {β∘e∘α} x {γ∘f∘α}; many α
    give the same two sets, and those pairs are added once.
    """
    orbit = set()
    seen = set()
    for alpha in aut_a:
        ea = tuple(e[x] for x in alpha)
        fa = tuple(f[x] for x in alpha)
        sides = (frozenset(tuple(b[x] for x in ea) for b in aut_b),
                 frozenset(tuple(c[x] for x in fa) for c in aut_c))
        if sides not in seen:
            seen.add(sides)
            orbit.update(itertools.product(*sides))
    return orbit


def ap_check(F: FiniteClass, config_bound: int | None = None) -> PropertyReport:
    """Amalgamate every span B <-e- A -f-> C over the class members.

    For each configuration the search looks for a member D and embeddings
    g: B -> D, h: C -> D with g after e equal to h after f.  The search
    runs once per orbit of spans under Aut(A) x Aut(B) x Aut(C), acting
    by (e, f) -> (β∘e∘α, γ∘f∘α): if g, h amalgamate (e, f) in D, then
    g∘β⁻¹, h∘γ⁻¹ amalgamate (β∘e∘α, γ∘f∘α) in the same D, and back, so
    the members that amalgamate a span, and the first of them that a row
    records, are the same across its orbit.  Raises :class:`ClassError`
    when the bound excludes every member, which would leave no span.
    """
    cap = config_bound if config_bound is not None else F.bound
    small = F.members_upto(cap)
    if not small:
        raise ClassError("config bound excludes every member")
    auts = [[a.mapping for a in automorphism_group(M).elements] for M in small]
    spans = 0
    failures = []
    rows = []
    for ai, A in enumerate(small):
        into = [[e.mapping for e in enumerate_embeddings(X, A)] for X in small]
        for bi, B in enumerate(small):
            if not into[bi]:
                continue
            for ci, C in enumerate(small):
                amalgam: dict = {}
                for e in into[bi]:
                    for f in into[ci]:
                        spans += 1
                        if (e, f) not in amalgam:
                            found = _first_amalgam(F.members, B, C, e, f)
                            for span in _span_orbit(e, f, auts[ai], auts[bi], auts[ci]):
                                amalgam[span] = found
                        found = amalgam[e, f]
                        if found is None:
                            failures.append((A.name, B.name, C.name, e, f))
                        elif len(rows) < 50:
                            rows.append((A.name, B.name, C.name, e, f, found))
    if not failures:
        verdict = PASS
    else:
        verdict = INCONCLUSIVE if F.open_window else FAIL
        rows = failures[:10]
    notes = (f"{spans} spans checked",)
    if failures and F.open_window:
        notes += ("missing amalgams may lie beyond the class bound",)
    return PropertyReport("AP", verdict, (("config_bound", cap),
                                          ("size_bound", F.bound)), tuple(rows), notes)


# -- Ramsey properties --------------------------------------------------------


def _scan_witnesses(questions, candidates, budget):
    """Rows and verdict shared by the ERP and f-ERP scans.

    Each question is ``(head, build)``: its row prefix and the builder of
    its arrow instance over one candidate.  Its witness is the first
    candidate whose arrow is decided to hold, and its row is ``head +
    (witness name or None, per-candidate verdicts)``.  A question without
    a witness is refuted unless some candidate ran out of budget.  Returns
    ``(verdict, rows, index of the first refuted question or None)``: FAIL
    if a question is refuted, else INCONCLUSIVE if a candidate ran out of
    budget, else PASS.
    """
    rows = []
    refuted = None
    saw_budget = False
    for qi, (head, build) in enumerate(questions):
        verdicts = []
        witness = None
        for C in candidates:
            verdicts.append(check_instance(build(C), "decide", budget=budget).verdict)
            if verdicts[-1] == HOLDS:
                witness = C.name
                break
        rows.append(head + (witness, tuple(verdicts)))
        if witness is None:
            if INCONCLUSIVE in verdicts:
                saw_budget = True
            elif refuted is None:
                refuted = qi
    verdict = FAIL if refuted is not None else INCONCLUSIVE if saw_budget else PASS
    return verdict, tuple(rows), refuted


def erp_check(F: FiniteClass, pair_bound: int, witness_bound: int, *,
              budget: int | None = DEFAULT_BUDGET) -> PropertyReport:
    """Embedding Ramsey property over member pairs, two colors.

    Every (A, B) with A embeddable in B and |B| <= pair_bound needs some
    member C with |C| <= witness_bound where C -> (B)^A_2 is decided to
    hold.  FAIL is the bounded claim that for some pair every candidate
    was refuted outright; a budget-starved candidate downgrades the
    verdict to INCONCLUSIVE instead.
    """
    if pair_bound < min(M.size for M in F.members):
        raise ClassError("pair bound excludes every member")
    if witness_bound < pair_bound:
        raise ClassError("witness bound below pair bound leaves pairs unwitnessable")
    pairs = [(A, B) for B in F.members_upto(pair_bound)
             for A in F.members_upto(B.size) if embeds(B, A)]
    verdict, rows, refuted = _scan_witnesses(
        (((A.name, B.name), functools.partial(arrow_instance, B=B, A=A, r=2))
         for A, B in pairs),
        F.members_upto(witness_bound), budget)
    notes = ()
    if refuted is not None:
        A = pairs[refuted][0]
        aut = len(automorphism_group(A))
        if aut > 1:
            notes = (f"|Aut({A.name})| = {aut} > 1 obstructs two-coloring",)
    return PropertyReport("ERP", verdict, (("pair_bound", pair_bound),
                                           ("witness_bound", witness_bound)),
                          rows, notes)


def f_erp_check(F: FiniteClass, pair_bound: int, witness_bound: int, *,
                budget: int | None = DEFAULT_BUDGET) -> PropertyReport:
    """Finitary Ramsey property: A inside B range over subsets of members.

    Subset pairs are deduplicated by the type of B̄ followed by Ā (equal
    types give pointwise-transported arrow questions), and candidates are
    whole member domains: enlarging the ground set of a subset arrow
    preserves a positive answer, so full domains dominate all subsets.
    """
    if witness_bound < 1:
        raise ClassError("witness bound must be positive")
    seen: dict[QfType, tuple] = {}
    for M in F.members:
        elems = range(M.size)
        for bsize in range(0, min(pair_bound, M.size) + 1):
            for bbar in itertools.combinations(elems, bsize):
                for asize in range(0, bsize + 1):
                    for abar in itertools.combinations(bbar, asize):
                        key = qftp(M, bbar + abar)
                        if key not in seen:
                            seen[key] = (M, bbar, abar)
    questions = (((M.name, bbar, abar),
                  functools.partial(subset_arrow_instance, a_type=qftp(M, abar),
                                    b_type=qftp(M, bbar), r=2))
                 for M, bbar, abar in (seen[key] for key in
                                       sorted(seen, key=lambda t: t.sort_key())))
    verdict, rows, _ = _scan_witnesses(questions, F.members_upto(witness_bound),
                                       budget)
    return PropertyReport("f-ERP", verdict, (("pair_bound", pair_bound),
                                             ("witness_bound", witness_bound)),
                          rows)


def rigidity_scan(F: FiniteClass) -> tuple[Structure, ...]:
    """Members with a nontrivial automorphism group."""
    return tuple(M for M in F.members if len(automorphism_group(M)) > 1)


# -- orderability -------------------------------------------------------------


@dataclass(frozen=True)
class OrderabilityResult:
    """Search outcome over union-of-binary-types order definitions.

    ORDERABLE carries the found type set and each type's first realizer
    (member position, pair), in member and then lexicographic order.
    NOT-ORDERABLE carries a symmetric-type witness (a distinct pair whose
    type is its own transpose is never ordered) and its realizer, or in
    ``tried`` the search's dead ends, in order: ``(bits, member position,
    (a, b, c))``, where orientation prefix ``bits`` makes a->b->c->a.
    """

    verdict: str  # ORDERABLE | NOT-ORDERABLE
    types: tuple[QfType, ...]
    witness: tuple | None
    tried: tuple[tuple, ...]
    realizers: tuple[tuple[int, tuple[int, int]], ...] = ()


def orientation_classes(F: FiniteClass):
    """``(realizer, classes, orient)``: each off-diagonal pair type's first
    realizer, the classes ``(t, transpose of t)`` in order of first
    realization, and ``orient[t] = (i, o)`` when t is entry o of class i."""
    realizer: dict[QfType, tuple[int, tuple[int, int]]] = {}
    for mi, M in enumerate(F.members):
        for t, ((a, b), *_) in tuples_by_type(M, 2).items():
            if a != b:
                realizer.setdefault(t, (mi, (a, b)))
    classes, orient = [], {}
    for t in sorted(realizer, key=realizer.__getitem__):
        if t not in orient:
            mi, (a, b) = realizer[t]
            u = qftp(F.members[mi], (b, a))
            orient[u], orient[t] = (len(classes), 1), (len(classes), 0)
            classes.append((t, u))
    return realizer, classes, orient


def orderability_search(F: FiniteClass) -> OrderabilityResult:
    """Hunt a set of binary types whose union linearly orders every member.

    A realized type equal to its own transpose kills every candidate at
    once.  Otherwise a valid set picks one orientation of each transpose
    class, and the union is a tournament on every member: an order unless
    some triple is a 3-cycle.  Each 3-cycle is checked when its highest
    class is set, and the search backtracks over the classes, entry 0
    first, so an order it finds is the lexicographically least one.
    """
    realizer, classes, orient = orientation_classes(F)
    for t in sorted((t for t, u in classes if t == u), key=lambda t: t.sort_key()):
        mi, pair = realizer[t]
        return OrderabilityResult("NOT-ORDERABLE", (), (
            F.members[mi].name, pair, type_digest(t)), (), (realizer[t],))
    closing = [[] for _ in classes]  # closing[i]: the 3-cycles whose top class is i
    for mi, M in enumerate(F.members):
        pick = {p: orient.get(t) for t, ps in tuples_by_type(M, 2).items() for p in ps}
        for a, b, c in itertools.combinations(range(M.size), 3):
            picks = {pick[a, b], pick[b, c], pick[c, a]}  # reversed, each class flips
            if len({i for i, _ in picks}) == len(picks):
                closing[max(picks)[0]] += [(picks, mi, (a, b, c)),
                                           ({(i, 1 - o) for i, o in picks}, mi, (a, c, b))]
    bits, tried = [], []
    while len(bits) < len(classes):
        bits.append(0)
        while dead := next(((mi, cycle) for picks, mi, cycle in closing[len(bits) - 1]
                            if all(bits[i] == o for i, o in picks)), None):
            tried.append(("".join(map(str, bits)), *dead))
            while bits and bits[-1]:
                bits.pop()
            if not bits:
                return OrderabilityResult("NOT-ORDERABLE", (), None, tuple(tried))
            bits[-1] = 1
    phi = tuple(pair[o] for pair, o in zip(classes, bits))
    return OrderabilityResult("ORDERABLE", phi, None, tuple(tried),
                              tuple(realizer[t] for t in phi))


def order_every_member(F: FiniteClass, types) -> tuple[TypeUnionRelation, ...]:
    """Evaluate one type set on every member (certificate re-verification)."""
    return tuple(define_by_type_union(M, types) for M in F.members)


# -- elf minimization ---------------------------------------------------------


def elf_minimize(B: Structure, abar) -> tuple[int, ...]:
    """Smallest point set of B carrying every qf-copy of ā.

    The union of the copy supports: dropping any of its points loses the
    copy that contributed it, so the union is inclusion-minimal with
    qf_copies_within equal to the full copy list (which is re-asserted).
    """
    copies = enumerate_qf_copies(B, abar)
    support = sorted({x for c in copies for x in c})
    assert qf_copies_within(B, tuple(abar), support) == copies
    return tuple(support)

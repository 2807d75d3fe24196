"""Shared hypothesis strategies and small fixture builders."""

import itertools

from hypothesis import strategies as st

from ramseykit import Signature, Structure, finite_class

GRAPH_SIG = Signature((("E", 2),), (), ())
TWO_REL_SIG = Signature((("E", 2), ("F", 2)), (), ())
FN_SIG = Signature((("E", 2),), (("s", 1),), ())
CONST_SIG = Signature((("E", 2),), (("s", 1),), ("e",))
MIXED_SIG = Signature((("P", 1), ("R", 2), ("T", 3)), (), ())
BINARY_UNARY_SIG = Signature((("E", 2), ("P", 1)), (), ())


def graph(n, edges, name=""):
    """Undirected graph: edges stored symmetrically."""
    table = set()
    for a, b in edges:
        table.add((a, b))
        table.add((b, a))
    return Structure(GRAPH_SIG, n, {"E": frozenset(table)}, {}, {}, name=name)


@st.composite
def binary_structures(draw, min_size=1, max_size=5, signature=TWO_REL_SIG):
    """Random structures over up to two binary relations."""
    n = draw(st.integers(min_size, max_size))
    rels = {}
    pairs = list(itertools.product(range(n), repeat=2))
    for sym, _ in signature.relations:
        rels[sym] = frozenset(draw(st.sets(st.sampled_from(pairs))))
    return Structure(signature, n, rels, {}, {})


@st.composite
def functional_structures(draw, min_size=1, max_size=5, constants=False):
    """Random structures with one binary relation and one partial unary map."""
    sig = CONST_SIG if constants else FN_SIG
    n = draw(st.integers(min_size, max_size))
    pairs = list(itertools.product(range(n), repeat=2))
    rels = {"E": frozenset(draw(st.sets(st.sampled_from(pairs))))}
    dom = draw(st.sets(st.integers(0, n - 1)))
    fns = {"s": {(i,): draw(st.integers(0, n - 1)) for i in dom}}
    consts = {"e": draw(st.integers(0, n - 1))} if constants else {}
    return Structure(sig, n, rels, fns, consts)


@st.composite
def pointed_pairs(draw, max_size=4, max_tuple=3, structures=None):
    """Two structures plus a tuple into each, for type comparison tests."""
    source = structures if structures is not None else binary_structures(max_size=max_size)
    M1 = draw(source)
    M2 = draw(source)
    k = draw(st.integers(1, max_tuple))
    t1 = tuple(draw(st.integers(0, M1.size - 1)) for _ in range(k))
    t2 = tuple(draw(st.integers(0, M2.size - 1)) for _ in range(k))
    return M1, t1, M2, t2


@st.composite
def mixed_arity_tuples(draw, max_size=5, max_tuple=4):
    """A relational constant-free structure with arities 1-3, and a tuple
    into it (possibly empty, entries may repeat)."""
    n = draw(st.integers(1, max_size))
    rels = {}
    for sym, ar in MIXED_SIG.relations:
        rows = list(itertools.product(range(n), repeat=ar))
        rels[sym] = draw(st.sets(st.sampled_from(rows), max_size=12))
    M = Structure(MIXED_SIG, n, rels, {}, {})
    k = draw(st.integers(0, max_tuple))
    return M, tuple(draw(st.integers(0, n - 1)) for _ in range(k))


@st.composite
def oriented_structures(draw, min_size=1, max_size=4):
    """E holds exactly one way on each pair of distinct points, loops at
    will, and a unary P: no pair type is its own transpose, so orderability
    is settled by the orientation search, not the symmetric-type check."""
    n = draw(st.integers(min_size, max_size))
    arcs = {(a, b) if draw(st.booleans()) else (b, a)
            for a, b in itertools.combinations(range(n), 2)}
    arcs |= {(a, a) for a in draw(st.sets(st.integers(0, n - 1)))}
    unary = {(a,) for a in draw(st.sets(st.integers(0, n - 1)))}
    return Structure(BINARY_UNARY_SIG, n, {"E": arcs, "P": unary}, {}, {})


@st.composite
def binary_unary_structures(draw, max_size=4):
    """Any E and any unary P: most of these realize a symmetric pair type."""
    n = draw(st.integers(1, max_size))
    pairs = list(itertools.product(range(n), repeat=2))
    arcs = draw(st.sets(st.sampled_from(pairs)))
    unary = {(a,) for a in draw(st.sets(st.integers(0, n - 1)))}
    return Structure(BINARY_UNARY_SIG, n, {"E": arcs, "P": unary}, {}, {})


def coloured_class(colours, upto, relation, oriented):
    """Every structure on 1..upto points whose points each lie in exactly
    one of the unary relations P0, P1, ..., one per colour, and whose binary
    ``relation`` holds one way on each pair of distinct points: a < b, or,
    if ``oriented``, every choice of direction; up to isomorphism."""
    sig = Signature(((relation, 2),) + tuple((f"P{c}", 1) for c in range(colours)),
                    (), ())
    members = []
    for size in range(1, upto + 1):
        pairs = list(itertools.combinations(range(size), 2))
        for flips in itertools.product((False, True) if oriented else (False,),
                                       repeat=len(pairs)):
            arcs = {(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)}
            for paint in itertools.product(range(colours), repeat=size):
                rels = {f"P{c}": {(x,) for x in range(size) if paint[x] == c}
                        for c in range(colours)}
                rels[relation] = arcs
                members.append(Structure(sig, size, rels, {}, {},
                                         name=f"m{len(members)}"))
    return finite_class(members)

"""Shared hypothesis strategies and small fixture builders."""

import itertools

from hypothesis import strategies as st

from ramseykit import Signature, Structure

GRAPH_SIG = Signature((("E", 2),), (), ())
TWO_REL_SIG = Signature((("E", 2), ("F", 2)), (), ())
FN_SIG = Signature((("E", 2),), (("s", 1),), ())
CONST_SIG = Signature((("E", 2),), (("s", 1),), ("e",))
MIXED_SIG = Signature((("P", 1), ("R", 2), ("T", 3)), (), ())


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

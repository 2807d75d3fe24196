"""Structures: validation, closure, canonical labeling, isomorphism."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (Signature, SignatureError, SignatureMismatch,
                       Structure, StructureError, canonical_certificate,
                       canonical_form, generated_substructure, is_isomorphic,
                       linear_order, pure_set, substructure_closure)
from ramseykit.structures import canonical_search, structure_tables

from conftest import (CONST_SIG, FN_SIG, binary_structures,
                      functional_structures, graph, mixed_arity_tuples)
from oracles import oracle_canonical_search, oracle_isomorphic


def successor_chain(n: int, defined_upto: int) -> Structure:
    return Structure(FN_SIG, n, {},
                     {"s": {(i,): i + 1 for i in range(defined_upto)}}, {})


class TestSignature:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(SignatureError):
            Signature((("E", 2), ("E", 2)), (), ())

    def test_zero_arity_rejected(self):
        with pytest.raises(SignatureError):
            Signature((("E", 0),), (), ())

    def test_symbols_sorted(self):
        sig = Signature((("R", 2), ("E", 1)), (), ())
        assert sig.relation_names == ("E", "R")


class TestStructureValidation:
    def test_out_of_range_tuple(self):
        sig = Signature((("E", 2),), (), ())
        with pytest.raises(StructureError):
            Structure(sig, 2, {"E": {(0, 5)}}, {}, {})

    def test_arity_mismatch(self):
        sig = Signature((("E", 2),), (), ())
        with pytest.raises(StructureError):
            Structure(sig, 3, {"E": {(0, 1, 2)}}, {}, {})

    def test_unknown_symbol(self):
        sig = Signature((("E", 2),), (), ())
        with pytest.raises(SignatureError):
            Structure(sig, 2, {"F": {(0, 1)}}, {}, {})

    def test_missing_constant(self):
        sig = Signature((), (), ("e",))
        with pytest.raises(StructureError):
            Structure(sig, 2, {}, {}, {})

    def test_partial_functions_allowed(self):
        M = successor_chain(10, 9)
        assert M.fn_value("s", (8,)) == 9
        assert M.fn_value("s", (9,)) is None

    def test_name_not_in_equality(self):
        a = linear_order(3, "one")
        b = linear_order(3, "two")
        assert a == b and hash(a) == hash(b)


class TestClosure:
    def test_successor_tail(self):
        M = successor_chain(10, 9)
        assert substructure_closure(M, {7}) == (7, 8, 9)

    def test_constants_always_included(self):
        sig = Signature((), (), ("e",))
        M = Structure(sig, 3, {}, {}, {"e": 2})
        assert substructure_closure(M, set()) == (2,)

    def test_generated_relabels_in_order(self):
        M = successor_chain(10, 9)
        sub, inclusion = generated_substructure(M, {7})
        assert inclusion == (7, 8, 9)
        assert sub.size == 3
        assert sub.fn_value("s", (0,)) == 1
        assert sub.fn_value("s", (2,)) is None


class TestCanonical:
    def test_idempotent_on_fixtures(self):
        for M in (linear_order(4), pure_set(3), graph(4, [(0, 1), (1, 2)])):
            cf = canonical_form(M)
            assert canonical_form(cf) == cf

    @settings(max_examples=150, deadline=None)
    @given(binary_structures(max_size=5))
    def test_idempotent(self, M):
        cf = canonical_form(M)
        assert canonical_form(cf) == cf

    @settings(max_examples=80, deadline=None)
    @given(binary_structures(max_size=4), st.randoms(use_true_random=False))
    def test_relabel_invariant(self, M, rng):
        perm = list(range(M.size))
        rng.shuffle(perm)
        rels = {sym: {tuple(perm[x] for x in t) for t in M.rel_tuples(sym)}
                for sym in M.signature.relation_names}
        relabeled = Structure(M.signature, M.size, rels, {}, {})
        assert canonical_certificate(relabeled) == canonical_certificate(M)
        assert canonical_form(relabeled) == canonical_form(M)

    @settings(max_examples=60, deadline=None)
    @given(functional_structures(max_size=4, constants=True))
    def test_idempotent_with_functions(self, M):
        cf = canonical_form(M)
        assert canonical_form(cf) == cf


class TestIsomorphism:
    def test_signature_mismatch_distinct_error(self):
        a = linear_order(2)
        b = pure_set(2)
        with pytest.raises(SignatureMismatch):
            is_isomorphic(a, b)

    def test_path_not_star(self):
        p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
        star = graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_isomorphic(p4, star)
        assert is_isomorphic(p4, graph(4, [(2, 0), (0, 1), (1, 3)]))

    @settings(max_examples=80, deadline=None)
    @given(binary_structures(max_size=4), binary_structures(max_size=4))
    def test_matches_oracle(self, M1, M2):
        assert is_isomorphic(M1, M2) == oracle_isomorphic(M1, M2)


@st.composite
def searched_inputs(draw):
    """A relational, partial-function or constant structure and a pointing
    (empty for an unpointed search; entries may repeat)."""
    M = draw(st.one_of(mixed_arity_tuples(max_size=6, max_tuple=0).map(lambda d: d[0]),
                       binary_structures(max_size=6),
                       functional_structures(max_size=6),
                       functional_structures(max_size=6, constants=True)))
    pointing = tuple(draw(st.lists(st.integers(0, M.size - 1), max_size=3))) \
        if M.size else ()
    return M, pointing


def disjoint_copies(M: Structure, k: int) -> Structure:
    """k disjoint copies of a constant-free structure."""
    n = M.size
    rels = {sym: {tuple(x + i * n for x in t) for i in range(k) for t in M.rel_tuples(sym)}
            for sym in M.signature.relation_names}
    fns = {sym: {tuple(x + i * n for x in args): v + i * n
                 for i in range(k) for args, v in M.fn_entries(sym)}
           for sym in M.signature.function_names}
    return Structure(M.signature, n * k, rels, fns, {})


def complete_graph(n: int) -> Structure:
    return graph(n, itertools.combinations(range(n), 2))


def cycles(*lengths: int) -> Structure:
    """Disjoint cycles; of unequal lengths they are all 2-regular, so colour
    refinement leaves cells that mix non-equivalent vertices."""
    edges, offset = [], 0
    for m in lengths:
        edges += [(offset + i, offset + (i + 1) % m) for i in range(m)]
        offset += m
    return graph(offset, edges)


def function_cycle(n: int) -> Structure:
    return Structure(FN_SIG, n, {}, {"s": {(i,): (i + 1) % n for i in range(n)}}, {})


SYMMETRIC = (
    [("pure", n, pure_set(n)) for n in range(0, 8)]
    + [("complete", n, complete_graph(n)) for n in range(1, 7)]
    + [("copies", f"{k}xK{m}", disjoint_copies(complete_graph(m), k))
       for k, m in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4))]
    + [("copies", "3xP3", disjoint_copies(graph(3, [(0, 1), (1, 2)]), 3))]
    + [("cycles", "+".join(map(str, ls)), cycles(*ls))
       for ls in ((4, 4), (5, 5), (3, 4), (4, 3), (3, 5), (3, 3, 4), (4, 3, 3))]
    + [("copies", "3xs-cycle2", disjoint_copies(function_cycle(2), 3)),
       ("copies", "2xs-cycle3", disjoint_copies(function_cycle(3), 2)),
       ("constant", "pure+e", Structure(CONST_SIG, 6, {}, {}, {"e": 2}))]
)


class TestPrunedSearch:
    """Automorphism pruning skips only subtrees that are images of explored
    ones, so the search returns the unpruned search's certificate and the
    same first labeling that reaches it."""

    @staticmethod
    def both(M, pointing=()):
        tables = structure_tables(M)
        return (canonical_search(M.size, *tables, pointing),
                oracle_canonical_search(M.size, *tables, pointing))

    @settings(max_examples=400, deadline=None)
    @given(searched_inputs())
    def test_matches_unpruned_search(self, data):
        M, pointing = data
        pruned, unpruned = self.both(M, pointing)
        assert pruned == unpruned

    @pytest.mark.parametrize("kind,label,M", SYMMETRIC,
                             ids=[f"{k}-{l}" for k, l, _ in SYMMETRIC])
    def test_matches_unpruned_search_on_symmetric_inputs(self, kind, label, M):
        pointings = [()]
        if M.size:
            pointings += [(0,), (M.size - 1, 0), (1 % M.size, 1 % M.size)]
        for pointing in pointings:
            pruned, unpruned = self.both(M, pointing)
            assert pruned == unpruned, pointing

    def test_large_pure_set(self):
        cert, labeling = canonical_search(12, (), (), (), (3, 3, 7))
        assert cert == (12, (), (), (), (10, 10, 11))
        assert sorted(labeling) == list(range(12))
        assert canonical_certificate(pure_set(12)) == (12, (), (), (), ())

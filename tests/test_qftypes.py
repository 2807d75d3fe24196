"""Quantifier-free types: oracle equivalence, kinds, copies, digests."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (Structure, copies_of_type,
                       enumerate_qf_copies, induced_type, linear_order,
                       pure_set, qf_copies_within, qftp, tuples_by_type,
                       type_digest)
from ramseykit import qftypes
from ramseykit.structures import canonical_search, induced_substructure_tables

from conftest import (FN_SIG, MIXED_SIG, binary_structures, functional_structures,
                      graph, mixed_arity_tuples, pointed_pairs)
from oracles import oracle_generated_qftp_equal, oracle_induced_qftp_equal


@st.composite
def copy_queries(draw):
    """A host M, a source S over M's signature (relational, with a partial
    function, or with a constant too) with a tuple src into S (entries may
    repeat), an injective tuple abar into M, and an optional ground set."""
    kind = draw(st.sampled_from(("relational", "functions", "constants")))
    if kind == "relational":
        structures = mixed_arity_tuples(max_size=4, max_tuple=0).map(lambda d: d[0])
    else:
        structures = functional_structures(max_size=4, constants=kind == "constants")
    M, S = draw(structures), draw(structures)
    src = tuple(draw(st.lists(st.integers(0, S.size - 1), max_size=3)))
    abar = tuple(draw(st.permutations(range(M.size)))[:draw(st.integers(0, 3))])
    ground = draw(st.none() | st.sets(st.integers(0, M.size - 1)))
    return M, S, src, abar, ground


def oracle_copies(S, src, M, ground=None):
    """Injective tuples of M with the type of src in S, by a scan of all
    permutations (lexicographic) and the brute-force type oracle."""
    points = range(M.size) if ground is None else sorted(ground)
    return [p for p in itertools.permutations(points, len(src))
            if oracle_generated_qftp_equal(S, src, M, p)]


def successor_chain(n: int) -> Structure:
    return Structure(FN_SIG, n, {},
                     {"s": {(i,): i + 1 for i in range(n - 1)}}, {})


class TestGeneratedTypes:
    def test_order_distinguishes_pairs(self):
        lo = linear_order(4)
        assert qftp(lo, (0, 2)) == qftp(lo, (1, 3))
        assert qftp(lo, (0, 2)) != qftp(lo, (2, 0))

    def test_pure_sets_have_one_pair_type(self):
        p = pure_set(4)
        assert qftp(p, (0, 1)) == qftp(p, (3, 2))
        assert qftp(p, (0, 0)) != qftp(p, (0, 1))

    def test_cross_structure_comparison(self):
        assert qftp(linear_order(3), (0, 1)) == qftp(linear_order(7), (2, 5))

    def test_closure_matters_for_generated_kind(self):
        # 0 generates the whole chain; 2 only its tail
        c = successor_chain(3)
        assert qftp(c, (0,)) != qftp(c, (2,))

    @settings(max_examples=150, deadline=None)
    @given(pointed_pairs(max_size=4))
    def test_matches_pointed_isomorphism_oracle(self, data):
        M1, t1, M2, t2 = data
        assert (qftp(M1, t1) == qftp(M2, t2)) == \
            oracle_generated_qftp_equal(M1, t1, M2, t2)

    @settings(max_examples=60, deadline=None)
    @given(pointed_pairs(max_size=4, structures=functional_structures(max_size=4)))
    def test_matches_oracle_with_functions(self, data):
        M1, t1, M2, t2 = data
        assert (qftp(M1, t1) == qftp(M2, t2)) == \
            oracle_generated_qftp_equal(M1, t1, M2, t2)


class TestDirectCertificate:
    """The relational constant-free path writes the certificate without a
    search; it must equal the canonical search on the same pointed input."""

    @staticmethod
    def searched_cert(M, abar):
        size, rels, fns, consts, old2new = induced_substructure_tables(M, set(abar))
        pointing = tuple(old2new[x] for x in abar)
        return canonical_search(size, rels, fns, consts, pointing)[0]

    @settings(max_examples=300, deadline=None)
    @given(mixed_arity_tuples())
    def test_equals_canonical_search(self, data):
        M, abar = data
        assert qftp(M, abar).cert == self.searched_cert(M, abar)

    def test_empty_and_repeated_tuples(self):
        M = Structure(MIXED_SIG, 3, {"P": {(1,)}, "R": {(1, 1), (0, 1)},
                                     "T": {(1, 0, 1), (2, 2, 2)}}, {}, {})
        for abar in ((), (1, 1), (1, 0, 1, 1), (2, 2, 2), (2, 0, 1, 0)):
            assert qftp(M, abar).cert == self.searched_cert(M, abar), abar
        assert qftp(M, ()).cert == (0, (("P", ()), ("R", ()), ("T", ())), (), (), ())


class TestInterning:
    def test_equal_types_are_one_object(self):
        lo = linear_order(5)
        assert qftp(lo, (0, 2)) is qftp(lo, (1, 3))
        assert qftp(lo, (0, 2)) is not qftp(lo, (2, 0))
        chain = successor_chain(4)
        assert qftp(chain, (1, 0)) is qftp(chain, (1, 0))

    @settings(max_examples=80, deadline=None)
    @given(mixed_arity_tuples(max_size=4, max_tuple=2))
    def test_interned_within_a_structure(self, data):
        M, _ = data
        seen = {}
        for k in (1, 2):
            for abar in itertools.product(range(M.size), repeat=k):
                t = qftp(M, abar)
                assert seen.setdefault(t, t) is t

    def test_range_checked_after_the_cache_is_warm(self):
        lo = linear_order(3)
        warm = {abar: qftp(lo, abar)
                for abar in itertools.product(range(3), repeat=2)}
        for bad in ((0, 3), (3, 0), (-1, 1), [0, 5], (7,)):
            with pytest.raises(ValueError):
                qftp(lo, bad)
        assert qftp(lo, [0, 1]) is warm[(0, 1)]


class TestInducedTypes:
    def test_kinds_never_compare_equal(self):
        lo = linear_order(3)
        assert qftp(lo, (0, 1)) != induced_type(lo, (0, 1))

    def test_agree_on_relational_structures(self):
        lo = linear_order(4)
        pairs = [(a, b) for a in range(4) for b in range(4)]
        for s in pairs:
            for t in pairs:
                assert (induced_type(lo, s) == induced_type(lo, t)) == \
                    (qftp(lo, s) == qftp(lo, t))

    def test_tuple_local_function_escape(self):
        # s(1)=2 escapes {0,1}: invisible to the induced type (escape is
        # the same as undefined) but visible to the generated type, whose
        # closure of (0,1) has three elements against two for (1,2)
        c = successor_chain(3)
        d = successor_chain(4)
        assert induced_type(c, (0, 1)) == induced_type(d, (1, 2))
        assert induced_type(c, (1, 2)) == induced_type(c, (0, 1))
        assert qftp(c, (1, 2)) != qftp(c, (0, 1))

    @settings(max_examples=150, deadline=None)
    @given(pointed_pairs(max_size=4, structures=functional_structures(max_size=4)))
    def test_matches_diagram_oracle(self, data):
        M1, t1, M2, t2 = data
        assert (induced_type(M1, t1) == induced_type(M2, t2)) == \
            oracle_induced_qftp_equal(M1, t1, M2, t2)


class TestCopies:
    def test_lex_order_and_base_included(self):
        lo = linear_order(4)
        copies = enumerate_qf_copies(lo, (1, 2))
        assert (1, 2) in copies
        assert list(copies) == sorted(copies)
        assert copies == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_rejects_repeated_entries(self):
        with pytest.raises(ValueError):
            enumerate_qf_copies(linear_order(3), (1, 1))
        with pytest.raises(ValueError):
            qf_copies_within(linear_order(3), (1, 1), range(3))

    def test_ground_restriction(self):
        lo = linear_order(5)
        inside = qf_copies_within(lo, (0, 1), ground=(1, 2, 3))
        assert inside == [(1, 2), (1, 3), (2, 3)]

    def test_copies_of_type_cross_structure(self):
        t = qftp(linear_order(2), (0, 1))
        assert copies_of_type(linear_order(3), t) == [(0, 1), (0, 2), (1, 2)]

    @settings(max_examples=80, deadline=None)
    @given(binary_structures(max_size=4))
    def test_every_copy_has_the_base_type(self, M):
        if M.size < 2:
            return
        base = (0, M.size - 1)
        want = qftp(M, base)
        for c in enumerate_qf_copies(M, base):
            assert qftp(M, c) == want


    @settings(max_examples=120, deadline=None)
    @given(copy_queries())
    def test_matches_permutation_oracle(self, data):
        M, S, src, abar, ground = data
        t = qftp(S, src)
        assert copies_of_type(M, t) == oracle_copies(S, src, M)
        assert copies_of_type(M, t, ground) == oracle_copies(S, src, M, ground)
        if len(set(src)) < len(src):
            assert copies_of_type(M, t) == []
        assert enumerate_qf_copies(M, abar) == oracle_copies(M, abar, M)
        if ground is not None:
            assert qf_copies_within(M, abar, ground) == \
                oracle_copies(M, abar, M, ground)

    def test_each_tuple_is_typed_once_across_references(self, monkeypatch):
        M = graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        calls = Counter()
        real = qftypes.qftp

        def counting(N, abar):
            calls[tuple(abar)] += 1
            return real(N, abar)

        monkeypatch.setattr(qftypes, "qftp", counting)
        for abar in itertools.permutations(range(M.size), 3):
            enumerate_qf_copies(M, abar)
        # one partition of the 3-tuples, plus one lookup per reference
        for tup in itertools.product(range(M.size), repeat=3):
            assert calls[tup] == 1 + (len(set(tup)) == 3), tup

    @pytest.mark.parametrize("abar, ground", [
        ((0, 1), (1, 2, 7)),
        ((0, 1, 2), (0, 9)),    # too few ground points to reach 9
        ((), (5,)),
        ((0,), (-1, 0, 1)),
    ])
    def test_ground_outside_the_domain_is_rejected(self, abar, ground):
        lo = linear_order(4)
        with pytest.raises(ValueError, match="ground entry"):
            qf_copies_within(lo, abar, ground)
        with pytest.raises(ValueError, match="ground entry"):
            copies_of_type(lo, qftp(lo, abar), ground)


class TestPartition:
    @settings(max_examples=80, deadline=None)
    @given(copy_queries(), st.integers(0, 3))
    def test_groups_every_tuple_by_type(self, data, k):
        M = data[0]
        groups = tuples_by_type(M, k)
        tuples = list(itertools.product(range(M.size), repeat=k))
        assert sorted(tup for g in groups.values() for tup in g) == tuples
        firsts = [g[0] for g in groups.values()]
        assert firsts == sorted(firsts)  # types in order of first realization
        for t, g in groups.items():
            assert list(g) == sorted(g)
            assert all(qftp(M, tup) == t for tup in g)

    def test_built_once_and_read_only(self):
        lo = linear_order(4)
        groups = tuples_by_type(lo, 2)
        assert tuples_by_type(lo, 2) is groups
        assert list(groups.values()) == [
            ((0, 0), (1, 1), (2, 2), (3, 3)),
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)),
        ]
        with pytest.raises(TypeError):
            groups[qftp(lo, (0, 1))] = ()


class TestDigests:
    def test_digest_is_stable_and_short(self):
        t = qftp(linear_order(3), (0, 1))
        d = type_digest(t)
        assert d == type_digest(qftp(linear_order(5), (1, 4)))
        assert len(d) == 10
        assert all(ch in "0123456789abcdef" for ch in d)

    def test_distinct_types_distinct_digests(self):
        lo = linear_order(3)
        assert type_digest(qftp(lo, (0, 1))) != type_digest(qftp(lo, (1, 0)))

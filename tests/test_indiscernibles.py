"""Indexed sequences, indiscernibility checks, extraction, and transfer."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (ALL_FORMULAS, IndiscernibilityError, Structure,
                       check_locally_based, delta_type, embeds,
                       enumerate_embeddings, extract_indiscernible_pattern,
                       first_embedding, finite_satisfiability_check,
                       formula_set, ind_constraints, indexed_sequence,
                       induced_type_union_relation, is_indiscernible,
                       linear_order, pure_set, qftp, reindex)

from ramseykit import indiscernibles

from conftest import FN_SIG, GRAPH_SIG, graph

EDGE = formula_set("E(x0, x1)")
LESS = formula_set("<(x0, x1)")
PENTAGON = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name="C5")
K2 = graph(2, [(0, 1)], name="K2")


def identity_sequence(M, index=None):
    idx = index if index is not None else M
    return indexed_sequence(idx, M, list(range(idx.size)))


class TestIndexedSequence:
    def test_normalizer_widens_ints(self):
        I = indexed_sequence(linear_order(3), K2, [0, 1, 0])
        assert I.width == 1
        assert I.assignment == ((0,), (1,), (0,))
        assert I.tuple_at(2) == (0,)
        assert I.concat((0, 2)) == (0, 0)

    def test_width_validation(self):
        with pytest.raises(IndiscernibilityError):
            indexed_sequence(linear_order(2), K2, [(0, 1), (1, 0)], width=0)

    def test_row_count_must_match_index(self):
        with pytest.raises(IndiscernibilityError):
            indexed_sequence(linear_order(3), K2, [0, 1])

    def test_ragged_rows_rejected(self):
        with pytest.raises(IndiscernibilityError):
            indexed_sequence(linear_order(2), K2, [(0,), (0, 1)], width=1)

    def test_target_domain_enforced(self):
        with pytest.raises(IndiscernibilityError):
            indexed_sequence(linear_order(2), K2, [0, 5])


class TestDeltaTypes:
    def test_bits_follow_formula_truth(self):
        I = identity_sequence(linear_order(3))
        assert delta_type(I.target, LESS, (0, 1)) == (True,)
        assert delta_type(I.target, LESS, (1, 0)) == (False,)

    def test_too_short_tuples_get_absent_bits(self):
        assert delta_type(linear_order(3), LESS, (1,)) == (None,)

    def test_orbit_mode_uses_automorphisms(self):
        p3 = pure_set(3)
        assert delta_type(p3, ALL_FORMULAS, (2, 1)) == (0, 1)
        assert delta_type(p3, ALL_FORMULAS, (0, 1)) == (0, 1)
        # rigid targets make every tuple its own orbit
        assert delta_type(linear_order(3), ALL_FORMULAS, (2, 1)) == (2, 1)


class TestIsIndiscernible:
    def test_constant_sequence(self):
        I = indexed_sequence(linear_order(4), K2, [0, 0, 0, 0])
        good, violations = is_indiscernible(I, EDGE)
        assert good and violations == ()

    def test_path_breaks_on_a_distant_pair(self):
        path = graph(3, [(0, 1), (1, 2)])
        I = identity_sequence(path, index=linear_order(3))
        good, violations = is_indiscernible(I, EDGE)
        assert not good
        assert ((0, 1), (0, 2), "E(x0, x1)") in violations

    def test_complete_graph_is_edge_indiscernible(self):
        k4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        I = identity_sequence(k4, index=linear_order(4))
        good, _ = is_indiscernible(I, EDGE)
        assert good

    def test_orbit_mode_on_a_symmetric_target(self):
        I = identity_sequence(pure_set(3), index=linear_order(3))
        good, _ = is_indiscernible(I, ALL_FORMULAS, cap=2)
        assert good

    def test_orbit_mode_on_a_rigid_target(self):
        I = identity_sequence(linear_order(3))
        good, violations = is_indiscernible(I, ALL_FORMULAS, cap=2)
        assert not good
        assert violations[0][2] == "orbit"


class TestReindexAndLocalBase:
    def test_reindex_pulls_back_rows(self):
        I = indexed_sequence(linear_order(3), K2, [0, 1, 0])
        g = first_embedding(linear_order(3), linear_order(2))
        assert g.mapping == (0, 1)
        J = reindex(I, g)
        assert J.assignment == ((0,), (1,))

    def test_reindex_needs_a_matching_target(self):
        I = identity_sequence(linear_order(3))
        g = first_embedding(linear_order(4), linear_order(2))
        with pytest.raises(IndiscernibilityError):
            reindex(I, g)

    def test_subsequences_are_locally_based(self):
        I = identity_sequence(linear_order(5))
        g = enumerate_embeddings(linear_order(5), linear_order(3))[7]
        J = reindex(I, g)
        ok, witnesses, misses = check_locally_based(J, I, LESS, cap=2)
        assert ok and misses == ()
        assert witnesses

    def test_unmatched_delta_type_is_a_miss(self):
        J = indexed_sequence(linear_order(2), linear_order(2), [0, 1])
        I = indexed_sequence(linear_order(2), linear_order(2), [1, 0])
        ok, _, misses = check_locally_based(J, I, LESS, cap=2)
        assert not ok
        assert (0, 1) in misses

    def test_shape_mismatch_rejected(self):
        J = identity_sequence(linear_order(2))
        I = identity_sequence(linear_order(3))
        with pytest.raises(IndiscernibilityError):
            check_locally_based(J, I, LESS)


class TestConstraintFragment:
    def test_two_point_order_fragment(self):
        out = ind_constraints(linear_order(2), EDGE, cap=2)
        assert len(out) == 10
        assert sum(1 for c in out if c.left == c.right) == 6

    def test_orbit_mode_rejected(self):
        with pytest.raises(IndiscernibilityError):
            ind_constraints(linear_order(2), ALL_FORMULAS)

    def test_sides_must_align(self):
        from ramseykit import IndConstraint
        with pytest.raises(IndiscernibilityError):
            IndConstraint((0, 1), (0,), 0)


class TestFiniteSatisfiability:
    def test_identity_satisfies_first(self):
        I = identity_sequence(linear_order(5))
        cons = ind_constraints(I.index, LESS, cap=2)
        out = finite_satisfiability_check(cons, (1, 3), I, LESS)
        assert out.found
        assert out.b_set == (1, 3)
        assert out.f == ((1, 1), (3, 3))
        assert out.tried == 1

    def test_unsatisfiable_fragment_reports_the_search(self):
        # the loop predicate holds on exactly one of the two rows, but the
        # index gives both singletons one type
        target = Structure(FN_SIG, 2, {"E": set()}, {"s": {(0,): 0}}, {})
        I = indexed_sequence(pure_set(2), target, [0, 1])
        loop = formula_set("s(x0) = x0")
        cons = ind_constraints(I.index, loop, cap=1)
        out = finite_satisfiability_check(cons, (0, 1), I, loop)
        assert not out.found
        assert out.tried == 2


class TestExtraction:
    def test_pentagon_admits_no_ordered_edge(self):
        # both enumerations of an edge carry opposite order bits
        I = indexed_sequence(PENTAGON, linear_order(5), list(range(5)))
        out = extract_indiscernible_pattern(I, K2, LESS)
        assert out.embedding is None
        assert out.candidates_checked == 10
        assert not out.verified

    def test_parity_sequence_yields_the_even_triple(self):
        I = indexed_sequence(linear_order(6), K2, [i % 2 for i in range(6)])
        out = extract_indiscernible_pattern(I, linear_order(3), EDGE)
        assert out.verified
        assert out.embedding.mapping == (0, 2, 4)
        J = reindex(I, out.embedding)
        good, _ = is_indiscernible(J, EDGE)
        assert good

    def test_colours_only_the_tuples_it_needs(self, monkeypatch):
        # the first candidate survives: its image and the re-verification
        # touch far fewer than the 20 + 400 + 8000 index tuples up to length 3
        calls = []
        real = indiscernibles.delta_type

        def counting(M, delta, values):
            calls.append(values)
            return real(M, delta, values)

        monkeypatch.setattr(indiscernibles, "delta_type", counting)
        I = indexed_sequence(linear_order(20), pure_set(20), list(range(20)))
        out = extract_indiscernible_pattern(I, linear_order(3), formula_set("x0 = x1"))
        assert out.embedding.mapping == (0, 1, 2)
        assert out.candidates_checked == 1
        assert len(calls) < 2000

    def test_signature_mismatch(self):
        I = identity_sequence(linear_order(3))
        with pytest.raises(IndiscernibilityError):
            extract_indiscernible_pattern(I, K2, LESS)

    def test_pattern_must_embed(self):
        I = identity_sequence(linear_order(2))
        with pytest.raises(IndiscernibilityError):
            extract_indiscernible_pattern(I, linear_order(3), LESS)


def direct_extraction(I, N_target, delta):
    """Reference extraction: one delta_type call per index tuple."""
    cap = N_target.size
    color = {tup: delta_type(I.target, delta, I.concat(tup))
             for n in range(1, cap + 1)
             for tup in itertools.product(range(I.index.size), repeat=n)}
    groups = {}
    for n in range(1, cap + 1):
        for tup in itertools.product(range(N_target.size), repeat=n):
            groups.setdefault(qftp(N_target, tup), []).append(tup)
    candidates = enumerate_embeddings(I.index, N_target)
    for checked, g in enumerate(candidates, start=1):
        if all(color[g.apply_tuple(t)] == color[g.apply_tuple(group[0])]
               for group in groups.values() for t in group):
            return g.mapping, checked
    return None, len(candidates)


def direct_locally_based(J, I, delta, cap):
    """Reference check_locally_based: full source table, direct delta_type."""
    witnesses, misses = [], []
    for n in range(1, cap + 1):
        table = {}
        for jbar in itertools.product(range(I.index.size), repeat=n):
            key = (qftp(I.index, jbar), delta_type(I.target, delta, I.concat(jbar)))
            table.setdefault(key, jbar)
        for ibar in itertools.product(range(J.index.size), repeat=n):
            hit = table.get((qftp(J.index, ibar),
                             delta_type(J.target, delta, J.concat(ibar))))
            if hit is None:
                misses.append(ibar)
            else:
                witnesses.append((ibar, hit))
    return not misses, tuple(witnesses), tuple(misses)


@st.composite
def graph_sequences(draw):
    """An LO_n-indexed sequence into a random graph, plus a second
    assignment over the same index and target."""
    n = draw(st.integers(3, 7))
    size = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(size), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    target = graph(size, edges)
    rows = st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
    return (indexed_sequence(linear_order(n), target, draw(rows)),
            indexed_sequence(linear_order(n), target, draw(rows)))


class TestMemoisedColouring:
    """Each distinct target tuple is Δ-typed once per call; the results
    must match evaluating delta_type on every index tuple."""

    DELTAS = (formula_set("E(x0, x1)", "x0 = x1"), ALL_FORMULAS)

    @settings(max_examples=60, deadline=None)
    @given(graph_sequences(), st.sampled_from(DELTAS), st.integers(2, 3))
    def test_extraction_matches_direct_delta_type(self, seqs, delta, k):
        I, _ = seqs
        out = extract_indiscernible_pattern(I, linear_order(k), delta)
        mapping = out.embedding.mapping if out.embedding else None
        assert (mapping, out.candidates_checked) == \
            direct_extraction(I, linear_order(k), delta)
        assert out.verified == (mapping is not None)

    @settings(max_examples=60, deadline=None)
    @given(graph_sequences(), st.sampled_from(DELTAS), st.integers(1, 3))
    def test_locally_based_matches_direct_delta_type(self, seqs, delta, cap):
        I, other = seqs
        g = enumerate_embeddings(I.index, linear_order(3))[0]
        for J in (reindex(I, g), reindex(other, g), other):
            assert check_locally_based(J, I, delta, cap) == \
                direct_locally_based(J, I, delta, cap)


class TestInducedTypeUnion:
    def test_order_formula_recovers_the_increasing_type(self):
        I = identity_sequence(linear_order(5))
        psi = induced_type_union_relation(I, LESS.formulas[0])
        assert psi == (qftp(linear_order(5), (0, 1)),)

    def test_tautology_collects_the_point_type(self):
        I = identity_sequence(linear_order(5))
        psi = induced_type_union_relation(I, formula_set("x0 = x0").formulas[0])
        assert len(psi) == 1
        assert psi[0].arity == 1

    def test_requires_indiscernibility(self):
        I = identity_sequence(linear_order(3), index=pure_set(3))
        with pytest.raises(IndiscernibilityError):
            induced_type_union_relation(I, LESS.formulas[0])

    def test_wide_formulas_cover_several_index_points(self):
        # arity 2 over width 1 needs length-2 index tuples; both
        # off-diagonal index types land on edges, the diagonal does not
        k4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        I = indexed_sequence(linear_order(4), k4, [0, 1, 2, 3])
        psi = induced_type_union_relation(I, EDGE.formulas[0])
        assert len(psi) == 2
        assert all(t.arity == 2 for t in psi)
        assert qftp(linear_order(4), (0, 0)) not in psi

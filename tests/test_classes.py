"""Finite classes, their structural properties, and orderability."""

import itertools
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ramseykit import (GENERATORS, ClassError, FiniteClass, Structure,
                       ap_check, elf_minimize, erp_check, f_erp_check,
                       finite_class, graphs, hp_check, jep_check,
                       linear_order, linear_orders, order_every_member,
                       orderability_search, ordered_graphs, pure_set,
                       pure_sets, qftp, rigidity_scan)
from ramseykit import classes, serialize_class
from ramseykit.cli import main

from conftest import (FN_SIG, binary_structures, binary_unary_structures,
                      coloured_class, functional_structures, graph,
                      oriented_structures)
from oracles import (oracle_ap_report, oracle_graphs, oracle_jep_report,
                     oracle_orderability)


def successor_chain(n):
    return Structure(FN_SIG, n, {"E": set()},
                     {"s": {(i,): i + 1 for i in range(n - 1)}}, {})


K1 = graph(1, [], name="K1")
I2 = graph(2, [], name="I2")
K2 = graph(2, [(0, 1)], name="K2")
K3 = graph(3, [(0, 1), (1, 2), (0, 2)], name="K3")
I3 = graph(3, [], name="I3")


class TestConstruction:
    def test_members_sorted_and_deduplicated(self):
        F = finite_class([linear_order(3), linear_order(2),
                          linear_order(3, name="again")])
        assert [M.size for M in F.members] == [2, 3]

    def test_isomorphic_duplicates_collapse(self):
        F = finite_class([graph(3, [(0, 1)]), graph(3, [(1, 2)])])
        assert len(F.members) == 1

    def test_empty_class_rejected(self):
        with pytest.raises(ClassError):
            finite_class([])

    def test_mixed_signatures_rejected(self):
        with pytest.raises(ClassError):
            finite_class([linear_order(2), pure_set(2)])

    def test_bound_violation_rejected(self):
        with pytest.raises(ClassError):
            FiniteClass(K2.signature, (K2,), 1)

    def test_only_members_of_one_size_are_labeled(self, monkeypatch):
        # labeling P_24 alone took 2.66 s, and every member was labeled
        def refuse(M):
            raise AssertionError(f"{M.name} was labeled")

        monkeypatch.setattr(classes, "canonical_certificate", refuse)
        assert len(pure_sets(30).members) == len(linear_orders(30).members) == 30

    def test_isomorphic_members_of_one_size_rejected(self):
        with pytest.raises(ClassError, match="non-isomorphic"):
            FiniteClass(K2.signature, (K1, graph(3, [(0, 1)]), K2,
                                       graph(3, [(1, 2)])), 3)

    def test_members_upto(self):
        F = linear_orders(5)
        assert [M.size for M in F.members_upto(3)] == [1, 2, 3]


class TestGenerators:
    def test_counts(self):
        assert len(linear_orders(6).members) == 6
        assert len(pure_sets(4).members) == 4
        # graphs on <= 4 vertices up to isomorphism: 1 + 2 + 4 + 11
        assert len(graphs(4).members) == 18
        # a linear order rigidifies, so 2^binom(n,2) per size
        assert len(ordered_graphs(3).members) == 1 + 2 + 8

    def test_graph_counts_per_size(self):
        # OEIS A000088: graphs on k unlabelled vertices
        sizes = [M.size for M in graphs(6).members]
        assert [sizes.count(k) for k in range(1, 7)] == [1, 2, 4, 11, 34, 156]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_graphs_match_all_edge_sets_loop(self, n):
        expected = oracle_graphs(n)
        got = graphs(n).members
        assert [(M.name, M._key) for M in got] == \
            [(M.name, M._key) for M in expected]

    def test_graphs_refuse_nine_vertices_before_any_work(self, monkeypatch):
        # the seen-table of size 9 alone would take 64 GiB
        def no_work(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(classes, "canonical_form", no_work)
        for n in (9, 0):
            with pytest.raises(ClassError):
                graphs(n)

    def test_generated_classes_are_open(self):
        for name, gen in GENERATORS.items():
            F = gen(3)
            assert F.open_window, name
            assert F.label


class TestStructuralProperties:
    def test_hereditary_pass(self):
        assert hp_check(linear_orders(4)).verdict == "PASS"
        assert hp_check(graphs(3)).verdict == "PASS"

    def test_hereditary_fail_lists_missing_substructures(self):
        report = hp_check(finite_class([linear_order(3)]))
        assert report.verdict == "FAIL"
        assert report.rows

    def test_joint_embedding_pass(self):
        assert jep_check(linear_orders(4)).verdict == "PASS"

    def test_joint_embedding_window_semantics(self):
        # K3 and I3 need six vertices; a closed corpus is refuted, an open
        # one only runs out of witnesses
        closed = finite_class([K3, I3])
        assert jep_check(closed).verdict == "FAIL"
        open_ = finite_class([K3, I3], open_window=True)
        report = jep_check(open_)
        assert report.verdict == "INCONCLUSIVE"
        assert report.notes

    def test_amalgamation_pass_within_the_window(self):
        # two 3-chains over a shared point fit inside six points
        assert ap_check(linear_orders(6), config_bound=3).verdict == "PASS"

    def test_amalgamation_needs_room(self):
        # spans at the window edge cannot find amalgams inside it
        assert ap_check(linear_orders(3)).verdict == "INCONCLUSIVE"

    def test_amalgamation_window_semantics(self):
        # gluing an edge and a non-edge at a point needs a path
        closed = finite_class([K1, I2, K2])
        assert ap_check(closed).verdict == "FAIL"
        open_ = finite_class([K1, I2, K2], open_window=True)
        assert ap_check(open_).verdict == "INCONCLUSIVE"

    def test_amalgamation_bound_below_every_member_is_rejected(self):
        # such a bound leaves no span, and a PASS over no spans says nothing
        for bound in (0, -2):
            with pytest.raises(ClassError):
                ap_check(graphs(3), bound)

    def test_rigidity_scan(self):
        assert rigidity_scan(linear_orders(5)) == ()
        assert [M.size for M in rigidity_scan(pure_sets(3))] == [2, 3]
        assert len(rigidity_scan(graphs(3))) == 6


SMALL_MEMBERS = {
    "relational": binary_structures(max_size=4),
    "partial-function": functional_structures(max_size=4),
    "constant": functional_structures(max_size=4, constants=True),
}


class TestAgainstOracles:
    """JEP and AP reports equal the pairwise and per-span scans exactly."""

    @pytest.mark.parametrize("make", [lambda: graphs(3), lambda: linear_orders(4),
                                      lambda: pure_sets(3), lambda: ordered_graphs(3)],
                             ids=["graphs3", "linear_orders4", "pure_sets3",
                                  "ordered_graphs3"])
    def test_generator_classes(self, make):
        F = make()
        assert jep_check(F) == oracle_jep_report(F)
        for bound in range(1, F.bound + 1):
            assert ap_check(F, bound) == oracle_ap_report(F, bound)

    @pytest.mark.parametrize("kind", sorted(SMALL_MEMBERS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_classes(self, kind, data):
        members = data.draw(st.lists(SMALL_MEMBERS[kind], min_size=1, max_size=4))
        F = finite_class(members, open_window=data.draw(st.booleans()))
        assert jep_check(F) == oracle_jep_report(F)
        smallest = F.members[0].size
        bound = data.draw(st.none() | st.integers(smallest, F.bound))
        assert ap_check(F, bound) == oracle_ap_report(F, bound)


class TestSearchCounts:
    def test_jep_reads_one_host_table(self, monkeypatch):
        F = graphs(4)
        calls = []
        real = classes.embeds
        monkeypatch.setattr(classes, "embeds",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        jep_check(F)
        assert len(calls) <= len(F.members) ** 2 == 324

    def test_ap_searches_once_per_orbit(self, monkeypatch):
        F = graphs(4)
        searches = []
        real = classes._first_amalgam
        monkeypatch.setattr(classes, "_first_amalgam",
                            lambda *args: searches.append(args) or real(*args))
        report = ap_check(F, 3)
        assert "761 spans checked" in report.notes
        assert len(searches) < 761


class TestEmbeddingRamsey:
    def test_linear_orders_pass_with_doubling_witnesses(self):
        report = erp_check(linear_orders(6), 3, 6)
        assert report.verdict == "PASS"
        witness = {(a, b): w for a, b, w, _ in report.rows}
        assert witness[("LO_1", "LO_2")] == "LO_3"
        assert witness[("LO_1", "LO_3")] == "LO_5"
        assert witness[("LO_2", "LO_3")] == "LO_6"
        # a structure is trivially monochromatic inside itself
        assert witness[("LO_2", "LO_2")] == "LO_2"

    def test_pure_sets_fail_by_orientation_coloring(self):
        report = erp_check(pure_sets(4), 2, 4)
        assert report.verdict == "FAIL"
        assert any("Aut" in note for note in report.notes)

    def test_fail_is_relative_to_the_witness_bound(self):
        # (LO_2, LO_3) needs six points; the bound records the claim
        report = erp_check(linear_orders(4), 3, 4)
        assert report.verdict == "FAIL"
        assert ("witness_bound", 4) in report.bounds

    def test_budget_starvation_is_inconclusive(self):
        report = erp_check(linear_orders(6), 3, 6, budget=5)
        assert report.verdict == "INCONCLUSIVE"

    def test_subset_budget_starvation_is_inconclusive(self):
        report = f_erp_check(linear_orders(6), 3, 6, budget=5)
        assert report.verdict == "INCONCLUSIVE"
        assert any(row[3] is None for row in report.rows)

    def test_bound_validation(self):
        with pytest.raises(ClassError):
            erp_check(linear_orders(3), 0, 3)
        with pytest.raises(ClassError):
            erp_check(linear_orders(3), 3, 2)

    def test_subset_variant_agrees_on_verdicts(self):
        for F, pair_bound, bound in [(linear_orders(4), 2, 4),
                                     (pure_sets(3), 2, 3)]:
            a = erp_check(F, pair_bound, bound).verdict
            b = f_erp_check(F, pair_bound, bound).verdict
            assert a == b


class TestOrderability:
    def test_linear_orders_are_orderable_by_their_own_type(self):
        res = orderability_search(linear_orders(4))
        assert res.verdict == "ORDERABLE"
        assert res.types == (qftp(linear_order(2), (0, 1)),)
        assert res.tried == ()
        for rel in order_every_member(linear_orders(4), res.types):
            assert rel.is_strict_linear_order

    def test_pure_sets_blocked_by_symmetric_type(self):
        res = orderability_search(pure_sets(4))
        assert res.verdict == "NOT-ORDERABLE"
        assert res.witness is not None
        assert res.tried == ()

    def test_graphs_blocked_by_symmetric_edge_type(self):
        assert orderability_search(graphs(3)).verdict == "NOT-ORDERABLE"

    def test_ordered_graphs_orderable(self):
        F = ordered_graphs(3)
        res = orderability_search(F)
        assert res.verdict == "ORDERABLE"
        for rel in order_every_member(F, res.types):
            assert rel.is_strict_linear_order

    @pytest.mark.parametrize("F", [linear_orders(4), ordered_graphs(3)])
    def test_realizers_are_the_first_pair_of_each_type(self, F):
        res = orderability_search(F)
        assert len(res.realizers) == len(res.types)
        for t, realizer in zip(res.types, res.realizers):
            first = next((mi, p) for mi, M in enumerate(F.members)
                         for p in itertools.product(range(M.size), repeat=2)
                         if p[0] != p[1] and qftp(M, p) == t)
            assert realizer == first

    def test_five_colour_words_are_orderable(self):
        # 25 orientation classes: the walk this search replaced gave up
        # before its first choice (2^25 is over its cap), which is an order
        F = coloured_class(5, 2, "<", oriented=False)
        res = orderability_search(F)
        assert res.verdict == "ORDERABLE" and res.tried == ()
        assert len(res.types) == 25
        for rel in order_every_member(F, res.types):
            assert rel.is_strict_linear_order

    def test_four_coloured_tournaments_are_refuted_quickly(self, tmp_path,
                                                          monkeypatch):
        # the walk this search replaced took 65,536 choices, about 105 s
        F = coloured_class(4, 3, "E", oriented=True)
        assert len(F.members) == 108
        start = time.process_time()
        res = orderability_search(F)
        assert time.process_time() - start < 1
        assert res.verdict == "NOT-ORDERABLE" and res.witness is None
        assert [bits for bits, _, _ in res.tried] == ["0", "1"]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.cls").write_text(serialize_class(F))
        assert main(["orderable", "t.cls", "--out", "t.cert"]) == 1
        assert main(["verify", "t.cert"]) == 0

    # classes with a 3-point oriented member reach the search's dead ends
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(oriented_structures(min_size=3), min_size=1, max_size=4)
           | st.lists(binary_unary_structures(), min_size=1, max_size=4))
    def test_search_matches_the_orientation_walk(self, tmp_path, monkeypatch,
                                                 members):
        F = finite_class(members)
        # the walk costs 2^k choices on a refuted class of k classes
        assume(len(classes.orientation_classes(F)[1]) <= 10)
        res, walk = orderability_search(F), oracle_orderability(F)
        assert (res.verdict, res.types, res.realizers, res.witness) == \
            (walk.verdict, walk.types, walk.realizers, walk.witness)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cls").write_text(serialize_class(F))
        assert main(["orderable", "f.cls", "--out", "f.cert"]) == \
            (0 if res.verdict == "ORDERABLE" else 1)
        assert main(["verify", "f.cert"]) == 0


class TestElfMinimization:
    def test_order_pairs_need_the_whole_domain(self):
        assert elf_minimize(linear_order(5), (1, 3)) == (0, 1, 2, 3, 4)

    def test_chain_tail_supports_itself(self):
        # the type of a point two steps from the end pins its copies
        assert elf_minimize(successor_chain(4), (2,)) == (2,)

    def test_support_is_a_proper_subset_when_types_isolate(self):
        chain = successor_chain(5)
        support = elf_minimize(chain, (3,))
        assert set(support) < set(range(5))

"""Partition-arrow instances, verdict search, degrees, and joint arrows."""

import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseykit import (FAILS, HOLDS, INCONCLUSIVE, ArrowError, ArrowInstance,
                       Coloring, Embedding, Structure, TermColoringError,
                       arrow_check, arrow_instance, build_joint_witness,
                       check_instance, coloring_refutes, copies_of_type,
                       erp_check, find_monochromatic_copy, joint_arrow_check,
                       joint_instance, linear_order, linear_orders, parse_term,
                       promote_arrow_witness, pure_set, qftp,
                       ramsey_degree_lower, ramsey_degree_upper_probe,
                       render_cnf, subset_arrow_instance,
                       term_iteration_coloring)
from ramseykit.arrows import (_bcopy_rows, _first_good_bcopy, _live_parts,
                              _refute_by_local_search, _run,
                              _search_bad_coloring, build_instance)

from conftest import (FN_SIG, binary_structures, functional_structures,
                      graph)
from oracles import (oracle_arrow_holds, oracle_first_bad_draw,
                     oracle_joint_holds, oracle_search_bad_coloring,
                     oracle_subset_members)


def successor_chain(n):
    return Structure(FN_SIG, n, {"E": set()},
                     {"s": {(i,): i + 1 for i in range(n - 1)}}, {},
                     name=f"chain{n}")


@st.composite
def search_inputs(draw, searchable=False):
    """Arguments of the bad-coloring search: member lists of distinct copy
    indices in any order (empty lists and no lists at all included), a
    color count, a degree cap and a budget.

    Mostly r > d and every list longer than d, so that the search runs,
    sometimes an input that is settled before searching; with
    ``searchable``, only the inputs the search takes.  Random lists rarely
    force a monochromatic B-copy, so half the inputs take every k-set of
    copies, which does once there are more copies than colors."""
    d = draw(st.integers(1, 3))
    ncopies = draw(st.integers(d + 1 if searchable else 0, 9))
    r = draw(st.integers(d + 1, 4) if searchable else
             st.integers(min(d + 1, 4), 4) | st.integers(1, 4))
    shortest = min(ncopies, d + 1 if searchable else
                   draw(st.sampled_from((d + 1, d + 1, d + 1, 0))))
    if draw(st.booleans()):
        k = max(shortest, 1)
        members = [draw(st.permutations(m))
                   for m in itertools.combinations(range(ncopies), k)]
    else:
        nb = draw(st.integers(1 if searchable else 0, 8))
        members = draw(st.lists(
            st.lists(st.integers(0, ncopies - 1), unique=True,
                     min_size=shortest, max_size=max(shortest, 5))
            if ncopies else st.just([]), min_size=nb, max_size=nb))
    budget = draw(st.none() | st.integers(0, 40))
    return tuple(map(tuple, members)), ncopies, r, d, budget


@st.composite
def subset_queries(draw):
    """A host, the types of a tuple b̄ (arity 0-3, injective) and of a tuple
    ā over b̄'s entries (entries may repeat) in a source over the host's
    signature (relational, with a partial function, or with a constant
    too), and an optional ground set."""
    kind = draw(st.sampled_from(("relational", "functions", "constants")))
    if kind == "relational":
        structures = binary_structures(max_size=4)
    else:
        structures = functional_structures(max_size=4,
                                           constants=kind == "constants")
    host = draw(structures)
    src = draw(st.just(host) | structures)
    bbar = tuple(draw(st.permutations(range(src.size)))[:draw(st.integers(0, 3))])
    abar = tuple(draw(st.lists(st.sampled_from(bbar), max_size=3))) if bbar else ()
    ground = draw(st.none() | st.sets(st.integers(0, host.size - 1)))
    return host, qftp(src, abar), qftp(src, bbar), ground


class TestInstances:
    def test_embedding_instance_shape(self):
        inst = arrow_instance(linear_order(4), linear_order(3),
                              linear_order(2), 2)
        assert inst.kind == "embedding"
        assert len(inst.copy_keys) == 6           # pairs i < j
        assert len(inst.bcopy_keys) == 4          # triples
        assert all(len(m) == 3 for m in inst.members)

    def test_subset_copies_are_type_realizations(self):
        # both enumerations of an unordered pair realize its type
        sub = subset_arrow_instance(pure_set(4), qftp(pure_set(2), (0, 1)),
                                    qftp(pure_set(3), (0, 1, 2)), 2)
        assert len(sub.copy_keys) == 12
        assert (0, 1) in sub.copy_keys and (1, 0) in sub.copy_keys
        assert sub.kind == "subset"
        # a linear order pins the enumeration, so counts match embeddings
        lo = linear_order(4)
        sub_lo = subset_arrow_instance(lo, qftp(linear_order(2), (0, 1)),
                                       qftp(linear_order(3), (0, 1, 2)), 2)
        emb_lo = arrow_instance(lo, linear_order(3), linear_order(2), 2)
        assert sub_lo.copy_keys == emb_lo.copy_keys

    def test_ground_restricts_subset_copies(self):
        lo = linear_order(5)
        inst = subset_arrow_instance(lo, qftp(linear_order(2), (0, 1)),
                                     qftp(linear_order(3), (0, 1, 2)), 2,
                                     ground=(1, 2, 3))
        assert inst.copy_keys == ((1, 2), (1, 3), (2, 3))
        assert inst.bcopy_keys == ((1, 2, 3),)

    def test_color_count_validated(self):
        with pytest.raises(ArrowError):
            arrow_check(linear_order(3), linear_order(2), linear_order(1), 0)

    @settings(max_examples=200, deadline=None)
    @given(subset_queries())
    def test_subset_members_are_the_contained_copies(self, query):
        host, a_type, b_type, ground = query
        inst = subset_arrow_instance(host, a_type, b_type, 2, ground)
        assert inst.copy_keys == tuple(copies_of_type(host, a_type, ground))
        assert inst.bcopy_keys == tuple(copies_of_type(host, b_type, ground))
        assert inst.members == oracle_subset_members(inst.copy_keys,
                                                     inst.bcopy_keys)

    def test_subset_members_across_re_enumerations(self):
        # B-copies of a pure set re-enumerate their points, so the copies
        # at the same positions come in a different order in each
        P4 = pure_set(4)
        inst = subset_arrow_instance(P4, qftp(P4, (0, 1)), qftp(P4, (0, 1, 2)), 2)
        assert inst.members == oracle_subset_members(inst.copy_keys,
                                                     inst.bcopy_keys)

    def test_subset_instance_without_bcopies(self):
        lo = linear_order(2)
        inst = subset_arrow_instance(lo, qftp(lo, (0,)),
                                     qftp(linear_order(3), (0, 1, 2)), 2)
        assert inst.copy_keys == ((0,), (1,))
        assert inst.bcopy_keys == () and inst.members == ()

    def test_arity_zero_types(self):
        # the empty tuple is the one copy of the empty type, inside every
        # B-copy, and an empty B-type has the one B-copy ()
        lo = linear_order(3)
        inst = subset_arrow_instance(lo, qftp(lo, ()), qftp(lo, (0, 1)), 2)
        assert inst.copy_keys == ((),)
        assert inst.members == ((0,),) * 3
        inst = subset_arrow_instance(lo, qftp(lo, (0,)), qftp(lo, ()), 2)
        assert inst.bcopy_keys == ((),) and inst.members == ((),)

    def test_repeated_member_index_rejected(self):
        # the search would never see the B-copy complete and return a
        # coloring that does not refute
        keys = ((0, 1), (0, 2), (1, 2))
        with pytest.raises(ArrowError, match="repeats"):
            ArrowInstance("embedding", 2, keys, ((0, 1, 2), (0, 1, 3)),
                          ((0, 1, 1), (1, 2)))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_member_index_outside_copies_rejected(self, bad):
        keys = ((0, 1), (0, 2), (1, 2))
        with pytest.raises(ArrowError, match="outside"):
            ArrowInstance("embedding", 2, keys, ((0, 1, 2),), ((0, 1, bad),))


class TestColoring:
    def test_lookup_and_keys(self):
        col = Coloring(2, (((0,), 0), ((1,), 1)))
        assert col.color_of((1,)) == 1
        assert col.keys() == ((0,), (1,))
        assert len(col) == 2

    def test_out_of_range_color(self):
        with pytest.raises(ArrowError):
            Coloring(2, (((0,), 2),))

    def test_duplicate_key(self):
        with pytest.raises(ArrowError):
            Coloring(2, (((0,), 0), ((0,), 1)))

    def test_missing_key_lookup(self):
        with pytest.raises(ArrowError):
            Coloring(2, (((0,), 0),)).color_of((5,))


class TestVerdicts:
    def test_six_points_force_monochromatic_triple(self):
        res = arrow_check(linear_order(6), linear_order(3), linear_order(2), 2)
        assert res.verdict == HOLDS
        assert res.coloring is None

    def test_five_points_do_not(self):
        res = arrow_check(linear_order(5), linear_order(3), linear_order(2), 2)
        assert res.verdict == FAILS
        assert coloring_refutes(res.instance, res.coloring)
        assert find_monochromatic_copy(linear_order(5), linear_order(3),
                                       linear_order(2), res.coloring) is None

    def test_pentagon_distance_coloring_refutes_five(self):
        # color a pair by its cyclic gap; both classes are triangle-free
        # pentagons, so no triple is monochromatic
        inst = arrow_instance(linear_order(5), linear_order(3),
                              linear_order(2), 2)
        col = Coloring(2, tuple((k, 1 if k[1] - k[0] in (1, 4) else 0)
                                for k in inst.copy_keys))
        assert coloring_refutes(inst, col)

    def test_triangle_forces_monochromatic_edge(self):
        tri = graph(3, [(0, 1), (1, 2), (0, 2)])
        res = arrow_check(tri, graph(2, [(0, 1)]), graph(1, []), 2)
        assert res.verdict == HOLDS

    def test_path_does_not_force_monochromatic_edge(self):
        path = graph(3, [(0, 1), (1, 2)])
        res = arrow_check(path, graph(2, [(0, 1)]), graph(1, []), 2)
        assert res.verdict == FAILS

    def test_good_coloring_has_monochromatic_copy(self):
        lo6 = linear_order(6)
        inst = arrow_instance(lo6, linear_order(3), linear_order(2), 2)
        col = Coloring(2, tuple((k, 0) for k in inst.copy_keys))
        found = find_monochromatic_copy(lo6, linear_order(3),
                                        linear_order(2), col)
        assert isinstance(found, Embedding)
        assert found.is_valid()

    def test_copy_without_inner_copies_is_monochromatic(self):
        # an edge does not embed in a non-edge, so the first non-edge of
        # the path 0-1-2 is found whatever the edges are colored
        path = graph(3, [(0, 1), (1, 2)])
        edge, non_edge = graph(2, [(0, 1)]), graph(2, [])
        keys = arrow_instance(path, non_edge, edge, 2).copy_keys
        col = Coloring(2, tuple((k, i % 2) for i, k in enumerate(keys)))
        found = find_monochromatic_copy(path, non_edge, edge, col)
        assert found.mapping == (0, 2)


class TestOracleAgreement:
    CASES = [
        (linear_order(4), linear_order(3), linear_order(2), 2, 1),
        (linear_order(3), linear_order(2), linear_order(1), 2, 1),
        (linear_order(2), linear_order(2), linear_order(1), 2, 1),
        (linear_order(4), linear_order(3), linear_order(2), 3, 2),
        (graph(3, [(0, 1), (1, 2), (0, 2)]), graph(2, [(0, 1)]),
         graph(1, []), 2, 1),
        (graph(3, [(0, 1), (1, 2)]), graph(2, [(0, 1)]), graph(1, []), 2, 1),
    ]

    @pytest.mark.parametrize("C,B,A,r,d", CASES)
    def test_decide_matches_exhaustive_oracle(self, C, B, A, r, d):
        inst = arrow_instance(C, B, A, r)
        res = check_instance(inst, "decide", d=d)
        expected = HOLDS if oracle_arrow_holds(C, B, A, r, d=d) else FAILS
        assert res.verdict == expected
        if res.verdict == FAILS:
            assert coloring_refutes(inst, res.coloring, d=d)

    def test_fewer_colors_preserve_holds(self):
        # HOLDS is monotone downward in r: merging colors keeps bad
        # colorings bad, so a FAILS boundary sits above every HOLDS
        verdicts = [arrow_check(linear_order(3), linear_order(2),
                                linear_order(1), r).verdict for r in (2, 3)]
        assert verdicts == [HOLDS, FAILS]

    def test_refuting_coloring_lifts_to_more_colors(self):
        res = arrow_check(linear_order(5), linear_order(3), linear_order(2), 2)
        inst3 = arrow_instance(linear_order(5), linear_order(3),
                               linear_order(2), 3)
        lifted = Coloring(3, res.coloring.assignments)
        assert coloring_refutes(inst3, lifted)


@st.composite
def refute_inputs(draw):
    """A single-arrow instance over up to 8 copies with r in 2..3 and d in
    1..2, a node budget and a seed.  As in ``search_inputs``, half the
    inputs take every k-set of copies, so that some arrows hold."""
    ncopies = draw(st.integers(0, 8))
    d = draw(st.integers(1, 2))
    r = draw(st.integers(2, 3))
    shortest = min(ncopies, d + 1)
    if draw(st.booleans()):
        members = [tuple(draw(st.permutations(m))) for m in
                   itertools.combinations(range(ncopies), max(shortest, 1))]
    else:
        nb = draw(st.integers(0, 8))
        members = draw(st.lists(
            st.lists(st.integers(0, ncopies - 1), unique=True,
                     min_size=shortest, max_size=max(shortest, 5)).map(tuple)
            if ncopies else st.just(()), min_size=nb, max_size=nb))
    instance = ArrowInstance("embedding", r, tuple((i,) for i in range(ncopies)),
                             tuple((j,) for j in range(len(members))),
                             tuple(members))
    return instance, d, draw(st.integers(0, 60)), draw(st.integers(0, 2**16))


@st.composite
def joint_parts(draw, min_parts=1, max_copies=5):
    """``min_parts`` to three parts sharing up to 6 B-copies: copy counts
    up to ``max_copies``, color counts in 2..3, caps in 1..2 and member
    lists, then a step budget and a seed."""
    nb = draw(st.integers(0, 6))
    sizes, rs, caps, members = [], [], [], []
    for _ in range(draw(st.integers(min_parts, 3))):
        n = draw(st.integers(1, max_copies))
        sizes.append(n)
        rs.append(draw(st.integers(2, 3)))
        caps.append(draw(st.integers(1, 2)))
        members.append(tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4)))
            for _ in range(nb)))
    return (nb, tuple(members), tuple(sizes), tuple(rs), tuple(caps),
            draw(st.integers(0, 200)), draw(st.integers(0, 2**16)))


class TestRefuteMode:
    """Refute mode runs the complete search on half the budget and the
    seeded local search on the other half."""

    @settings(max_examples=300, deadline=None)
    @given(refute_inputs())
    def test_refute_is_sound_and_deterministic(self, args):
        inst, d, budget, seed = args
        res = check_instance(inst, "refute", d=d, seed=seed, budget=budget)
        truth = check_instance(inst, "decide", d=d, budget=None).verdict
        half = check_instance(inst, "decide", d=d, budget=budget // 2).verdict
        if res.verdict == FAILS:
            assert coloring_refutes(inst, res.coloring, d)
            assert truth == FAILS
        if res.verdict == HOLDS:
            assert half == truth == HOLDS
        assert res.stat("nodes") <= budget // 2 + 1
        assert res.stat("steps") <= budget - budget // 2
        assert check_instance(inst, "refute", d=d, seed=seed, budget=budget) == res

    @settings(max_examples=300, deadline=None)
    @given(refute_inputs())
    def test_local_search_alone_is_sound_and_deterministic(self, args):
        inst, d, budget, seed = args
        # the driver settles a run with a B-copy of at most d members, or
        # r <= d, so the local search sees only B-copies that can leave d
        keep = [bi for bi, mem in enumerate(inst.members) if len(mem) > d < inst.r]
        inst = dataclasses.replace(
            inst, bcopy_keys=tuple(inst.bcopy_keys[bi] for bi in keep),
            members=tuple(inst.members[bi] for bi in keep))
        parts = (inst.members,), (len(inst.copy_keys),), (inst.r,), (d,)
        nb = len(inst.members)
        colors, steps = _refute_by_local_search(nb, *parts, seed, budget)
        assert steps <= budget
        if colors is not None:
            assert _first_good_bcopy(_bcopy_rows(nb, parts[0]), parts[3],
                                     colors) is None
            assert check_instance(inst, "decide", d=d, budget=None).verdict == FAILS
        assert _refute_by_local_search(nb, *parts, seed, budget) == (colors, steps)

    @settings(max_examples=300, deadline=None)
    @given(joint_parts())
    def test_joint_local_search_is_sound_and_deterministic(self, args):
        nb, members, sizes, rs, caps, budget, seed = args
        # the driver settles a run with a B-copy that can leave no cap, so
        # the local search sees only B-copies that can leave one
        keep = [bi for bi in range(nb)
                if any(len(m[bi]) > cap < r for m, r, cap in zip(members, rs, caps))]
        nb, members = len(keep), tuple(tuple(m[bi] for bi in keep) for m in members)
        colors, steps = _refute_by_local_search(nb, members, sizes, rs, caps,
                                                seed, budget)
        assert steps <= budget
        if colors is not None:
            assert [len(c) for c in colors] == list(sizes)
            assert all(0 <= c < r for cs, r in zip(colors, rs) for c in cs)
            assert _first_good_bcopy(_bcopy_rows(nb, members), caps,
                                     colors) is None
        else:
            # the search gives up only at the end of its budget
            assert steps == budget
        assert _refute_by_local_search(nb, members, sizes, rs, caps,
                                       seed, budget) == (colors, steps)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 6), b=st.integers(1, 4), rs=st.lists(
        st.integers(2, 3), min_size=1, max_size=2), d=st.integers(1, 2),
        budget=st.integers(0, 60), seed=st.integers(0, 2**16))
    def test_joint_refute_is_sound_and_deterministic(self, n, b, rs, d,
                                                     budget, seed):
        b = min(b, n)
        patterns = [linear_order(a) for a in range(1, min(b, len(rs)) + 1)]
        rs = rs[:len(patterns)]
        ds = [d] * len(patterns)
        res = joint_arrow_check(linear_order(n), linear_order(b), patterns, rs,
                                ds, "refute", seed=seed, budget=budget)
        inst = res.instance
        if res.verdict == FAILS:
            colors = [[c.color_of(key) for key in keys]
                      for c, keys in zip(res.colorings, inst.pattern_copies)]
            assert _first_good_bcopy(_bcopy_rows(len(inst.bcopy_keys),
                                                 inst.pattern_members),
                                     ds, colors) is None
        if res.verdict == HOLDS:
            # no live pattern, or one whose search exhausts on its half
            live = _live_parts(inst.pattern_members, rs, ds)
            assert inst.bcopy_keys and len(live) <= 1
            for p in live:
                single = ArrowInstance("embedding", rs[p], inst.pattern_copies[p],
                                       inst.bcopy_keys, inst.pattern_members[p])
                assert check_instance(single, "decide", d=d,
                                      budget=budget // 2).verdict == HOLDS
        searched = any(key.startswith("nodes_") for key, _ in res.stats)
        assert dict(res.stats).get("steps", 0) <= (
            budget - budget // 2 if searched else budget)
        assert joint_arrow_check(linear_order(n), linear_order(b), patterns, rs,
                                 ds, "refute", seed=seed, budget=budget) == res

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 9), b=st.integers(2, 4),
           parts=st.lists(st.tuples(st.integers(1, 3), st.integers(2, 3),
                                    st.integers(1, 2)), min_size=2, max_size=3),
           budget=st.integers(0, 3000), seed=st.integers(0, 2**16))
    @example(n=10, b=3, parts=[(2, 3, 1)] * 3, budget=1000, seed=0)
    def test_joint_refute_keeps_to_its_budget(self, n, b, parts, budget, seed):
        # at most one pattern's search runs, and it may pass its half of
        # the budget by the one node that stops it
        b = min(b, n)
        patterns = [linear_order(min(a, b)) for a, _, _ in parts]
        res = joint_arrow_check(linear_order(n), linear_order(b), patterns,
                                [r for _, r, _ in parts], [d for _, _, d in parts],
                                "refute", seed=seed, budget=budget)
        spent = sum(v for key, v in res.stats
                    if key.startswith("nodes_") or key == "steps")
        assert spent <= budget + 1

    @settings(max_examples=300, deadline=None)
    @given(joint_parts(min_parts=0, max_copies=3))  # every coloring tuple tried
    def test_joint_run_is_sound_against_brute_force(self, args):
        nb, members, sizes, rs, caps, budget, seed = args
        verdict, colors, _, _, _ = _run(nb, members, sizes, rs, caps, "refute",
                                        seed, budget, 0)
        if verdict == HOLDS:
            assert oracle_joint_holds(nb, members, sizes, rs, caps)
        if verdict == FAILS:
            assert [len(c) for c in colors] == list(sizes)
            assert all(0 <= c < r for cs, r in zip(colors, rs) for c in cs)
            assert _first_good_bcopy(_bcopy_rows(nb, members), caps,
                                     colors) is None

    @pytest.mark.parametrize("n,b,a,r", [(10, 3, 2, 3), (8, 4, 3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_local_search_refutes_what_the_search_leaves_open(self, n, b, a, r,
                                                              seed):
        # LO_10 -> (LO_3)^LO_2_3 fails (R(3,3,3) = 17), and so does
        # LO_8 -> (LO_4)^LO_3_2 (R^(3)(4,4) = 13); the search's first
        # 5,000 nodes find neither refutation
        inst = arrow_instance(linear_order(n), linear_order(b), linear_order(a), r)
        res = check_instance(inst, "refute", seed=seed, budget=10_000)
        assert res.verdict == FAILS
        assert coloring_refutes(inst, res.coloring)
        assert res.stat("nodes") == 5001
        assert 0 < res.stat("steps") <= 5000

    def test_the_search_goes_first(self):
        # the search exhausts LO_6 -> (LO_3)^LO_2_2 in 493 nodes, so the
        # local search never runs and the run holds
        inst = arrow_instance(linear_order(6), linear_order(3), linear_order(2), 2)
        res = check_instance(inst, "refute", seed=4, budget=100_000)
        assert res.verdict == HOLDS
        assert dict(res.stats) == {"nodes": 493, "prunes": 494, "early_exit": 0}


class TestModes:
    def test_sample_mode_is_deterministic_per_seed(self):
        kw = dict(mode="sample", seed=7, samples=50)
        one = arrow_check(linear_order(6), linear_order(3), linear_order(2),
                          2, **kw)
        two = arrow_check(linear_order(6), linear_order(3), linear_order(2),
                          2, **kw)
        assert one.verdict == two.verdict == INCONCLUSIVE
        assert one.stats == two.stats

    def test_sample_mode_finds_easy_refutation(self):
        res = arrow_check(linear_order(2), linear_order(2), linear_order(1),
                          2, mode="sample", seed=0, samples=200)
        assert res.verdict == FAILS
        assert coloring_refutes(res.instance, res.coloring)

    def test_refute_mode_upgrades_on_exhaustion(self):
        res = arrow_check(linear_order(6), linear_order(3), linear_order(2),
                          2, mode="refute", samples=20)
        assert res.verdict == HOLDS
        small = arrow_check(linear_order(6), linear_order(3), linear_order(2),
                            2, mode="refute", samples=20, budget=10)
        assert small.verdict == INCONCLUSIVE

    @pytest.mark.parametrize("mode", ["sample"])
    @pytest.mark.parametrize("copies,make,n,b,a,r", [
        ("embedding", linear_order, 3, 2, 1, 3),
        ("embedding", linear_order, 4, 2, 1, 4),
        ("embedding", linear_order, 5, 4, 3, 2),
        ("subset", pure_set, 4, 3, 1, 2),
    ])
    def test_sampling_fails_on_the_first_bad_draw(self, mode, copies, make,
                                                  n, b, a, r):
        inst = build_instance(copies, make(n), make(b), make(a), r)
        for seed in range(10):
            first, before = oracle_first_bad_draw(
                inst.members, len(inst.copy_keys), r, 1, seed, 200)
            assert first is not None, seed
            res = check_instance(inst, mode, seed=seed, samples=200)
            assert res.verdict == FAILS
            assert res.coloring == Coloring(r, tuple(zip(inst.copy_keys, first)))
            assert dict(res.stats) == {"samples": 200, "witnessed": before}

    def test_sampling_without_a_bad_draw_witnesses_every_draw(self):
        inst = arrow_instance(linear_order(6), linear_order(3), linear_order(2), 2)
        res = check_instance(inst, "sample", seed=3, samples=40)
        assert res.verdict == INCONCLUSIVE
        assert dict(res.stats) == {"samples": 40, "witnessed": 40}

    def test_negative_samples_rejected_and_zero_claims_nothing(self):
        inst = arrow_instance(linear_order(2), linear_order(2), linear_order(1), 2)
        for mode in ("decide", "refute", "sample"):
            with pytest.raises(ArrowError, match="samples"):
                check_instance(inst, mode, samples=-3)
        with pytest.raises(ArrowError, match="samples"):
            joint_arrow_check(linear_order(2), linear_order(2),
                              [linear_order(1)], samples=-1)
        res = check_instance(inst, "sample", samples=0)
        assert res.verdict == INCONCLUSIVE and res.coloring is None
        assert dict(res.stats) == {"samples": 0, "witnessed": 0}
        joint = joint_arrow_check(linear_order(2), linear_order(2),
                                  [linear_order(1)], samples=0)
        assert joint.verdict == INCONCLUSIVE and joint.witness_key is None

    def test_negative_budget_rejected_and_zero_keeps_its_meaning(self):
        # a negative budget once ran one node and came back INCONCLUSIVE
        # with steps=0, where the CLI refuses any budget below 1
        lo5, lo3, lo2 = linear_order(5), linear_order(3), linear_order(2)
        inst = arrow_instance(lo5, lo3, lo2, 2)
        for mode in ("decide", "refute", "sample"):
            with pytest.raises(ArrowError, match="budget"):
                check_instance(inst, mode, budget=-4)
        for mode in ("refute", "sample"):
            with pytest.raises(ArrowError, match="budget"):
                joint_arrow_check(lo5, lo3, [lo2, lo2], mode=mode, budget=-4)
        with pytest.raises(ArrowError, match="budget"):
            erp_check(linear_orders(3), 2, 3, budget=-4)
        assert check_instance(inst, "refute", budget=0).verdict == INCONCLUSIVE
        assert check_instance(inst, "decide", budget=None).verdict == FAILS

    def test_budget_exhaustion_is_inconclusive(self):
        res = arrow_check(linear_order(6), linear_order(3), linear_order(2),
                          2, budget=10)
        assert res.verdict == INCONCLUSIVE

    def test_unknown_mode(self):
        inst = arrow_instance(linear_order(3), linear_order(2),
                              linear_order(1), 2)
        with pytest.raises(ArrowError):
            check_instance(inst, "guess")


class TestSearchKernel:
    @settings(max_examples=400, deadline=None)
    @given(search_inputs(searchable=True))
    @example(args=(((2, 0, 1), (1, 3, 2), (3, 0, 1)), 4, 4, 1, 0))
    @example(args=(((2, 0, 1, 4), (1, 3, 2, 4), (3, 0, 1, 4)), 5, 4, 3, None))
    def test_matches_reference_search(self, args):
        assert _search_bad_coloring(*args) == oracle_search_bad_coloring(*args)

    @settings(max_examples=400, deadline=None)
    @given(search_inputs())
    @example(args=((), 0, 2, 1, None))
    @example(args=((), 3, 2, 1, 5))
    @example(args=(((),), 2, 3, 1, None))
    @example(args=(((0, 1), (), (2, 1)), 3, 2, 1, None))
    def test_decide_matches_reference_search(self, args):
        # the oracle settles what the driver settles before searching, with
        # zero stats where the driver writes none
        members, ncopies, r, d, budget = args
        inst = ArrowInstance("embedding", r, tuple((i,) for i in range(ncopies)),
                             tuple((j,) for j in range(len(members))), members)
        colors, stats, exhausted = oracle_search_bad_coloring(*args)
        res = check_instance(inst, "decide", d=d, budget=budget)
        assert res.verdict == (HOLDS if exhausted else
                               INCONCLUSIVE if colors is None else FAILS)
        assert res.coloring == (None if colors is None else
                                Coloring(r, tuple(zip(inst.copy_keys, colors))))
        settled = not members or r <= d or min(map(len, members)) <= d
        assert dict(res.stats) == ({} if settled else stats)

    @pytest.mark.parametrize("n,r,budget,verdict,nodes,prunes,early_exit", [
        (8, 3, None, FAILS, 29255, 58471, 1),
        (10, 3, 10_000, INCONCLUSIVE, 10001, 19979, 0),
        (6, 2, None, HOLDS, 493, 494, 0),
    ])
    def test_pinned_counts(self, n, r, budget, verdict, nodes, prunes, early_exit):
        # LO_n -> (LO_3)^LO_2_r at benchmark scale; the counts pin the
        # search order, so a change that reorders the search shows here
        inst = arrow_instance(linear_order(n), linear_order(3), linear_order(2), r)
        kw = {} if budget is None else {"budget": budget}
        res = check_instance(inst, "decide", **kw)
        assert res.verdict == verdict
        assert (res.stat("nodes"), res.stat("prunes"), res.stat("early_exit")) == \
            (nodes, prunes, early_exit)


class TestDegrees:
    def test_lower_bound_is_automorphism_count(self):
        assert ramsey_degree_lower(linear_order(3)) == 1
        assert ramsey_degree_lower(pure_set(3)) == 6
        assert ramsey_degree_lower(graph(2, [(0, 1)])) == 2

    def test_degree_below_lower_bound_is_impossible(self):
        out = ramsey_degree_upper_probe(pure_set(2), pure_set(3),
                                        [pure_set(4)], 1)
        assert out.verdict == "IMPOSSIBLE"
        assert out.lower == 2
        assert out.checked == ()

    def test_witness_scan_stops_at_first_success(self):
        candidates = [linear_order(n) for n in range(3, 8)]
        out = ramsey_degree_upper_probe(linear_order(2), linear_order(3),
                                        candidates, 1, r_cap=2)
        assert out.verdict == "WITNESS"
        assert out.witness.size == 6
        names = [row[0] for row in out.checked]
        assert names == ["LO_3", "LO_4", "LO_5", "LO_6"]
        assert all(row[2] == ((2, FAILS),) for row in out.checked[:-1])
        assert out.checked[-1][2] == ((2, HOLDS),)

    @pytest.mark.parametrize("r_cap", [0, 1])
    def test_colour_cap_must_exceed_the_degree(self, r_cap):
        # with no colour count above d to probe, LO_1 would pass as a witness
        with pytest.raises(ArrowError):
            ramsey_degree_upper_probe(linear_order(2), linear_order(3),
                                      [linear_order(1)], 1, r_cap=r_cap)

    def test_pattern_must_embed_in_target(self):
        with pytest.raises(ArrowError):
            ramsey_degree_upper_probe(linear_order(3), linear_order(2), [], 1)


class TestJointArrows:
    def test_single_pattern_refute_upgrades_to_holds(self):
        res = joint_arrow_check(linear_order(3), linear_order(2),
                                [linear_order(1)], rs=[2], mode="refute")
        assert res.verdict == HOLDS
        assert arrow_check(linear_order(3), linear_order(2),
                           linear_order(1), 2).verdict == HOLDS

    def test_joint_fails_on_two_points(self):
        res = joint_arrow_check(linear_order(2), linear_order(2),
                                [linear_order(1)], rs=[2], mode="refute")
        assert res.verdict == FAILS
        assert len(res.colorings) == 1

    def test_every_sampled_coloring_pair_is_witnessed(self):
        # one shared pair is monochromatic for points and for itself
        res = joint_arrow_check(linear_order(3), linear_order(2),
                                [linear_order(1), linear_order(2)],
                                rs=[2, 2], mode="sample", seed=5, samples=100)
        assert res.verdict == INCONCLUSIVE
        assert dict(res.stats)["witnessed"] == 100
        assert res.witness_key in res.instance.bcopy_keys

    def test_joint_failure_leaves_no_good_bcopy(self):
        res = joint_arrow_check(linear_order(5), linear_order(3),
                                [linear_order(2), linear_order(2)],
                                rs=[2, 2], mode="refute", samples=50)
        assert res.verdict == FAILS
        assert len(res.colorings) == 2

    def test_pattern_not_in_target_rejected(self):
        with pytest.raises(ArrowError):
            joint_instance(linear_order(4), linear_order(2),
                           [linear_order(3)], (2,), (1,))

    @pytest.mark.parametrize("mode", ["sample", "refute"])
    def test_one_pattern_joint_run_is_the_single_run(self, mode):
        # LO_5 -> (LO_3)^LO_2_2 fails and LO_6 -> (LO_3)^LO_2_2 holds after
        # 493 nodes, so small budgets leave the local search to run
        B, A = linear_order(3), linear_order(2)
        for n, budget, seed in itertools.product((4, 5, 6), (0, 7, 60, 2000),
                                                 range(3)):
            C = linear_order(n)
            joint = joint_arrow_check(C, B, [A], rs=[2], mode=mode, seed=seed,
                                      samples=50, budget=budget)
            single = check_instance(arrow_instance(C, B, A, 2), mode,
                                    seed=seed, samples=50, budget=budget)
            assert joint.verdict == single.verdict
            assert joint.colorings == (None if single.coloring is None
                                       else (single.coloring,))
            assert dict(joint.stats).get("nodes_0") == dict(single.stats).get("nodes")
            for key in ("steps", "samples", "witnessed"):
                assert dict(joint.stats).get(key) == dict(single.stats).get(key)

    @pytest.mark.parametrize("patterns,ds,live", [
        ((2, 3), (1, 1), 0),  # LO_3 has one copy in each B-copy
        ((3, 2), (1, 1), 1),
        ((1, 2), (2, 1), 1),  # LO_1 has 3 copies in each B-copy, but r = cap
    ])
    def test_one_live_pattern_joint_run_is_its_single_run(self, patterns, ds,
                                                          live):
        B = linear_order(3)
        for n, budget, seed in itertools.product((4, 5, 6), (0, 7, 60, 2000),
                                                 range(3)):
            C = linear_order(n)
            joint = joint_arrow_check(C, B, [linear_order(a) for a in patterns],
                                      [2, 2], ds, "refute", seed=seed,
                                      budget=budget)
            single = check_instance(
                arrow_instance(C, B, linear_order(patterns[live]), 2), "refute",
                seed=seed, budget=budget)
            assert joint.verdict == single.verdict
            if single.coloring is None:
                assert joint.colorings is None
            else:
                assert joint.colorings[live] == single.coloring
                dead = joint.colorings[1 - live]
                assert {c for _, c in dead.assignments} == {0}
            stats = dict(joint.stats)
            assert stats.pop(f"nodes_{live}") == single.stat("nodes")
            assert stats == {k: v for k, v in single.stats if k == "steps"}

    def test_a_dead_pattern_leaves_the_single_arrow_that_holds(self):
        # LO_8 -> (LO_3)^LO_2_2 holds (R(3,3) = 6), and LO_3 can never leave
        # cap 1 inside a copy of itself; the local search once spent the
        # other 500,000 steps and answered INCONCLUSIVE
        res = joint_arrow_check(linear_order(8), linear_order(3),
                                [linear_order(2), linear_order(3)], [2, 2],
                                [1, 1], "refute", seed=4, budget=10**6)
        assert res.verdict == HOLDS
        assert dict(res.stats) == {"nodes_0": 6007}

    def test_a_bcopy_stuck_across_live_parts_holds(self):
        # both parts are live through B-copy 1, and B-copy 0 has one member
        # in each, so it keeps both caps whatever the coloring
        members = (((0,), (0, 1)), ((0,), (0, 1)))
        assert oracle_joint_holds(2, members, (2, 2), (2, 2), (1, 1))
        assert _live_parts(members, (2, 2), (1, 1)) == [0, 1]
        assert _run(2, members, (2, 2), (2, 2), (1, 1), "refute", 0, 100, 0) == \
            (HOLDS, None, {}, {}, None)

    def test_zero_patterns_witness_the_first_bcopy(self):
        res = joint_arrow_check(linear_order(4), linear_order(2), [], rs=[],
                                ds=[], mode="sample", samples=30)
        assert res.verdict == INCONCLUSIVE
        assert dict(res.stats)["witnessed"] == 30
        assert res.witness_key == res.instance.bcopy_keys[0] == (0, 1)

    def test_unknown_joint_mode(self):
        with pytest.raises(ArrowError):
            joint_arrow_check(linear_order(3), linear_order(2),
                              [linear_order(1)], mode="decide")


class TestBuildJointWitness:
    def test_linear_order_composition(self):
        supply = [linear_order(n) for n in range(1, 13)]
        out = build_joint_witness(supply, linear_order(3),
                                  [linear_order(1), linear_order(2)])
        assert out.verdict == "WITNESS"
        assert out.witness.size == 11
        # stages run from the last pattern back to the first
        assert [s.pattern_index for s in out.stages] == [1, 0]
        assert out.stages[0].witness_name == "LO_6"
        assert out.stages[1].witness_name == "LO_11"

    def test_no_patterns_returns_target(self):
        out = build_joint_witness([], linear_order(3), [])
        assert out.verdict == "WITNESS"
        assert out.witness.size == 3

    def test_exhausted_supply_is_inconclusive(self):
        out = build_joint_witness([linear_order(4)], linear_order(3),
                                  [linear_order(2)])
        assert out.verdict == "INCONCLUSIVE"
        assert out.witness is None
        assert out.stages[0].witness_name is None


class TestTermIterationColoring:
    def test_chain_parity_coloring(self):
        chain = successor_chain(10)
        col = term_iteration_coloring(chain, (0,), parse_term("s(x0)"))
        assert {col.color_of((i,)) for i in range(10)} == {0, 1}
        for i in range(10):
            assert col.color_of((i,)) == i % 2
        # no point and its successor share a color
        for i in range(9):
            assert col.color_of((i,)) != col.color_of((i + 1,))

    def test_undefined_step_rejected(self):
        chain = successor_chain(10)
        with pytest.raises(TermColoringError):
            term_iteration_coloring(chain, (9,), parse_term("s(x0)"))

    def test_identity_step_rejected(self):
        with pytest.raises(TermColoringError):
            term_iteration_coloring(successor_chain(5), (0,),
                                    parse_term("x0"))

    def test_periodic_orbit_rejected(self):
        cyc = Structure(FN_SIG, 4, {"E": set()},
                        {"s": {(i,): (i + 1) % 4 for i in range(4)}}, {})
        with pytest.raises(TermColoringError):
            term_iteration_coloring(cyc, (0,), parse_term("s(x0)"))

    def test_noninjective_step_rejected(self):
        merge = Structure(FN_SIG, 3, {"E": set()},
                          {"s": {(0,): 2, (1,): 2}}, {})
        with pytest.raises(TermColoringError):
            term_iteration_coloring(merge, (0,), parse_term("s(x0)"))

    def test_unbound_variable_rejected(self):
        with pytest.raises(TermColoringError):
            term_iteration_coloring(successor_chain(5), (0,),
                                    parse_term("s(x1)"))


class TestPromotion:
    POINT = Structure(FN_SIG, 1, {"E": set()}, {"s": {}}, {}, name="pt")

    def test_whole_domain_point_set(self):
        # only the chain tail realizes the bare point type, only the last
        # link realizes the 2-chain type, so both instances are tiny
        out = promote_arrow_witness(successor_chain(4), self.POINT, (0, 1),
                                    successor_chain(2))
        assert out.precheck.verdict == HOLDS
        assert out.recheck.verdict in (INCONCLUSIVE, HOLDS)
        assert out.structure.size == 4

    def test_nongenerating_point_set_rejected(self):
        with pytest.raises(ArrowError):
            promote_arrow_witness(successor_chain(5), self.POINT, (1,),
                                  successor_chain(3))

    def test_escaping_copies_rejected(self):
        # (0,) generates the 3-chain but the point also embeds at 1 and 2
        with pytest.raises(ArrowError):
            promote_arrow_witness(successor_chain(5), self.POINT, (0,),
                                  successor_chain(3))


class TestCnfExport:
    def test_dimacs_shape(self):
        inst = arrow_instance(linear_order(4), linear_order(3),
                              linear_order(2), 2)
        lines = render_cnf(inst).strip().splitlines()
        comments = [ln for ln in lines if ln.startswith("c ")]
        clauses = [ln for ln in lines if ln[0] not in "cp"]
        header = next(ln for ln in lines if ln.startswith("p ")).split()
        assert comments and "kind=embedding" in comments[0]
        assert header[:2] == ["p", "cnf"]
        assert int(header[2]) == len(inst.copy_keys) * inst.r
        assert int(header[3]) == len(clauses)
        assert all(ln.endswith(" 0") for ln in clauses)

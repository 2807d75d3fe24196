"""Embeddings: preservation both ways, enumeration, automorphisms."""

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (Embedding, EmbeddingError, Structure, automorphism_group,
                       embeds, enumerate_embeddings, first_embedding, is_rigid,
                       linear_order, pure_set)

from conftest import CONST_SIG, binary_structures, functional_structures, graph
from oracles import oracle_embeddings


def draw_pin(data, host, pattern):
    """No pin, or one pattern element pinned to one host element."""
    if not data.draw(st.booleans()):
        return None
    return {data.draw(st.integers(0, pattern.size - 1)):
            data.draw(st.integers(0, host.size - 1))}


def assert_matches_oracle(host, pattern, fixed):
    """Enumeration equals the oracle; first_embedding and embeds agree with it."""
    got = [e.mapping for e in enumerate_embeddings(host, pattern, fixed=fixed)]
    want = sorted(m for m in oracle_embeddings(host, pattern)
                  if all(m[k] == v for k, v in (fixed or {}).items()))
    assert got == want
    first = first_embedding(host, pattern, fixed=fixed)
    assert (first.mapping if first else None) == (got[0] if got else None)
    assert embeds(host, pattern, fixed=fixed) == bool(got)


class TestEmbeddingObject:
    def test_relations_reflected_not_just_preserved(self):
        # homomorphism squashing a non-edge onto an edge must be rejected
        p2 = graph(2, [])
        k2 = graph(2, [(0, 1)])
        with pytest.raises(EmbeddingError):
            Embedding(p2, k2, (0, 1)).validate()
        assert not Embedding(p2, k2, (0, 1)).is_valid()

    def test_injectivity_required(self):
        a = pure_set(2)
        with pytest.raises(EmbeddingError):
            Embedding(a, pure_set(3), (1, 1)).validate()

    def test_function_values_carried_forward(self):
        chain = Structure(CONST_SIG, 3, {"E": set()},
                          {"s": {(0,): 1, (1,): 2}}, {"e": 0})
        sub = Structure(CONST_SIG, 2, {"E": set()},
                        {"s": {(0,): 1}}, {"e": 0})
        assert Embedding(sub, chain, (0, 1)).is_valid()
        # undefined pattern entries stay free, so the host embeds its
        # own initial segment even though s is total there and not here
        assert embeds(chain, sub)

    def test_compose(self):
        lo2, lo3, lo5 = linear_order(2), linear_order(3), linear_order(5)
        inner = Embedding(lo2, lo3, (0, 2))
        outer = Embedding(lo3, lo5, (1, 2, 4))
        assert outer.compose(inner).mapping == (1, 4)


class TestEnumeration:
    def test_sorted_by_mapping(self):
        maps = [e.mapping for e in enumerate_embeddings(linear_order(4),
                                                        linear_order(2))]
        assert maps == sorted(maps)
        assert len(maps) == 6

    def test_fixed_pins(self):
        pins = {0: 2}
        maps = [e.mapping for e in enumerate_embeddings(
            linear_order(4), linear_order(2), fixed=pins)]
        assert maps == [(2, 3)]

    @pytest.mark.parametrize("pins", [{0: -1}, {0: 5}, {0: 2}, {-1: 0}, {1: 0}],
                             ids=["negative-image", "image-past-host",
                                  "image-at-host-size", "negative-element",
                                  "element-past-pattern"])
    def test_pin_outside_domains_rejected(self, pins):
        with pytest.raises(EmbeddingError):
            first_embedding(pure_set(2), pure_set(1), fixed=pins)
        with pytest.raises(EmbeddingError):
            enumerate_embeddings(pure_set(2), pure_set(1), fixed=pins)

    def test_first_embedding_none(self):
        assert first_embedding(pure_set(2), pure_set(3)) is None

    @settings(max_examples=100, deadline=None)
    @given(binary_structures(max_size=4), binary_structures(max_size=3), st.data())
    def test_matches_oracle(self, host, pattern, data):
        assert_matches_oracle(host, pattern, draw_pin(data, host, pattern))

    @settings(max_examples=60, deadline=None)
    @given(functional_structures(max_size=4), functional_structures(max_size=3),
           st.data())
    def test_matches_oracle_with_functions(self, host, pattern, data):
        assert_matches_oracle(host, pattern, draw_pin(data, host, pattern))

    @settings(max_examples=60, deadline=None)
    @given(binary_structures(max_size=4), binary_structures(max_size=3))
    def test_every_result_revalidates(self, host, pattern):
        for e in enumerate_embeddings(host, pattern):
            assert e.is_valid()


class TestAutomorphisms:
    def test_counts(self):
        assert len(automorphism_group(linear_order(5))) == 1
        assert len(automorphism_group(pure_set(3))) == 6
        assert len(automorphism_group(graph(2, [(0, 1)]))) == 2
        pentagon = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert len(automorphism_group(pentagon)) == 10

    def test_rigidity(self):
        assert is_rigid(linear_order(4))
        assert not is_rigid(pure_set(2))

    def test_group_closure_under_composition(self):
        g = automorphism_group(graph(3, [(0, 1)]))
        maps = {e.mapping for e in g.elements}
        for a in g.elements:
            for b in g.elements:
                assert a.compose(b).mapping in maps

"""Matching construction, arc statistics, and component structure."""

import itertools
import random

import pytest
from hypothesis import given, settings

from strategies import matchings
from wedgematch import (
    Edge,
    InvalidMatchingError,
    Matching,
    ParseError,
    concatenate,
)
from wedgematch.enumeration import all_matchings
from wedgematch.matching import _stacking

FIGURE_PAIRS = [(1, 3), (2, 7), (4, 6), (5, 8), (9, 10)]


def raw_pair_stats(pairs):
    """Independent O(n^2) oracle: classify every pair from scratch."""
    cr = ne = al = 0
    for (a, b), (c, d) in itertools.combinations(sorted(pairs), 2):
        if a < c < b < d:
            cr += 1
        elif a < c < d < b:
            ne += 1
        else:
            al += 1
    return cr, ne, al


# -- construction ---------------------------------------------------------


def test_from_pairs_normalizes_and_sizes():
    m = Matching.from_pairs([(3, 1), (2, 4)])
    assert m.n == 2
    assert m.edges == (Edge(1, 3), Edge(2, 4))
    assert m.partner_of(1) == 3
    assert m.partner_of(4) == 2


def test_from_pairs_unique_matching_on_two_points():
    m = Matching.from_pairs([(1, 2)], n=1)
    assert m.partner == (2, 1)


def test_from_pairs_duplicate_vertex():
    with pytest.raises(InvalidMatchingError, match="vertex 3 used twice"):
        Matching.from_pairs([(1, 3), (2, 3)])


def test_from_pairs_out_of_range():
    with pytest.raises(InvalidMatchingError, match="vertex 9 out of range"):
        Matching.from_pairs([(1, 9), (2, 3)])


def test_from_pairs_wrong_count():
    with pytest.raises(InvalidMatchingError, match="expected 3 pairs, got 2"):
        Matching.from_pairs([(1, 2), (3, 4)], n=3)


def test_from_pairs_self_loop():
    with pytest.raises(InvalidMatchingError, match="repeats vertex 2"):
        Matching.from_pairs([(2, 2), (1, 3)], n=2)


def test_partner_table_must_be_involution():
    with pytest.raises(InvalidMatchingError):
        Matching((2, 3, 1, 4))  # not an involution
    with pytest.raises(InvalidMatchingError):
        Matching((1, 2))  # fixed points
    with pytest.raises(InvalidMatchingError):
        Matching((2, 1, 4))  # odd length


def test_empty_matching_is_accepted():
    m = Matching(())
    assert m.n == 0
    assert m.edges == ()
    assert m.crossings() == m.nestings() == m.alignments() == 0
    assert m.st_total() == 0
    assert m.irreducible_components() == []
    assert m.to_text() == ""


# -- text and JSON forms ----------------------------------------------------


def test_text_round_trip_and_whitespace():
    m = Matching.from_pairs(FIGURE_PAIRS)
    assert m.to_text() == "(1,3),(2,7),(4,6),(5,8),(9,10)"
    assert Matching.from_text(" ( 1 , 3 ) , (2,7),(4,6),(5,8),(9,10) ") == m


def test_from_text_malformed():
    with pytest.raises(ParseError):
        Matching.from_text("1,3")
    with pytest.raises(ParseError):
        Matching.from_text("(1,3),(2,x)")
    for text in ("(1,2)(3,4)", "(1,2),,(3,4)", ",(1,2),"):
        with pytest.raises(ParseError):
            Matching.from_text(text)


def test_json_round_trip():
    m = Matching.from_pairs(FIGURE_PAIRS)
    assert Matching.from_json_value(m.to_json_value()) == m


# -- global statistics --------------------------------------------------------


def test_figure_matching_statistics():
    m = Matching.from_pairs(FIGURE_PAIRS)
    assert (m.crossings(), m.nestings(), m.alignments()) == (3, 1, 6)


def test_disjoint_arcs_align():
    m = Matching.from_pairs([(1, 2), (3, 4)])
    assert (m.crossings(), m.nestings(), m.alignments()) == (0, 0, 1)


def test_fully_nested_triple():
    m = Matching.from_pairs([(1, 6), (2, 5), (3, 4)])
    assert m.nestings() == 3
    assert m.crossings() == 0


@given(matchings())
def test_counts_match_oracle_and_sum(m):
    cr, ne, al = raw_pair_stats([tuple(e) for e in m.edges])
    assert (m.crossings(), m.nestings(), m.alignments()) == (cr, ne, al)
    assert cr + ne + al == m.n * (m.n - 1) // 2


@settings(max_examples=30, deadline=None)
@given(matchings(max_n=300))
def test_sweeps_match_references_large_n(m):
    pairs = [tuple(e) for e in m.edges]
    assert (m.crossings(), m.nestings(), m.alignments()) == raw_pair_stats(pairs)
    assert m.st_total() == sum(m.st_component(i) for i in range(1, m.n))


# -- stacking statistic ---------------------------------------------------------


def test_st_component_examples():
    m = Matching.from_pairs(FIGURE_PAIRS)
    assert m.st_component(2) == 1  # (2,7) over (4,6): only vertex 6 counts
    assert m.st_component(1) == 0  # (1,3) and (2,7) cross
    deep = Matching.from_pairs([(1, 6), (2, 5), (3, 4)])
    assert deep.st_component(1) == 1
    assert deep.st_component(2) == 1


def test_st_component_index_errors():
    m = Matching.from_pairs(FIGURE_PAIRS)
    with pytest.raises(IndexError):
        m.st_component(0)
    with pytest.raises(IndexError):
        m.st_component(5)


def test_st_total_examples():
    assert Matching.from_pairs(FIGURE_PAIRS).st_total() == 1
    assert Matching.from_pairs([(1, 2), (3, 4), (5, 6)]).st_total() == 0
    assert Matching.from_pairs([(1, 6), (2, 5), (3, 4)]).st_total() == 2
    assert Matching.from_pairs([(1, 2)]).st_total() == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_st_component_positive_exactly_when_nested(n):
    for m in all_matchings(n):
        for i in range(1, n):
            (a, b), (c, d) = m.edges[i - 1], m.edges[i]
            nested = a < c < d < b
            assert (m.st_component(i) >= 1) == nested
        assert m.st_total() == sum(m.st_component(i) for i in range(1, n))


def _random_matching(rng, n):
    order = list(range(1, 2 * n + 1))
    rng.shuffle(order)
    return Matching.from_pairs(zip(order[::2], order[1::2]))


def test_stacking_sweep_matches_st_component():
    # The one-sweep per-index values against the windowed reference, on
    # every matching up to n=6 and on seeded random ones at n=256.
    rng = random.Random(256)
    sample = [_random_matching(rng, 256) for _ in range(20)]
    for m in itertools.chain.from_iterable(
        [all_matchings(n) for n in range(1, 7)] + [sample]
    ):
        assert _stacking(m.partner) == [m.st_component(i) for i in range(1, m.n)]


@pytest.mark.parametrize("kernel", ["_arc_counts", "_stacking", "_sweep"])
def test_a_sweep_refuses_a_vertex_closed_while_no_arc_is_open(kernel):
    # In (3, 1, 1, 2, 6, 5), vertex 2 closes the one open arc and vertex 3
    # then closes another: the sweeps raise InvalidMatchingError, which the
    # harness reports as a failed claim, not an IndexError.
    import wedgematch.matching as matching

    with pytest.raises(InvalidMatchingError, match="never opened"):
        getattr(matching, kernel)((3, 1, 1, 2, 6, 5))


# -- irreducible components ------------------------------------------------------


def test_components_of_figure_matching():
    m = Matching.from_pairs(FIGURE_PAIRS)
    comps = m.irreducible_components()
    assert [(off, c.to_text()) for off, c in comps] == [
        (0, "(1,3),(2,7),(4,6),(5,8)"),
        (8, "(1,2)"),
    ]


def test_components_simple_cases():
    assert len(Matching.from_pairs([(1, 2), (3, 4)]).irreducible_components()) == 2
    assert len(Matching.from_pairs([(1, 4), (2, 3)]).irreducible_components()) == 1


@pytest.mark.parametrize("n", range(1, 5))
def test_components_idempotent_and_concatenation(n):
    for m in all_matchings(n):
        comps = m.irreducible_components()
        for _, c in comps:
            assert len(c.irreducible_components()) == 1
        assert concatenate(c for _, c in comps) == m


@given(matchings())
def test_component_round_trip_random(m):
    comps = m.irreducible_components()
    assert concatenate(c for _, c in comps).partner == m.partner
    offsets = [off for off, _ in comps]
    assert offsets == sorted(offsets)

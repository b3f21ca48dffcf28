"""Wedge path construction, step strings, statistics, and components."""

import itertools

import pytest
from hypothesis import given

from strategies import wedge_paths
from wedgematch import (
    InvalidPathError,
    ParseError,
    WedgePath,
    concatenate_paths,
)
from wedgematch.enumeration import all_paths, double_factorial


def walk(steps: str) -> tuple[int, int]:
    """Independent endpoint oracle: follow the steps by hand."""
    x = y = 0
    for ch in steps:
        x += ch == "E"
        y += (ch == "N") - (ch == "S")
    return x, y


# -- construction -----------------------------------------------------------


def test_from_heights_basic():
    p = WedgePath([0, -1])
    assert p.to_steps() == "ESES"
    assert walk(p.to_steps()) == (2, -2)


def test_from_heights_bound_violation():
    with pytest.raises(InvalidPathError, match=r"height 2 at east step 2"):
        WedgePath([0, 2])
    with pytest.raises(InvalidPathError, match=r"height -1 at east step 1"):
        WedgePath([-1])


def test_from_heights_singleton():
    assert WedgePath([0]).to_steps() == "ES"


def test_empty_heights_rejected():
    with pytest.raises(InvalidPathError):
        WedgePath(())


# -- step strings --------------------------------------------------------------


def test_parse_steps_examples():
    assert WedgePath.parse_steps("ESES").heights == (0, -1)
    assert WedgePath.parse_steps("ENESSS").heights == (0, 1)
    assert WedgePath.parse_steps("ES").heights == (0,)


def test_parse_steps_bad_endpoint():
    with pytest.raises(InvalidPathError, match="ends at"):
        WedgePath.parse_steps("EN")


def test_parse_steps_wedge_violation():
    with pytest.raises(InvalidPathError, match="leaves the wedge"):
        WedgePath.parse_steps("NE")
    with pytest.raises(InvalidPathError, match="leaves the wedge"):
        WedgePath.parse_steps("ESS")


def test_parse_steps_vertical_reversal():
    with pytest.raises(InvalidPathError, match="reverses"):
        WedgePath.parse_steps("ESNESS")


def test_parse_steps_bad_characters():
    with pytest.raises(ParseError):
        WedgePath.parse_steps("EXS")
    with pytest.raises(ParseError):
        WedgePath.parse_steps("")


def test_height_text_round_trip():
    p = WedgePath((0, -1, 0))
    assert p.to_height_text() == "0,-1,0"
    assert WedgePath.from_height_text("0,-1,0") == p
    with pytest.raises(ParseError):
        WedgePath.from_height_text("0,x")


def test_json_round_trip():
    p = WedgePath((0, 1, -2))
    assert WedgePath.from_json_value(p.to_json_value()) == p


@pytest.mark.parametrize("n", range(1, 6))
def test_step_and_height_round_trips_exhaustive(n):
    for p in all_paths(n):
        assert WedgePath.parse_steps(p.to_steps()) == p
        assert WedgePath.from_height_text(p.to_height_text()) == p


# -- statistics ------------------------------------------------------------------


def test_north_steps_examples():
    assert WedgePath((0, 1, 0)).north_steps() == 1
    assert WedgePath((0, -1, -2)).north_steps() == 0
    assert WedgePath((0, 1, 2)).north_steps() == 2


def test_final_south_run_examples():
    assert WedgePath((0,)).final_south_run() == 1
    assert WedgePath((0, 1)).final_south_run() == 3
    assert WedgePath((0, -1)).final_south_run() == 1


def test_is_dyck_examples():
    assert WedgePath((0, 0, -1)).is_dyck()
    assert not WedgePath((0, 1)).is_dyck()
    assert WedgePath((0, -1, -2)).is_dyck()


@given(wedge_paths())
def test_step_bookkeeping(p):
    steps = p.to_steps()
    assert p.north_steps() == steps.count("N")
    assert p.south_steps() == steps.count("S")
    assert p.east_steps() == steps.count("E") == p.n
    assert len(steps) == 2 * p.n + 2 * p.north_steps()
    assert walk(steps) == (p.n, -p.n)
    assert p.is_dyck() == (len(steps) == 2 * p.n)


# -- reversed reading of Dyck paths -------------------------------------------------


def test_reversed_south_positions_examples():
    assert WedgePath((0,)).reversed_south_positions() == {1}
    assert WedgePath((0, 0)).reversed_south_positions() == {1, 2}
    assert WedgePath((0, -1)).reversed_south_positions() == {1, 3}


def test_reversed_south_positions_requires_dyck():
    with pytest.raises(ValueError, match="Dyck"):
        WedgePath((0, 1)).reversed_south_positions()


# -- components -----------------------------------------------------------------------


def test_components_examples():
    assert [c.heights for c in WedgePath((0, -1, -2)).components()] == [
        (0,),
        (0,),
        (0,),
    ]
    assert [c.heights for c in WedgePath((0, 1)).components()] == [(0, 1)]
    assert [c.heights for c in WedgePath((0, -1, 0)).components()] == [(0,), (0, 1)]


@pytest.mark.parametrize("n", range(1, 6))
def test_components_concatenate_exhaustive(n):
    for p in all_paths(n):
        pieces = p.components()
        assert concatenate_paths(pieces) == p
        for piece in pieces:
            assert len(piece.components()) == 1


@given(wedge_paths())
def test_components_concatenate_random(p):
    assert concatenate_paths(p.components()) == p


# -- counting ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_family_size_is_double_factorial(n):
    # independent: each height ranges over 2i-1 values
    expected = 1
    for i in range(1, n + 1):
        expected *= 2 * i - 1
    seen = {p.heights for p in all_paths(n)}
    assert len(seen) == expected == double_factorial(n)

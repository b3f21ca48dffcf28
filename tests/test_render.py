"""Deterministic arc-diagram and path pictures."""

import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

from wedgematch import Matching, WedgePath
from wedgematch.enumeration import all_matchings, all_paths
from wedgematch.render import (
    SVG_FORMAT_VERSION,
    render_ascii,
    render_svg,
)


def test_ascii_nested_pair():
    out = render_ascii(Matching.from_pairs([(1, 4), (2, 3)]))
    assert out == "+-----+\n| +-+ |\n1 2 3 4\n"


def test_ascii_crossings_marked():
    out = render_ascii(Matching.from_pairs([(1, 3), (2, 4)]))
    lines = out.splitlines()
    assert lines[-1] == "1 2 3 4"
    # the wider arc's horizontal is pierced by the narrow arc's vertical
    assert "+" in lines[0] and any("|" in line or "+" in line for line in lines[:-1])


def test_ascii_path_smallest():
    assert render_ascii(WedgePath((0,))) == "+-+\n  |\n  +\n"


def test_ascii_path_two_steps():
    assert render_ascii(WedgePath((0, -1))) == "+-+\n  |\n  +-+\n    |\n    +\n"


def test_ascii_path_shows_wedge_guides():
    out = render_ascii(WedgePath((0, 0, -2)))
    assert "\\" in out  # unvisited y = -x lattice point


def test_ascii_uses_printable_characters_only():
    for obj in (Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8), (9, 10)]),
                WedgePath((0, 1, 0, -3))):
        out = render_ascii(obj)
        assert all(ch == "\n" or ch.isprintable() for ch in out)


def test_svg_path_unit_segments():
    path = WedgePath.parse_steps("ESES")
    svg = render_svg(path)
    ET.fromstring(svg)  # well-formed XML
    assert svg.count('class="step"') == len(path.to_steps()) == 4
    assert SVG_FORMAT_VERSION in svg


def test_svg_matching_arcs():
    m = Matching.from_pairs([(1, 4), (2, 3)])
    svg = render_svg(m)
    ET.fromstring(svg)
    assert svg.count("<path ") == m.n
    assert svg.count("<circle ") == 2 * m.n
    assert SVG_FORMAT_VERSION in svg


def test_render_deterministic():
    m = Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8), (9, 10)])
    assert render_svg(m) == render_svg(m)
    assert render_ascii(m) == render_ascii(m)


# sha256 of render_svg then render_ascii of every object, all_matchings(n)
# then all_paths(n) in stream order.  These pin the exact picture bytes.
PICTURE_DIGESTS = {
    1: "1acfdec3aaca72040f44e1db0d1dcdde5183a1f5f09f594f0fb1cec6f209009c",
    2: "51453e808aeea701e5c724495776838ba589f54f3a8cd10ac217d1b1f5860000",
    3: "6718daa04760e77e12f983d7714f150e5ab57458ab280521fcad18ac35ec30fc",
    4: "5f88f3e887fe077032d424931a2e769707827c23f94fd53298558fc81c238c99",
    5: "5427a1af62321af45401d6d02f51817fb6954fa2426641fde7240707e19e4055",
}

# sha256 of render_svg of one random matching per size, seeded by the size.
LARGE_SVG_DIGESTS = {
    64: "bebae63e14b037ace1ec6c2d4e25a64a319926e473c8394c66dc17702bee6db4",
    256: "32d0f1e583dc7f13f66dcd1db1c52f9abda25631770d5273d5f45a88097f0543",
    1024: "6061f34fccbc8fe52f0ce358a19dab9f199a2f3a2657885d375d6385edce8321",
}


@pytest.mark.parametrize("n", sorted(PICTURE_DIGESTS))
def test_picture_golden_digest(n):
    digest = hashlib.sha256()
    for obj in (*all_matchings(n), *all_paths(n)):
        digest.update(render_svg(obj).encode())
        digest.update(render_ascii(obj).encode())
    assert digest.hexdigest() == PICTURE_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(LARGE_SVG_DIGESTS))
def test_large_matching_svg_golden_digest(n):
    order = list(range(1, 2 * n + 1))
    random.Random(n).shuffle(order)
    m = Matching.from_pairs(zip(order[::2], order[1::2]))
    assert hashlib.sha256(render_svg(m).encode()).hexdigest() == LARGE_SVG_DIGESTS[n]

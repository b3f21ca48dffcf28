"""The insertion bijection, the three-case rearrangement, and their composite."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings

from strategies import matchings, wedge_paths
from wedgematch import (
    InsertionCode,
    InvalidMatchingError,
    Matching,
    WedgePath,
    big_phi,
    big_phi_inv,
    concatenate,
    insertion_code,
    path_from_code,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from wedgematch.bijections import (
    _check_code,
    _offsets,
    _partner_from_code,
    _partners,
    _phi_inv_code,
    _phi_inv_step,
    _phi_step,
    _phi_walk,
)
from wedgematch.cli import main
from wedgematch.enumeration import _code_tree, all_matchings, all_paths
from wedgematch.matching import _blocks, _sweep

EXAMPLE_IMAGE = [(1, 4), (2, 14), (3, 12), (5, 8), (6, 9), (7, 11), (10, 13)]


# -- insertion codes -------------------------------------------------------


def test_insertion_code_examples():
    assert insertion_code(WedgePath((0,))).b == (1,)
    assert insertion_code(WedgePath((0, 1))).b == (3, 1)
    assert insertion_code(WedgePath((0, 1, 0))).b == (3, 3, 1)


def test_insertion_code_bounds_validated():
    with pytest.raises(ValueError):
        InsertionCode((4, 1))  # 4 > 2*2-1
    with pytest.raises(ValueError):
        InsertionCode((1, 0))


def test_path_from_code_examples():
    assert path_from_code(InsertionCode((3, 1))).heights == (0, 1)
    assert path_from_code(InsertionCode((1, 1, 1, 1))).heights == (0, -1, -2, -3)
    assert path_from_code(InsertionCode((7, 5, 3, 1))).heights == (0, 1, 2, 3)


@given(wedge_paths())
def test_code_round_trip(p):
    assert path_from_code(insertion_code(p)) == p


# -- the insertion map --------------------------------------------------------


def test_psi_examples():
    assert psi(WedgePath((0,))).to_text() == "(1,2)"
    assert psi(WedgePath((0, 1))).to_text() == "(1,4),(2,3)"
    assert psi(WedgePath((0, 1, 0))).to_text() == "(1,4),(2,6),(3,5)"


def test_psi_inv_examples():
    assert psi_inv(Matching.from_pairs([(1, 2)])).heights == (0,)
    assert psi_inv(Matching.from_pairs([(1, 4), (2, 3)])).heights == (0, 1)
    assert psi_inv(Matching.from_pairs([(1, 3), (2, 4)])).heights == (0, 0)


def test_psi_inv_rejects_empty_matching():
    with pytest.raises(InvalidMatchingError):
        psi_inv(Matching(()))
    with pytest.raises(InvalidMatchingError, match="empty matching has no path preimage"):
        big_phi_inv(Matching(()))


def _free_list_code(m):
    """Reference decoder: undo the insertion steps one by one on the list of
    free vertices, as the insertion procedure itself runs."""
    free = list(range(1, 2 * m.n + 1))
    b = []
    for _ in range(m.n):
        mate = m.partner_of(free[0])
        b.append(free.index(mate))
        free.remove(mate)
        free.pop(0)
    return tuple(b)


def _check_code_sweep(m):
    code = _sweep(m.partner)
    assert code == _free_list_code(m)
    p = path_from_code(InsertionCode(code))
    assert big_phi(p) == phi(psi(p))
    assert big_phi_inv(m) == psi_inv(phi_inv(m))


@pytest.mark.parametrize("n", range(1, 7))
def test_code_sweep_matches_free_list_exhaustive(n):
    for m in all_matchings(n):
        _check_code_sweep(m)


@given(matchings(max_n=300))
@settings(deadline=None)
def test_code_sweep_matches_free_list_random(m):
    _check_code_sweep(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_first_block_of_an_insertion_has_the_leading_code(n):
    # The insertion of b pairs the first free vertex at each step, so if its
    # first block has s edges, steps 1..s build that block on vertices
    # 1..2s and steps s+1..n insert b[s:] on the vertices after it.
    for b in itertools.product(*(range(1, 2 * (n - i) + 2) for i in range(1, n + 1))):
        m = _partner_from_code(b)
        end = len(_blocks(m)[0][1])
        s = end // 2
        assert _sweep(m[:end]) == b[:s], b
        assert m[end:] == tuple(v + end for v in _partner_from_code(b[s:])), b


# -- the rearrangement ------------------------------------------------------------


def test_phi_examples():
    assert (
        phi(Matching.from_pairs([(1, 6), (2, 5), (3, 4)])).to_text()
        == "(1,6),(2,3),(4,5)"
    )
    assert phi(Matching.from_pairs([(1, 3), (2, 4)])).to_text() == "(1,3),(2,4)"
    assert phi(Matching.from_pairs([(1, 2)])).to_text() == "(1,2)"
    # nested, with one edge crossing both first edges and one the outer only
    assert (
        phi(Matching.from_pairs([(1, 6), (2, 4), (3, 8), (5, 7)])).to_text()
        == "(1,6),(2,8),(3,5),(4,7)"
    )
    # crossed at every level
    assert (
        phi(Matching.from_pairs([(1, 5), (2, 6), (3, 7), (4, 8)])).to_text()
        == "(1,5),(2,6),(3,7),(4,8)"
    )


def test_phi_inv_examples():
    assert (
        phi_inv(Matching.from_pairs([(1, 6), (2, 3), (4, 5)])).to_text()
        == "(1,6),(2,5),(3,4)"
    )
    assert phi_inv(Matching.from_pairs([(1, 2)])).to_text() == "(1,2)"
    assert (
        phi_inv(Matching.from_pairs([(1, 6), (2, 4), (3, 8), (5, 7)])).to_text()
        == "(1,6),(2,8),(3,5),(4,7)"
    )
    assert (
        phi_inv(Matching.from_pairs([(1, 5), (2, 6), (3, 7), (4, 8)])).to_text()
        == "(1,5),(2,6),(3,7),(4,8)"
    )


def test_phi_inv_of_published_image():
    image = Matching.from_pairs(EXAMPLE_IMAGE)
    pre = phi_inv(image)
    assert phi(pre) == image
    assert pre.st_total() == 8
    assert pre.first_edge == image.first_edge == (1, 4)


@pytest.mark.parametrize("n", range(1, 5))
def test_phi_round_trips_exhaustive(n):
    for m in all_matchings(n):
        fm = phi(m)
        assert phi_inv(fm) == m
        assert phi(phi_inv(m)) == m
        assert fm.nestings() == m.st_total()
        assert fm.first_edge == m.first_edge


# sha256 of "<image>.to_text()\n" over all_matchings(n) in stream order, as
# (phi, phi_inv).  The claims do not determine phi uniquely; these pin its
# exact output.  n=7 (too slow for the suite) gives b53132dd.../586b559b...
PHI_DIGESTS = {
    1: ("82fb7f354fa62efa66d874e51717795aaa392ab0589d0879df06a643909610d8",
        "82fb7f354fa62efa66d874e51717795aaa392ab0589d0879df06a643909610d8"),
    2: ("a581d257b47f53341afd89e150ba5d137fe0664f37ab82b0a1e89c8d1be4be8d",
        "a581d257b47f53341afd89e150ba5d137fe0664f37ab82b0a1e89c8d1be4be8d"),
    3: ("4e2bb561ea52d6f0f9fa95aab36f1fbd311387437908f75f0b099c956ee07023",
        "4e2bb561ea52d6f0f9fa95aab36f1fbd311387437908f75f0b099c956ee07023"),
    4: ("63e8dcc73f8fbcbabbb9eeb2b216fbd704a20a613bf4267a7a0026b5fe3f27b7",
        "f077ec8d474cacd69bc73d03a193cc177da2c9e463768e4cbf2726161a9da05b"),
    5: ("f18f52f67b73fc07019b733898993a27908db0622a7d9e09fd446302445a4164",
        "ebd92982ca6500193cf9ceadad9c57901c68d6cd14cdefee05babbb8e77d9120"),
    6: ("7a8022a116aabcf277a5ae7d33a36bfbf746f4fc997a662fa524c68dbdc25126",
        "67c35c18d71963cd174566585f1b8251267229489eaf6581374e8ba16975154a"),
}


@pytest.mark.parametrize("n", sorted(PHI_DIGESTS))
def test_phi_golden_digest(n):
    forward, inverse = hashlib.sha256(), hashlib.sha256()
    for m in all_matchings(n):
        forward.update((phi(m).to_text() + "\n").encode())
        inverse.update((phi_inv(m).to_text() + "\n").encode())
    assert (forward.hexdigest(), inverse.hexdigest()) == PHI_DIGESTS[n]


# The same digests, as (phi, phi_inv), over 50 seeded random codes at each of
# n = 8, 16, 64 and 256, far past the exhaustive sizes above.
PHI_SAMPLED_DIGESTS = (
    "dce56aedf065776c1d8bf15244a63851582811ee032390dacf7ab432f2019254",
    "6216f68945f1b98436a638966a2a0b20260744f125d310a2b847982c7612fafa",
)


def test_phi_golden_digest_sampled():
    rng = random.Random(32)
    forward, inverse = hashlib.sha256(), hashlib.sha256()
    for n in (8, 16, 64, 256):
        for _ in range(50):
            code = tuple(rng.randint(1, 2 * (n - i) + 1) for i in range(1, n + 1))
            m = Matching(_partner_from_code(code))
            forward.update((phi(m).to_text() + "\n").encode())
            inverse.update((phi_inv(m).to_text() + "\n").encode())
    assert (forward.hexdigest(), inverse.hexdigest()) == PHI_SAMPLED_DIGESTS


def _unwound_by_steps(d):
    """The code that _phi_inv_step, folded on a copy of ``d``, unwinds."""
    d, code = d[:], []
    while d:
        r, d = _phi_inv_step(d)
        code.append(r)
    return tuple(code)


def every_code(n):
    """Every insertion code of size n, in lexicographic order."""
    return itertools.product(*(range(1, 2 * (n - i) + 2) for i in range(1, n + 1)))


def random_codes(n, count):
    """``count`` seeded random codes of size n."""
    rng = random.Random(n)
    return [tuple(rng.randint(1, 2 * (n - i) + 1) for i in range(1, n + 1)) for _ in range(count)]


def check_walks_against_the_step_folds(codes):
    """Assert that _phi_walk and _phi_inv_code give exactly what _phi_step
    and _phi_inv_step give, folded, on every code given, and that the
    unwinding walk leaves its list as it was; return how many were
    compared."""
    count = 0
    for code in codes:
        image: list[int] = []
        for b in reversed(code):
            image = _phi_step(b, image)
        assert _phi_walk(code) == image, code
        d = _offsets(_partner_from_code(code))
        unwound = _unwound_by_steps(d)
        assert _phi_inv_code(d) == unwound, code
        assert d == _offsets(_partner_from_code(code)), code
        count += 1
    return count


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_kernels_are_folds_of_their_steps(n):
    # The harness checks phi and phi_inv one step per node of the code tree,
    # while the walks behind the public maps run in history form: they must
    # give exactly what those steps give, folded, in both directions.  CI
    # compares every code of n=7, and of n=8 on one Python version.
    assert check_walks_against_the_step_folds(every_code(n)) == math.prod(range(1, 2 * n, 2))


@pytest.mark.parametrize("n, count", [(64, 50), (256, 50), (1024, 5), (4096, 1)])
def test_phi_kernels_are_folds_of_their_steps_on_random_codes(n, count):
    assert check_walks_against_the_step_folds(random_codes(n, count)) == count


# Corrupted offset lists, each given as its 0-based partner list, and why
# one unwinding step refuses it: a crossed case with no fan at the first
# edge, a vertex 0 that is its own mate, and a nested case whose
# re-anchoring would rewire vertex 0.
CORRUPTED_UNWINDS = [
    ([2, 2, 0, 0], "crossed-case unwind finds no fan at the first edge"),
    ([0, 1], "crossed-case unwind finds no fan at the first edge"),
    ([3, 3, 0, 0], "unwinding moved the first edge"),
]


@pytest.mark.parametrize("partners, reason", CORRUPTED_UNWINDS)
def test_phi_inv_step_refuses_corrupted_input(partners, reason):
    d = [w - v for v, w in enumerate(partners)]
    with pytest.raises(InvalidMatchingError, match=f"^corrupted input: {reason}$"):
        _phi_inv_step(d)


# Every outcome of both steps on the lists below: each surgery step's list
# and each unwinding step's (r, parent), or its refusal message.
STEPS_ON_ANY_LIST_SHA256 = "9f771da4106507842dfedb0f97a9cff24a4b0c685e8f46efa5ef6fa3c6b34885"


def test_phi_steps_take_any_in_range_list():
    # The harness catches only InvalidMatchingError from an unwinding step,
    # and a faulty step can hand either step any list: on the offset form of
    # every 0-based partner list of even length up to 6 with entries in
    # range, matching or not, neither step may fail another way, and every
    # outcome is pinned.  A step may edit its list in place, so each call
    # gets a fresh copy; the walk behind phi_inv may raise only that error
    # too.
    digest = hashlib.sha256()
    for size in (2, 4, 6):
        for p in itertools.product(range(size), repeat=size):
            d = [w - v for v, w in enumerate(p)]
            for b in range(1, size + 2):
                out = _phi_step(b, d[:])
                assert len(out) == size + 2
                digest.update(f"{out}\n".encode())
            # The walk behind phi_inv refuses every non-matching, and
            # unwinds every matching as the steps do.
            if all(p[w] == v != w for v, w in enumerate(p)):
                assert _phi_inv_code(d) == _unwound_by_steps(d)
            else:
                with pytest.raises(InvalidMatchingError, match="^offset list is no perfect"):
                    _phi_inv_code(d)
            try:
                r, parent = _phi_inv_step(d[:])
            except InvalidMatchingError as error:
                digest.update(f"{error}\n".encode())
                continue
            assert (r, len(parent)) == (p[0], size - 2)
            digest.update(f"{r} {parent}\n".encode())
    assert digest.hexdigest() == STEPS_ON_ANY_LIST_SHA256


@pytest.mark.parametrize("n", range(1, 7))
def test_path_records_fold_phi(n):
    # The harness folds phi along the path stream, one step per changed
    # depth.  The nodes above the records are checked too.
    for f in _code_tree(n):
        m = Matching(f.m)
        assert f.b == _sweep(f.m)
        assert f.nm == _partners(_phi_walk(f.b)) == phi(m).partner
        assert _phi_inv_code(_offsets(f.m)) == _sweep(phi_inv(m).partner)


# One entry out of range: too low in the middle, too high first or last.
# The harness range-checks a code before it walks phi along it.
@pytest.mark.parametrize("code", [(1, 1, 2), (1, 0, 1), (6, 1, 1), (2, 1, 1, 9)])
def test_table_phi_rejects_out_of_range_code(code):
    with pytest.raises(ValueError, match="outside"):
        _phi_walk(_check_code(code))
    with pytest.raises(ValueError, match="outside"):
        InsertionCode(code)


@given(matchings())
@settings(deadline=None)
def test_phi_properties_random(m):
    fm = phi(m)
    assert fm.nestings() == m.st_total()
    assert fm.first_edge == m.first_edge
    assert phi_inv(fm) == m


@given(matchings())
@settings(deadline=None)
def test_phi_componentwise(m):
    fm = phi(m)
    piecewise = concatenate(phi(c) for _, c in m.irreducible_components())
    assert piecewise == fm


# -- the composite ------------------------------------------------------------------


def test_big_phi_examples():
    assert big_phi(WedgePath((0, -1, -2))).nestings() == 0
    assert big_phi(WedgePath((0, 1))).nestings() == 1
    assert big_phi(WedgePath((0, 1))).to_text() == "(1,4),(2,3)"


def test_big_phi_inv_of_published_image():
    image = Matching.from_pairs(EXAMPLE_IMAGE)
    path = big_phi_inv(image)
    assert path.n == 7
    assert path.north_steps() == 8
    assert big_phi(path) == image


@pytest.mark.parametrize("n", range(1, 5))
def test_all_round_trips_exhaustive(n):
    for p in all_paths(n):
        m = psi(p)
        assert psi_inv(m) == p
        assert big_phi_inv(big_phi(p)) == p
    for m in all_matchings(n):
        assert psi(psi_inv(m)) == m


@given(wedge_paths())
@settings(deadline=None)
def test_composite_properties_random(p):
    image = big_phi(p)
    assert image.nestings() == p.north_steps()
    assert big_phi_inv(image) == p
    # stacking statistic of the insertion image, globally and per index
    m = psi(p)
    assert m.st_total() == p.north_steps()
    b = insertion_code(p).b
    for i in range(1, p.n):
        assert m.st_component(i) == max(b[i - 1] - b[i] - 1, 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_path_components_mirror_insertion_image_components(n):
    # arbitrates the derived path-split condition: piece sizes of P reversed
    # must match the component sizes of psi(P), piece by piece
    for p in all_paths(n):
        path_sizes = [c.n for c in p.components()][::-1]
        image_sizes = [c.n for _, c in psi(p).irreducible_components()]
        assert path_sizes == image_sizes


def test_big_phi_large_path(capsys):
    # far deeper than the interpreter's recursion limit
    rng = random.Random(1200)
    p = WedgePath(tuple(rng.randint(-(i - 1), i - 1) for i in range(1, 1201)))
    image = big_phi(p)
    assert big_phi_inv(image) == p
    assert image.nestings() == p.north_steps()
    assert main(["convert", "--to-matching", p.to_steps()]) == 0
    assert capsys.readouterr().out.strip() == image.to_text()


@given(wedge_paths())
@settings(deadline=None)
def test_dyck_paths_map_to_nesting_free_fixed_points(p):
    # flatten to the running minimum: a valid Dyck path near the drawn one
    p = WedgePath(tuple(itertools.accumulate(p.heights, min)))
    m = psi(p)
    assert phi(m) == m
    assert m.nestings() == 0
    assert {a for a, _ in m.edges} == p.reversed_south_positions()

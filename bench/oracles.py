"""Independent references the benchmark checks the program's outputs against.

Nothing here imports wedgematch: every expected value is either pinned from
a reviewed run or computed from a closed form that shares no code with the
library.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb

# sha256 of json.dumps(report) for each size of `wedgematch verify 6 --json`.
# The payload is byte-reproducible and independent of the worker count.
VERIFY_PAYLOAD_SHA256 = {
    1: "3c25ca76e29054f1aef2c6a0a5a9469d9691909af52bd29501390801135cfc7f",
    2: "5c8a717fe9e594e41a9d9a1394b185600f88bc37357ca6633d2d3b5740a1a126",
    3: "21f7efa7e4058f9c6fdadc6bc8d1d803ea2cb0348090f5ede93ac4f56f7b422e",
    4: "3c73a91b5cf89bb109029a7031f61ef98c2dde624f0d87e8b708ba8dec98414b",
    5: "421f61ada44e04daa198b616d70f5157fedf836d9918927709f1162a0be7fcf8",
    6: "9e101d1ed6fa88e8019afb2f7b1cb43ca405a7acdcabd00090c2059567a16f20",
}

_PAIR = re.compile(r"\((\d+),(\d+)\)")


def double_factorial(n: int) -> int:
    """(2n-1)!!, the size of both families."""
    out = 1
    for i in range(1, n + 1):
        out *= 2 * i - 1
    return out


def check_verify_payload(stdout: str, sizes: int) -> str | None:
    """None when the `verify --json` output matches the pinned digests."""
    try:
        reports = json.loads(stdout)
    except ValueError:
        return "verify output is not JSON"
    if [r.get("n") for r in reports] != list(range(1, sizes + 1)):
        return f"verify reported sizes {[r.get('n') for r in reports]}"
    for report in reports:
        error = check_report(report)
        if error:
            return error
    return None


def check_report(report: dict) -> str | None:
    """None when one size's report passed and matches its pinned digest."""
    n = report["n"]
    if not report.get("passed"):
        return f"verify n={n} reports a failed claim"
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    if digest != VERIFY_PAYLOAD_SHA256[n]:
        return f"verify n={n} payload digest {digest} differs from the pin"
    return None


def _divide_by_one_minus_q(coeffs: list[int], times: int) -> list[int]:
    """Power-series quotient coeffs / (1-q)^times, as repeated prefix sums."""
    out = list(coeffs)
    for _ in range(times):
        total = 0
        for k, c in enumerate(out):
            total += c
            out[k] = total
    return out


def touchard_riordan(n: int) -> dict[int, int]:
    """Distribution of crossings (equally, nestings) over matchings on [2n].

    sum_M q^cr(M) = (1-q)^-n sum_k (-1)^k [C(2n,n-k) - C(2n,n-k-1)] q^(k(k+1)/2)
    (Touchard 1952; Riordan, Math. Comp. 29, 1975).
    """
    top = n * (n + 1) // 2
    numerator = [0] * (top + 1)
    for k in range(n + 1):
        ballot = comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if n - k - 1 >= 0 else 0)
        numerator[k * (k + 1) // 2] += (-1) ** k * ballot
    series = _divide_by_one_minus_q(numerator, n)
    max_pairs = n * (n - 1) // 2
    if any(series[max_pairs + 1 :]):
        raise ArithmeticError(f"Touchard-Riordan series for n={n} does not terminate")
    return {k: c for k, c in enumerate(series[: max_pairs + 1]) if c}


def north_steps_distribution(n: int) -> dict[int, int]:
    """Distribution of north steps over wedge paths with n east steps.

    Transfer DP over the east-step heights a_1 = 0, -(i-1) <= a_i <= i-1,
    where a rise a_{i+1} > a_i contributes a_{i+1} - a_i north steps.
    """
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    for i in range(1, n):
        nxt: dict[int, dict[int, int]] = {}
        for a, poly in layer.items():
            for b in range(-i, i + 1):
                rise = max(b - a, 0)
                target = nxt.setdefault(b, {})
                for k, c in poly.items():
                    target[k + rise] = target.get(k + rise, 0) + c
        layer = nxt
    out: dict[int, int] = {}
    for poly in layer.values():
        for k, c in poly.items():
            out[k] = out.get(k, 0) + c
    return out


def census_expected(n: int) -> dict[str, dict[int, int]]:
    """Expected `enumerate n <stat>` tables; st_total must equal the nestings row."""
    nestings = touchard_riordan(n)
    return {
        "north_steps": north_steps_distribution(n),
        "nestings": nestings,
        "crossings": nestings,
        "st_total": nestings,
    }


def check_census_table(stdout: str, n: int, statistic: str, expected: dict[int, int]) -> str | None:
    """None when the `enumerate --json` output equals the closed form."""
    try:
        table = json.loads(stdout)
    except ValueError:
        return "enumerate output is not JSON"
    if table.get("n") != n or table.get("statistic") != statistic:
        return f"enumerate answered n={table.get('n')} {table.get('statistic')}"
    counts = {int(k): v for k, v in table.get("counts", {}).items()}
    if counts != expected:
        return f"{statistic} table at n={n} differs from the closed form"
    return None


# -- single objects -------------------------------------------------------------


def random_heights(rng, n: int) -> list[int]:
    """A uniform wedge path with n east steps, as its heights a_1..a_n."""
    return [rng.randint(-(i - 1), i - 1) for i in range(1, n + 1)]


def steps_from_heights(heights: list[int]) -> str:
    """The E/N/S step string of a wedge path given by its east-step heights."""
    out = []
    y = 0
    for a in heights:
        out.append(("N" if a > y else "S") * abs(a - y))
        out.append("E")
        y = a
    out.append("S" * (y + len(heights)))
    return "".join(out)


def north_steps(heights: list[int]) -> int:
    return sum(max(b - a, 0) for a, b in zip(heights, heights[1:]))


def random_partner_table(rng, n: int) -> tuple[int, ...]:
    """A uniform perfect matching on [2n] as a 1-based partner table."""
    vertices = list(range(1, 2 * n + 1))
    rng.shuffle(vertices)
    table = [0] * (2 * n)
    for a, b in zip(vertices[0::2], vertices[1::2]):
        table[a - 1], table[b - 1] = b, a
    return tuple(table)


def pairs_text(table: tuple[int, ...]) -> str:
    return ",".join(f"({v},{p})" for v, p in enumerate(table, start=1) if v < p)


def parse_pairs(text: str, n: int) -> list[tuple[int, int]] | None:
    """The pairs of a matching text, or None unless it is a perfect matching on [2n]."""
    pairs = [(int(a), int(b)) for a, b in _PAIR.findall(text)]
    seen = sorted(v for pair in pairs for v in pair)
    if len(pairs) != n or seen != list(range(1, 2 * n + 1)):
        return None
    return sorted((min(a, b), max(a, b)) for a, b in pairs)


def crossings_and_nestings(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Crossing and nesting pair counts, by direct comparison of all pairs."""
    cr = ne = 0
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1 :]:
            if c > b:
                break
            if d < b:
                ne += 1
            else:
                cr += 1
    return cr, ne


def check_svg(text: str, n: int) -> str | None:
    """None when the SVG arc diagram is complete: n arcs, 2n vertex dots."""
    if "<svg " not in text or not text.endswith("</svg>\n"):
        return "render output is not a complete SVG document"
    arcs, dots = text.count("<path "), text.count("<circle ")
    if arcs != n or dots != 2 * n:
        return f"SVG has {arcs} arcs and {dots} vertices for n={n}"
    return None

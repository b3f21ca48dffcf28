"""The passing `verify --json` payload of each size, as a closed form of n.

Each claim is checked exhaustively, so a passing report holds nothing that
n does not fix: every per-object claim tests the (2n-1)!! paths of size n,
each distribution claim compares the C(n,2)+1 rows of its table, and
nothing fails.  The claim labels are listed here, in the order the report
prints them, rather than read from the package, so a claim dropped or
reordered there fails every comparison with this form.

Stdlib only, and nothing from wedgematch: `.github/check_verify_pins.py`
imports it without the package on its path.
"""

CLAIMS = (
    "cardinality_paths",
    "cardinality_matchings",
    "round_trip_psi",
    "round_trip_psi_inv",
    "round_trip_phi",
    "round_trip_phi_inv",
    "round_trip_big_phi",
    "lemma1",
    "theorem2",
    "theorem1",
    "proposition_a",
    "proposition_b",
    "dyck_proposition",
    "distribution_north_nestings",
    "distribution_nestings_crossings",
)


def passing_payload(n: int) -> dict:
    """The report of a passing `verify_all(n)`, as `to_json_value` gives it."""
    paths = 1
    for odd in range(1, 2 * n, 2):
        paths *= odd
    rows = n * (n - 1) // 2 + 1
    return {
        "format_version": 1,
        "n": n,
        "passed": True,
        "claims": {
            label: {
                "tested": rows if label.startswith("distribution_") else paths,
                "failed": 0,
                "counterexamples": [],
            }
            for label in CLAIMS
        },
    }

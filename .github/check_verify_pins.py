"""Check a `wedgematch verify N --json` payload against the closed form.

Usage: python3 .github/check_verify_pins.py REPORT.json N

The payload must hold sizes 1..N, and each size's report must be, byte for
byte, `json.dumps(passing_payload(n))` from `tests/payloads.py`: one closed
form of n for every size, with no digest table.  Exits 0 when it is, 1
with one line per mismatch, naming the size, the claim and the field, and
2 with one `error:` line on bad arguments or a file that is not JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from payloads import passing_payload  # noqa: E402

USAGE = "usage: python3 .github/check_verify_pins.py REPORT.json N"


def fail(message: str) -> None:
    print(f"{USAGE}\nerror: {message}", file=sys.stderr)
    sys.exit(2)


def shown(value):
    """A field's value for a mismatch line: a list by its length."""
    return len(value) if isinstance(value, list) else value


def mismatches(report: dict, expected: dict) -> list[str]:
    """One line per field where a size's report differs from its closed form."""
    where = f"verify n={expected['n']}"
    lines = [
        f"{where} {key}: {report.get(key)}, expected {value}"
        for key, value in expected.items()
        if key != "claims" and report.get(key) != value
    ]
    claims = report.get("claims")
    claims = claims if isinstance(claims, dict) else {}
    for label, fields in expected["claims"].items():
        entry = claims.get(label)
        if not isinstance(entry, dict):
            lines.append(f"{where} {label}: missing")
            continue
        lines += [
            f"{where} {label}: {field} {shown(entry.get(field))}, expected {shown(value)}"
            for field, value in fields.items()
            if entry.get(field) != value
        ]
    lines += [f"{where} {label}: not a claim" for label in claims if label not in expected["claims"]]
    return lines or [f"{where}: payload differs from the closed form in key order or extra keys"]


if len(sys.argv) != 3:
    fail(f"expected 2 arguments, got {len(sys.argv) - 1}")
path, top = sys.argv[1], sys.argv[2]
if not (top.isdigit() and int(top) >= 1):
    fail(f"N must be a positive integer, got {top!r}")
top = int(top)
try:
    with open(path) as f:
        reports = json.load(f)
except (OSError, ValueError) as exc:
    fail(f"cannot read {path} as JSON: {exc}")
if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
    fail(f"{path} is not a list of verify reports")

sizes = [r.get("n") for r in reports]
errors = [] if sizes == list(range(1, top + 1)) else [f"verify reported sizes {sizes}"]
for report in reports:
    n = report.get("n")
    if type(n) is int and n >= 1:
        expected = passing_payload(n)
        if json.dumps(report) != json.dumps(expected):
            errors += mismatches(report, expected)
print("\n".join(errors) or f"verify {top} payload equals the closed form at every size")
sys.exit(1 if errors else 0)

"""Check a `wedgematch verify N --json` payload against the pinned digests.

Usage: python3 .github/check_verify_pins.py REPORT.json N

Run from the repository root.  The payload must hold sizes 1..N; sizes up
to 6 are checked by `bench/oracles.py`, and sizes 7 to 9 against the
sha256 pins below.  A size with no pin is an error.  Exits 1 with one line
per mismatch.
"""

import hashlib
import json
import sys

sys.path.insert(0, "bench")
from oracles import VERIFY_PAYLOAD_SHA256, check_report  # noqa: E402

PINS = {
    7: "42138086d5834314ac4f1e40c41477606d0aa6dd91e493c78c8c921456e42d59",
    8: "f3017a278965b15fcea451409d0e3ea9ab4bbded327ae4312b396bc0704df97e",
    9: "8e8db0d074746810898bbb77c43aa09d0f223a3b6176bafd51c1b1c79eb85eb4",
}

path, top = sys.argv[1], int(sys.argv[2])
with open(path) as f:
    reports = json.load(f)
sizes = [r["n"] for r in reports]
errors = [] if sizes == list(range(1, top + 1)) else [f"verify reported sizes {sizes}"]
for report in reports:
    n = report["n"]
    if n in VERIFY_PAYLOAD_SHA256:
        error = check_report(report)
    elif n in PINS:
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        error = None if digest == PINS[n] else (
            f"verify n={n} payload digest {digest} differs from the pin"
        )
    else:
        error = f"verify n={n} has no pinned digest"
    errors += [error] if error else []
print("\n".join(errors) or f"verify {top} payload matches the pins")
sys.exit(1 if errors else 0)

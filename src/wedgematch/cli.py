"""Command-line front-end: convert, stats, enumerate, verify, render.

Exit codes: 0 success, 1 verification counterexample, 2 parse failure,
3 invalid object, 4 size over the enumeration cap, 5 render output not
writable, 130 interrupted (Ctrl-C), 141 stdout closed early (broken pipe).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Callable

from .bijections import big_phi, big_phi_inv, phi, phi_inv, psi, psi_inv
from .enumeration import CLAIMS, DEFAULT_MAX_N, STATISTICS, distribution, verify_ladder
from .errors import InvalidMatchingError, InvalidPathError, OverCapError, ParseError
from .matching import Matching
from .paths import WedgePath
from .render import render_ascii, render_svg

_FORMAT_WORDS = ("pairs", "steps", "heights")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def parse_object(tokens: list[str]) -> Matching | WedgePath:
    """Parse an object from CLI tokens.

    The first token may name the format (``pairs``, ``steps``, or
    ``heights``); otherwise the format is sniffed: a leading parenthesis
    means pairs, a pure E/N/S word means steps, anything else is read as a
    comma-separated height list.
    """
    fmt = None
    if tokens and tokens[0].lower() in _FORMAT_WORDS:
        fmt = tokens[0].lower()
        tokens = tokens[1:]
    text = " ".join(tokens).strip()
    if not text:
        raise ParseError("missing object text")
    if fmt == "pairs":
        return Matching.from_text(text)
    if fmt == "steps":
        return WedgePath.parse_steps(text)
    if fmt == "heights":
        return WedgePath.from_height_text(text)
    if text.startswith("("):
        return Matching.from_text(text)
    if set(text) <= set("ENS"):
        return WedgePath.parse_steps(text)
    return WedgePath.from_height_text(text)


# (--to-matching?, --via) -> (map, the object kind it takes)
_CONVERSIONS: dict[tuple[bool, str], tuple[Callable, type]] = {
    (True, "Phi"): (big_phi, WedgePath),
    (True, "psi"): (psi, WedgePath),
    (True, "phi"): (phi, Matching),
    (False, "Phi"): (big_phi_inv, Matching),
    (False, "psi"): (psi_inv, Matching),
    (False, "phi"): (phi_inv, Matching),
}

# object kind -> (how the wrong-kind error names it, the error raised)
_KINDS: dict[type, tuple[str, type[Exception]]] = {
    WedgePath: ("a path (steps or heights)", InvalidPathError),
    Matching: ("a matching (pair list)", InvalidMatchingError),
}


def cmd_convert(args: argparse.Namespace) -> int:
    obj = parse_object(args.input)
    convert, kind = _CONVERSIONS[args.to_matching, args.via]
    if not isinstance(obj, kind):
        noun, error = _KINDS[kind]
        direction = "--to-matching" if args.to_matching else "--to-path"
        raise error(f"{direction} via {args.via} needs {noun} as input")
    out = convert(obj)
    if args.json:
        print(json.dumps(out.to_json_value()))
    elif isinstance(out, Matching):
        print(out.to_text())
    else:
        print(out.to_steps())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    obj = parse_object(args.input)
    if isinstance(obj, Matching):
        data: dict[str, object] = {
            "n": obj.n,
            "crossings": obj.crossings(),
            "nestings": obj.nestings(),
            "alignments": obj.alignments(),
            "st_total": obj.st_total(),
        }
    else:
        data = {
            "n": obj.n,
            "east": obj.east_steps(),
            "north": obj.north_steps(),
            "south": obj.south_steps(),
            "final_south_run": obj.final_south_run(),
            "dyck": obj.is_dyck(),
            "component_sizes": [c.n for c in obj.components()],
        }
    if args.json:
        print(json.dumps(data))
    else:
        for key, value in data.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key} {value}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.json and args.csv:
        raise ValueError("--json and --csv cannot be combined; choose one")
    table = distribution(args.n, args.statistic, max_n=args.max_n)
    if args.json:
        print(json.dumps(table.to_json_value()))
    elif args.csv:
        print(table.to_csv(), end="")
    else:
        print(table.to_text())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    claims = None
    if args.claims is not None:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    reports = []
    for report in verify_ladder(
        args.n,
        max_n=args.max_n,
        workers=args.workers,
        counterexample_limit=args.limit,
        claims=claims,
    ):
        reports.append(report)
        if not args.json:
            print(report.to_text(), end="")
            print(f"(elapsed {report.elapsed:.2f}s)", file=sys.stderr)
    if args.json:
        print(json.dumps([r.to_json_value() for r in reports]))
    return 0 if all(r.passed for r in reports) else 1


def cmd_render(args: argparse.Namespace) -> int:
    obj = parse_object(args.input)
    text = render_ascii(obj) if args.target == "ascii" else render_svg(obj)
    if args.output is None:
        print(text, end="")
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 5
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgematch",
        description="Wedge-confined lattice paths, matchings on [2n], and the "
        "bijections between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap_flags = argparse.ArgumentParser(add_help=False)
    cap_flags.add_argument(
        "--max-n",
        type=_positive_int,
        default=None,
        help=f"enumeration cap (default: {DEFAULT_MAX_N})",
    )
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser(
        "convert",
        parents=[json_flag],
        help="map a path to a matching or back",
        description="Apply one of the bijections. Input is an object text, "
        "optionally preceded by its format word (pairs, steps, heights).",
    )
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-matching", action="store_true")
    direction.add_argument("--to-path", action="store_true")
    p.add_argument(
        "--via",
        choices=["psi", "phi", "Phi"],
        default="Phi",
        help="which map to apply (phi maps matchings to matchings)",
    )
    p.add_argument("input", nargs="+", help="object text")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "stats", parents=[json_flag], help="arc or step statistics of one object"
    )
    p.add_argument("input", nargs="+", help="object text")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "enumerate",
        parents=[cap_flags, json_flag],
        help="exact distribution of a statistic over all objects of size n",
    )
    p.add_argument("n", type=_positive_int)
    p.add_argument("statistic", choices=list(STATISTICS))
    p.add_argument("--csv", action="store_true", help="emit CSV (k,count)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "verify",
        parents=[cap_flags, json_flag],
        help="replay every claimed identity exhaustively for sizes 1..n",
    )
    p.add_argument("n", type=_positive_int)
    p.add_argument(
        "--claims",
        default=None,
        help=f"comma-separated claim labels (available: {', '.join(CLAIMS)})",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes, this one included (capped at the CPU count); "
        "sizes below 6 always run in this process",
    )
    p.add_argument(
        "--limit", type=int, default=10, help="counterexamples kept per claim"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw an arc diagram or a path picture")
    p.add_argument(
        "--format",
        dest="target",
        choices=["ascii", "svg"],
        default="ascii",
    )
    p.add_argument("-o", "--output", default=None, help="write to a file")
    p.add_argument("input", nargs="+", help="object text")
    p.set_defaults(func=cmd_render)

    return parser


# Built on the first call to main, not at import, and shared by every later
# call: parse_args keeps no state on the parser between calls.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its
    exit code; a usage error or ``--help`` raises ``SystemExit``.

    May be called repeatedly in one process.  The parser is built on the
    first call and reused, so the ``cmd_*`` functions, argument types and
    choices it dispatches to are the ones the module held then.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidMatchingError, InvalidPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def run() -> None:
    """Process entry point: :func:`main`, then exit 141 if stdout was
    closed early (as by ``| head``) rather than print a traceback."""
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # Unbuffered (python -u), the text layer drops the rest of a short write
        # into a closed pipe; a buffered writer retries it and gets the error.
        writer = io.BufferedWriter(out.buffer)
        sys.stdout = io.TextIOWrapper(writer, out.encoding, out.errors, line_buffering=True)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's own flush at exit
        # does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    run()

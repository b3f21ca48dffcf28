"""Command-line behaviour: formats, directions, and exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from strategies import matchings, wedge_paths

import wedgematch
from wedgematch import Matching, cli
from wedgematch.cli import main
from wedgematch.render import render_svg

EXAMPLE_IMAGE_TEXT = "(1,4),(2,14),(3,12),(5,8),(6,9),(7,11),(10,13)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- convert -----------------------------------------------------------------


def test_convert_to_matching(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-matching", "ES")
    assert code == 0
    assert out.strip() == "(1,2)"


def test_convert_via_psi_heights(capsys):
    code, out, _ = run_cli(
        capsys, "convert", "--via", "psi", "--to-matching", "heights", "0,1"
    )
    assert code == 0
    assert out.strip() == "(1,4),(2,3)"


def test_convert_to_path_published_image(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-path", EXAMPLE_IMAGE_TEXT)
    assert code == 0
    steps = out.strip()
    assert steps.count("E") == 7
    assert steps.count("N") == 8


def test_convert_round_trip_through_text(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-matching", "ENESSS")
    assert code == 0
    code, back, _ = run_cli(capsys, "convert", "--to-path", out.strip())
    assert code == 0
    assert back.strip() == "ENESSS"


@pytest.mark.parametrize("n", range(1, 6))
def test_convert_identity_on_canonical_text(capsys, n):
    from wedgematch.enumeration import all_paths

    for p in all_paths(n):
        steps = p.to_steps()
        code, out, _ = run_cli(capsys, "convert", "--to-matching", steps)
        assert code == 0
        code, back, _ = run_cli(capsys, "convert", "--to-path", out.strip())
        assert code == 0
        assert back.strip() == steps


def test_convert_via_phi_matching_to_matching(capsys):
    code, out, _ = run_cli(
        capsys, "convert", "--via", "phi", "--to-matching", "(1,6),(2,5),(3,4)"
    )
    assert code == 0
    assert out.strip() == "(1,6),(2,3),(4,5)"
    code, back, _ = run_cli(capsys, "convert", "--via", "phi", "--to-path", out.strip())
    assert code == 0
    assert back.strip() == "(1,6),(2,5),(3,4)"


def test_convert_json_output(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-matching", "--json", "ES")
    assert code == 0
    assert json.loads(out) == [[1, 2]]
    code, out, _ = run_cli(capsys, "convert", "--to-path", "--json", "(1,2)")
    assert code == 0
    assert json.loads(out) == [0]


def test_convert_parse_failure_exits_2(capsys):
    code, _, err = run_cli(capsys, "convert", "--to-matching", "E@S")
    assert code == 2
    assert "error" in err


def test_convert_invalid_object_exits_3(capsys):
    code, _, err = run_cli(capsys, "convert", "--to-matching", "EN")
    assert code == 3
    code, _, err = run_cli(capsys, "convert", "--to-matching", "(1,3),(2,3)")
    assert code == 3


PIN_PATH = "ESESENNESSSS"
PIN_MATCHING = "(1,5),(2,3),(4,8),(6,7)"


@pytest.mark.parametrize(
    "direction,via,valid,expected,wrong,kind",
    [
        ("--to-matching", "Phi", PIN_PATH, "(1,5),(2,6),(3,4),(7,8)", PIN_MATCHING, "a path (steps or heights)"),
        ("--to-matching", "psi", PIN_PATH, "(1,5),(2,3),(4,6),(7,8)", PIN_MATCHING, "a path (steps or heights)"),
        ("--to-matching", "phi", PIN_MATCHING, "(1,5),(2,8),(3,4),(6,7)", PIN_PATH, "a matching (pair list)"),
        ("--to-path", "Phi", PIN_MATCHING, "ENENESSESSSS", PIN_PATH, "a matching (pair list)"),
        ("--to-path", "psi", PIN_MATCHING, "ENESSSENNESSSS", PIN_PATH, "a matching (pair list)"),
        ("--to-path", "phi", PIN_MATCHING, "(1,5),(2,8),(3,7),(4,6)", PIN_PATH, "a matching (pair list)"),
    ],
)
def test_convert_pinned_per_direction_and_map(
    capsys, direction, via, valid, expected, wrong, kind
):
    code, out, err = run_cli(capsys, "convert", direction, "--via", via, valid)
    assert (code, out, err) == (0, expected + "\n", "")
    code, out, err = run_cli(capsys, "convert", direction, "--via", via, wrong)
    assert (code, out) == (3, "")
    assert err == f"error: {direction} via {via} needs {kind} as input\n"


def test_convert_wrong_object_kind_exits_3(capsys):
    code, _, _ = run_cli(capsys, "convert", "--to-matching", "--via", "psi", "(1,2)")
    assert code == 3
    code, _, _ = run_cli(capsys, "convert", "--to-path", "ES")
    assert code == 3


# -- stats --------------------------------------------------------------------


def test_stats_matching(capsys):
    code, out, _ = run_cli(capsys, "stats", "(1,3),(2,7),(4,6),(5,8),(9,10)")
    assert code == 0
    assert "crossings 3" in out
    assert "nestings 1" in out
    assert "alignments 6" in out
    assert "st_total 1" in out


def test_stats_path(capsys):
    code, out, _ = run_cli(capsys, "stats", "ES")
    assert code == 0
    assert "north 0" in out
    assert "south 1" in out
    assert "east 1" in out
    assert "dyck true" in out


def test_stats_nested_triple(capsys):
    code, out, _ = run_cli(capsys, "stats", "(1,6),(2,5),(3,4)")
    assert code == 0
    assert "nestings 3" in out
    assert "st_total 2" in out


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "--json", "ENESSS")
    assert code == 0
    data = json.loads(out)
    assert data["north"] == 1
    assert data["dyck"] is False
    assert data["component_sizes"] == [2]


def test_stats_malformed_matching_text_exits_2(capsys):
    code, out, err = run_cli(capsys, "stats", "(1,2),,(3,4)")
    assert (code, out) == (2, "")
    assert err == "error: malformed matching text: '(1,2),,(3,4)'\n"


# -- enumerate ------------------------------------------------------------------


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2", "nestings")
    assert code == 0
    assert out.strip() == "0:2 1:1"


def test_enumerate_crossings(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "crossings")
    assert code == 0
    assert out.strip() == "0:5 1:6 2:3 3:1"


def test_enumerate_north_trivial(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "north_steps")
    assert code == 0
    assert out.strip() == "0:1"


def test_enumerate_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--csv", "2", "nestings")
    assert code == 0
    assert out == "k,count\n0,2\n1,1\n"
    code, out, _ = run_cli(capsys, "enumerate", "--json", "2", "nestings")
    assert json.loads(out)["counts"] == {"0": 2, "1": 1}


def test_enumerate_rejects_json_with_csv(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--json", "--csv", "2", "nestings")
    assert code == 2
    assert out == ""
    assert err == "error: --json and --csv cannot be combined; choose one\n"


def test_enumerate_over_cap_exits_4(capsys):
    code, _, err = run_cli(capsys, "enumerate", "9", "nestings")
    assert code == 4
    assert "cap" in err


# -- verify -----------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "3")
    assert code == 0
    assert "verification n=3" in out
    assert "tested       15" in out
    assert out.count("result: PASS") == 3


def test_verify_claims_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "--claims", "theorem1")
    assert code == 0
    assert "theorem1" in out
    assert "theorem2" not in out


def test_verify_unknown_claim_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "2", "--claims", "theorem9")
    assert code == 2
    assert "unknown claim" in err


@pytest.mark.parametrize("selection", [",", ""])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_verify_empty_claim_selection_exits_2(capsys, mode, selection):
    code, out, err = run_cli(capsys, "verify", "2", "--claims", selection, *mode)
    assert code == 2
    assert out == ""
    assert "no claims selected" in err


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "2")
    assert code == 0
    reports = json.loads(out)
    assert [r["n"] for r in reports] == [1, 2]
    assert all(r["passed"] for r in reports)


def test_verify_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [("verify", "2", "--max-n", "0"), ("enumerate", "2", "nestings", "--max-n", "-3")]
)
def test_nonpositive_cap_is_usage_error(capsys, argv):
    # Exit 4 means a size over the cap; a cap below 1 is a malformed flag.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--max-n: must be a positive integer" in capsys.readouterr().err


def test_verify_over_cap_exits_4(capsys):
    code, _, _ = run_cli(capsys, "verify", "8")
    assert code == 4


def test_verify_workers_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "3", "--workers", "2", "--claims", "theorem1")
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--limit", "-1")])
def test_verify_rejects_bad_workers_or_limit(capsys, flag, value):
    code, _, err = run_cli(capsys, "verify", "3", flag, value)
    assert code == 2
    assert "must" in err


def test_verify_counterexample_exits_1(capsys, monkeypatch):
    from wedgematch.enumeration import ClaimResult, VerificationReport

    broken = VerificationReport(
        n=1,
        claims=(
            ClaimResult(
                label="theorem1", tested=1, failed=1, counterexamples=("P=ES: bad",)
            ),
        ),
        elapsed=0.0,
    )
    monkeypatch.setattr("wedgematch.enumeration._verify_size", lambda *a, **kw: broken)
    code, out, _ = run_cli(capsys, "verify", "1")
    assert code == 1
    assert "result: FAIL" in out
    assert "counterexample: P=ES: bad" in out


def test_verify_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("wedgematch.cli.verify_ladder", interrupted)
    code, out, err = run_cli(capsys, "verify", "3", "--workers", "2")
    assert code == 130
    assert out == ""
    assert err == "error: interrupted\n"


# -- render ----------------------------------------------------------------------


def test_render_ascii_matching(capsys):
    code, out, _ = run_cli(capsys, "render", "(1,4),(2,3)")
    assert code == 0
    assert out == "+-----+\n| +-+ |\n1 2 3 4\n"


def test_render_ascii_path_from_heights(capsys):
    code, out, _ = run_cli(capsys, "render", "heights", "0")
    assert code == 0
    assert out == "+-+\n  |\n  +\n"


def test_render_svg_stdout(capsys):
    code, out, _ = run_cli(capsys, "render", "--format", "svg", "ESES")
    assert code == 0
    ET.fromstring(out)
    assert out.count('class="step"') == 4


def test_render_to_file(capsys, tmp_path):
    target = tmp_path / "diagram.svg"
    code, out, _ = run_cli(
        capsys, "render", "--format", "svg", "-o", str(target), "(1,2)"
    )
    assert code == 0
    assert out == ""
    ET.fromstring(target.read_text())
    assert target.read_text() == render_svg(Matching.from_text("(1,2)"))


def test_render_unwritable_output(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "render", "-o", str(tmp_path / "no" / "dir" / "x.txt"), "(1,2)"
    )
    assert code == 5
    assert "cannot write" in err


def _closed_pipe_render(env_update, read):
    """Exit code and stderr of rendering a large SVG into a pipe that is
    closed after ``read(pipe)``."""
    order = list(range(1, 2049))
    random.Random(1024).shuffle(order)
    text = ",".join(f"({a},{b})" for a, b in zip(order[::2], order[1::2]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(wedgematch.__file__).parents[1])
    env.update(env_update)
    with subprocess.Popen(
        [sys.executable, "-m", "wedgematch.cli", "render", "--format", "svg", text],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert read(proc.stdout).startswith(b"<?xml")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    return code, err


def test_closed_stdout_exits_141_without_traceback():
    # The SVG of a matching on 2048 vertices is far larger than a pipe
    # buffer, so the write fails once the reader has gone.
    code, err = _closed_pipe_render({}, lambda pipe: pipe.readline())
    assert code == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_closed_unbuffered_stdout_exits_141_without_traceback():
    # Unbuffered, the raw write into the closed pipe comes back short
    # instead of failing; the tail must not be dropped silently.
    code, err = _closed_pipe_render({"PYTHONUNBUFFERED": "1"}, lambda pipe: pipe.read(20))
    assert code == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


# -- repeated calls in one process ----------------------------------------------

# One valid call of each subcommand.
EVERY_COMMAND = [
    ["convert", "--to-matching", "ENESSS"],
    ["stats", "--json", "(1,4),(2,3)"],
    ["enumerate", "3", "nestings"],
    ["verify", "2", "--json"],
    ["render", "--format", "svg", "ESES"],
]


def test_later_calls_build_no_parser(capsys, monkeypatch):
    # main builds its parser on the first call and reuses it, so after one
    # call no call of any subcommand constructs an ArgumentParser.
    main(EVERY_COMMAND[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in EVERY_COMMAND:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert built == []
    cli.build_parser()
    assert "wedgematch" in built  # the count sees a build


# Valid calls around usage errors, --help and a rejected flag pair: a shared
# parser that kept anything from one call would show it in a later one.
CALL_SEQUENCE = [
    *EVERY_COMMAND,
    ["verify", "0"],
    ["--help"],
    ["enumerate", "2", "nestings", "--json", "--csv"],
    ["convert", "--to-matching", "--to-path", "ES"],
    ["render", "--help"],
    *EVERY_COMMAND,
]


def _outcome(capsys, argv):
    """What one main call returns or exits with, and what it prints."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    out, err = capsys.readouterr()
    return code, out, err


def test_a_shared_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    shared = [_outcome(capsys, argv) for argv in CALL_SEQUENCE]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(capsys, argv) for argv in CALL_SEQUENCE]
    for argv, once, again in zip(CALL_SEQUENCE, shared, fresh):
        assert once == again, argv
    # The valid calls after the errors answer as they did before them.
    assert shared[-len(EVERY_COMMAND) :] == shared[: len(EVERY_COMMAND)]
    assert [code for code, _, _ in shared] == [
        *[0] * len(EVERY_COMMAND),
        "SystemExit(2)",
        "SystemExit(0)",
        2,
        "SystemExit(2)",
        "SystemExit(0)",
        *[0] * len(EVERY_COMMAND),
    ]


# -- any argv -------------------------------------------------------------------

# The exit codes the module docstring documents for main (141 is run()'s).
EXIT_CODES = {0, 1, 2, 3, 4, 5, 130}
TEXT_ALPHABET = "()ENSens,0123456789- "


@st.composite
def object_tokens(draw):
    """Object text near the valid forms: a valid matching, step word or
    height list, perhaps with one character dropped, changed or added,
    perhaps after a format word, and split into tokens at its spaces."""
    text = draw(
        st.one_of(
            matchings(max_n=5).map(Matching.to_text),
            wedge_paths(max_n=5).map(lambda p: p.to_steps()),
            wedge_paths(max_n=5).map(lambda p: p.to_height_text()),
            st.text(TEXT_ALPHABET, max_size=12),
        )
    )
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["drop", "change", "add"]))
        c = draw(st.sampled_from(TEXT_ALPHABET))
        text = text[:i] + ("" if edit == "drop" else c) + text[i + (edit != "add") :]
    word = draw(st.sampled_from([[], ["pairs"], ["steps"], ["heights"], ["Steps"]]))
    return word + (text.split() or [text])


def _number():
    """A numeric flag's argument: small integers around the valid range,
    or text that is no integer."""
    return st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["", "x", "1.5", "+1"]))


def _flags(*names):
    """Zero or more of the named numeric options, each with its argument."""
    return st.lists(st.tuples(st.sampled_from(names), _number()), max_size=3).map(
        lambda pairs: [token for pair in pairs for token in pair]
    )


ARGVS = st.one_of(
    st.tuples(
        st.just(["convert"]),
        st.sampled_from([["--to-matching"], ["--to-path"], [], ["--to-matching", "--to-path"]]),
        st.sampled_from([[], ["--via", "psi"], ["--via", "phi"], ["--via", "Phi"], ["--via", "x"]]),
        st.sampled_from([[], ["--json"]]),
        object_tokens(),
    ),
    st.tuples(st.just(["stats"]), st.sampled_from([[], ["--json"]]), object_tokens()),
    st.tuples(st.just(["render"]), st.sampled_from([[], ["--format", "ascii"]]), object_tokens()),
    st.tuples(
        st.just(["enumerate"]),
        st.integers(-1, 3).map(lambda n: [str(n)]),
        st.sampled_from([["north_steps"], ["nestings"], ["crossings"], ["st_total"], ["x"]]),
        st.sampled_from([[], ["--json"], ["--csv"], ["--json", "--csv"]]),
        _flags("--max-n"),
    ),
    st.tuples(
        st.just(["verify"]),
        st.integers(-1, 3).map(lambda n: [str(n)]),
        st.sampled_from([[], ["--json"], ["--claims", "lemma1,theorem1"], ["--claims", ","]]),
        _flags("--max-n", "--workers", "--limit"),
    ),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=300, deadline=None)
@given(ARGVS)
def test_any_argv_exits_with_a_documented_code(argv):
    # No argv near the valid forms ends in a traceback: main returns one of
    # the documented codes, or argparse exits 2 on a usage error.  Sizes
    # stay at most 3, one cell, so verify never starts a process pool.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())


def _check_pins(*args):
    """Run the CI pin check from the repository root: (exit code, stdout,
    stderr)."""
    done = subprocess.run(
        [sys.executable, ".github/check_verify_pins.py", *map(str, args)],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def verify3(capsys, tmp_path):
    """The reports of a real `verify 3 --json`, and a file to write them to."""
    assert main(["verify", "3", "--json"]) == 0
    return json.loads(capsys.readouterr().out), tmp_path / "verify.json"


@pytest.mark.parametrize("n", [8, 10])
def test_pin_script_reports_a_wrong_or_unpinned_size_without_a_traceback(capsys, tmp_path, n):
    # The CI pin check on a doctored `verify 2 --json` payload whose last
    # size reads n: every size, pinned in CI (8) or not (10), is checked
    # against the closed form of n, so each claim's count of size 2 is one
    # error line, with exit 1 and no traceback.
    assert main(["verify", "2", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    reports[-1]["n"] = n
    payload = tmp_path / "verify.json"
    payload.write_text(json.dumps(reports))
    code, out, err = _check_pins(payload, 2)
    assert (code, err) == (1, "")
    paths = 2027025 if n == 8 else 654729075
    assert out.splitlines() == [f"verify reported sizes [1, {n}]"] + [
        f"verify n={n} {label}: tested 2, expected {n * (n - 1) // 2 + 1}"
        if label.startswith("distribution_")
        else f"verify n={n} {label}: tested 3, expected {paths}"
        for label in wedgematch.CLAIMS
    ]


def test_pin_script_accepts_a_real_payload(verify3):
    reports, path = verify3
    path.write_text(json.dumps(reports))
    assert _check_pins(path, 3) == (0, "verify 3 payload equals the closed form at every size\n", "")


def test_pin_script_names_a_tampered_claim_and_field(verify3):
    reports, path = verify3
    reports[2]["claims"]["theorem1"]["failed"] = 1
    path.write_text(json.dumps(reports))
    assert _check_pins(path, 3) == (1, "verify n=3 theorem1: failed 1, expected 0\n", "")


def test_pin_script_reports_a_missing_size(verify3):
    reports, path = verify3
    del reports[1]
    path.write_text(json.dumps(reports))
    assert _check_pins(path, 3) == (1, "verify reported sizes [1, 3]\n", "")


def _usage_error(err):
    """The error line of a usage failure: stderr is the usage line and it."""
    usage, error = err.splitlines()
    assert usage.startswith("usage: python3 .github/check_verify_pins.py")
    return error


@pytest.mark.parametrize("args", [(), ("one",), ("a", "3", "extra"), ("{report}", "x")])
def test_pin_script_rejects_bad_arguments_with_one_error_line(verify3, args):
    reports, path = verify3
    path.write_text(json.dumps(reports))
    code, out, err = _check_pins(*(arg.format(report=path) for arg in args))
    assert (code, out) == (2, "")
    assert _usage_error(err).startswith("error: ")


def test_pin_script_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "verify.json"
    path.write_text("verify 3: PASS\n")
    code, out, err = _check_pins(path, 3)
    assert (code, out) == (2, "")
    assert _usage_error(err).startswith(f"error: cannot read {path} as JSON")

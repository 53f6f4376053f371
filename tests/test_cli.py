import io
import os
import subprocess
import sys
import time
from io import StringIO
from pathlib import Path

import pytest

import sygus
from sygus import checker, cli, solver
from sygus.cli import EXIT_FAIL, EXIT_OK, EXIT_STATIC, run
from sygus.evaluator import stable_u64

from conftest import (
    BOOL_BV4,
    FIXTURE_SOLUTIONS,
    FIXTURES,
    LIA_ITE_UNSOLVABLE,
    UF_SUM,
)


def run_cli(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def unsolvable_path(tmp_path):
    path = tmp_path / "unsolvable.sl"
    path.write_text(LIA_ITE_UNSOLVABLE)
    return str(path)


@pytest.mark.parametrize("name", sorted(FIXTURE_SOLUTIONS))
def test_solve_fixture(name):
    code, out, err = run_cli("solve", str(FIXTURES / f"{name}.sl"))
    assert (code, out, err) == (EXIT_OK, FIXTURE_SOLUTIONS[name], "")


def test_solve_exhausted(unsolvable_path):
    code, out, err = run_cli("solve", "--max-term-size", "4", unsolvable_path)
    assert (code, out) == (EXIT_FAIL, "(fail)\n")
    assert err == "note: search exhausted at max term size 4\n"


def test_solve_timed_out(unsolvable_path):
    code, out, err = run_cli("solve", "--timeout-seconds", "0", unsolvable_path)
    assert (code, out) == (EXIT_FAIL, "(fail)\n")
    assert err == "note: search stopped by timeout\n"


def test_timeout_is_honoured_while_verifying(tmp_path):
    # A thousand models of 10,000 grid points each: verify checks the
    # deadline once per chunk of the grid.
    path = tmp_path / "uf_sum.sl"
    path.write_text(UF_SUM)
    start = time.monotonic()
    code, out, err = run_cli(
        "solve", "--uf-model-count", "1000", "--timeout-seconds", "1", str(path)
    )
    assert time.monotonic() - start < 4.0
    assert (code, out, err) == (EXIT_FAIL, "(fail)\n", "note: search stopped by timeout\n")


# Runs the CLI and reports the child's own peak RSS, in KB, on stderr.  It
# reads VmHWM: on Linux ``ru_maxrss`` also counts the peak of the image that
# ``exec`` replaced, here the test runner's.
PEAK_RSS_CHILD = """
import sys
from sygus.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(l.split()[1] for l in status if l.startswith("VmHWM:")), file=sys.stderr)
"""


def test_a_huge_model_count_keeps_memory_bounded():
    # Five million sampled models: their seeds are made as verify reaches
    # them, not listed up front, which would take about 200 MB before the
    # deadline is first checked.  A run at the default count peaks near 20 MB.
    src = str(Path(__file__).resolve().parent.parent / "src")
    p = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "solve", "--uf-model-count", "5000000",
         "--timeout-seconds", "1", str(FIXTURES / "uf_pair.sl")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    note, peak_kb = p.stderr.splitlines()
    assert (p.returncode, p.stdout, note) == (0, "(fail)\n", "note: search stopped by timeout")
    assert int(peak_kb) < 100 * 1024



@pytest.mark.parametrize(
    "spec, flags, note",
    [
        (FIXTURES / "uf_pair.sl", [],
         "no counterexample at 11 of 11 grid points under each of 32 sampled "
         "UF models, nor at 256 random samples: tested, not proved"),
        (UF_SUM, ["--uf-model-count", "2"],
         "no counterexample at 10000 of 14641 grid points (truncated) under "
         "each of 2 sampled UF models, nor at 256 random samples: tested, not proved"),
        (BOOL_BV4, [], "valid at all 32 points of a finite domain: proved"),
    ],
    ids=["uf_pair", "uf_sum", "bool_bv4"],
)
def test_verbose_solve_notes_the_evidence(tmp_path, spec, flags, note):
    path = spec
    if isinstance(spec, str):
        path = tmp_path / "spec.sl"
        path.write_text(spec)
    code, _, err = run_cli("solve", "--verbose", *flags, str(path))
    assert (code, err) == (EXIT_OK, f"note: {note}\n")

ONE_LINER = """\
(set-logic LIA)
{options}(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))
(declare-var x Int)
(constraint (= (f x) x))
(check-synth)
"""


def spec_path(tmp_path, options=""):
    path = tmp_path / "spec.sl"
    path.write_text(ONE_LINER.format(options=options))
    return str(path)


# The constraint was checked with the built-in +; evaluation would resolve
# the macro first and accept (+ x 1) for f.
BUILTIN_MACRO = """\
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 1 (+ Start Start) (- Start Start)))))
(declare-var x Int)
(constraint (= (f x) (+ x 1)))
(define-fun + ((a Int) (b Int)) Int (- a b))
(check-synth)
"""


def test_macro_named_like_a_builtin_is_rejected(tmp_path):
    path = tmp_path / "spec.sl"
    path.write_text(BUILTIN_MACRO)
    assert run_cli("solve", str(path)) == (
        EXIT_STATIC, "", f"{path}:5:1: E-CLASH-FUN: '+' is a built-in operator of the active logic\n"
    )


def test_non_ascii_file_is_a_lex_error(tmp_path):
    path = tmp_path / "accent.sl"
    path.write_bytes(b"(set-logic LIA)\n; caf\xc3\xa9\n(check-synth)\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err == f"{path}:2:6: E-LEX: non-ASCII byte 0xc3\n"


def test_overlong_numeral_is_a_lex_error(tmp_path):
    path = tmp_path / "long.sl"
    path.write_text(f"(set-logic LIA)\n(declare-var x Int)\n(constraint (< x {'9' * 5000}))\n(check-synth)\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err == f"{path}:3:18: E-LEX: numeral of 5000 digits is too long\n"


def test_uf_query_past_the_int_string_limit_is_answered(tmp_path):
    # A 4,300-digit numeral lexes; ten times it has 4,301 digits, which the
    # interpreter will not convert with str().  The sampled model hashes it
    # all the same, and the search runs to its size cap.
    path = tmp_path / "long.sl"
    path.write_text(
        "(set-logic LIA)\n(declare-fun uf (Int) Int)\n"
        "(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))\n"
        f"(declare-var x Int)\n(constraint (= (uf (* 10 {'7' * 4300})) (uf (f x))))\n"
        "(check-synth)\n"
    )
    assert run_cli("solve", "--max-term-size", "5", str(path)) == (
        EXIT_FAIL, "(fail)\n", "note: search exhausted at max term size 5\n"
    )


def test_non_ascii_stdin_is_a_lex_error(monkeypatch):
    data = b"(set-logic LIA)\n; caf\xc3\xa9\n(check-synth)\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run_cli("check", "-")
    assert (code, out) == (EXIT_STATIC, "")
    assert err == "<stdin>:2:6: E-LEX: non-ASCII byte 0xc3\n"


def test_ascii_stdin_is_read(monkeypatch):
    data = ONE_LINER.format(options="").encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run_cli("solve", "-") == (EXIT_OK, "(define-fun f ((x Int)) Int x)\n", "")


@pytest.mark.parametrize("subcommand", ["parse", "check", "fmt", "solve"])
def test_deep_nesting_is_a_diagnostic(tmp_path, subcommand):
    path = tmp_path / "deep.sl"
    path.write_text(
        "(declare-var x Int)\n(constraint "
        + "(not " * 3000 + "true" + ")" * 3000
        + ")\n(check-synth)\n"
    )
    code, out, err = run_cli(subcommand, str(path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err == f"{path}:0:0: E-DEPTH: input nests too deeply\n"



def sum_chain_spec(levels):
    body = "(f x)"
    for _ in range(levels):
        body = f"(+ 1 {body})"
    return ONE_LINER.format(options="").replace("(= (f x) x)", f"(> {body} x)")


def run_in_child(subcommand, path):
    """``python -m sygus``, so that the test runner's own frames do not
    count against the interpreter's recursion limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "sygus", subcommand, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_solve_handles_480_levels_of_nesting(tmp_path):
    # A child process solves up to about 490 levels on Python 3.10 and 3.11.
    path = tmp_path / "chain.sl"
    path.write_text(sum_chain_spec(480))
    p = run_in_child("solve", path)
    assert (p.returncode, p.stdout, p.stderr) == (
        EXIT_OK, "(define-fun f ((x Int)) Int x)\n", ""
    )


def test_solve_on_a_far_deeper_chain_is_a_diagnostic(tmp_path):
    path = tmp_path / "chain.sl"
    path.write_text(sum_chain_spec(3000))
    p = run_in_child("solve", path)
    assert (p.returncode, p.stdout) == (EXIT_STATIC, "")
    assert p.stderr == f"{path}:0:0: E-DEPTH: input nests too deeply\n"


@pytest.mark.parametrize("subcommand", ["parse", "fmt", "check"])
def test_front_end_subcommands_handle_480_levels_of_nesting(tmp_path, subcommand):
    # The printers walk with an explicit stack, so parse and fmt reach as
    # deep as check, about 490 levels on Python 3.10 and 3.11.
    chain = "(not " * 480 + "true" + ")" * 480
    path = tmp_path / "deep.sl"
    path.write_text(f"(declare-var x Int)\n(constraint {chain})\n(check-synth)\n")
    p = run_in_child(subcommand, path)
    assert (p.returncode, p.stderr) == (EXIT_OK, "")
    if subcommand == "fmt":
        assert p.stdout == f"(declare-var x Int)\n(constraint {chain})\n(check-synth)\n"
    if subcommand == "parse":
        assert p.stdout.count("(App not ") == 480


# Runs one CLI call, its output discarded, and prints its exit code and then
# the modules the interpreter holds.
MODULES_AFTER_RUN = """
import io, sys
from sygus.cli import run
print(run(sys.argv[1:], io.StringIO(), io.StringIO()))
print(*sys.modules)
"""


def modules_loaded_by(*argv):
    """The exit code of one CLI call in a fresh interpreter, and the modules
    it loaded beyond those of a bare interpreter, whose site hooks may load
    modules of their own."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def child(*args):
        p = subprocess.run(
            [sys.executable, "-c", *args], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True,
        )
        return p.stdout.splitlines()

    code, loaded = child(MODULES_AFTER_RUN, *argv)
    [bare] = child("import sys; print(*sys.modules)")
    return int(code), set(loaded.split()) - set(bare.split())


@pytest.mark.parametrize("subcommand", ["check", "fmt", "parse"])
def test_front_end_subcommands_load_no_solver(subcommand):
    code, loaded = modules_loaded_by(subcommand, str(FIXTURES / "max2_min2.sl"))
    assert code == EXIT_OK
    assert "sygus.parser" in loaded
    assert not loaded & {"sygus.solver", "sygus.evaluator", "_hashlib"}
    # Only check runs the checker.
    assert ("sygus.checker" in loaded) == (subcommand == "check")


def test_solve_loads_no_openssl():
    code, loaded = modules_loaded_by("solve", str(FIXTURES / "max2_min2.sl"))
    assert code == EXIT_OK
    assert "sygus.solver" in loaded
    assert "_hashlib" not in loaded


def test_package_names_resolve():
    namespace = {}
    exec("from sygus import *", namespace)
    assert set(sygus.__all__) <= set(namespace)
    assert sygus.verify is solver.verify
    assert sygus.SolverConfig is solver.SolverConfig
    assert sygus.check_program is checker.check_program
    assert sygus.CheckError is namespace["CheckError"] is checker.CheckError
    # perfbench/tracing.py wraps the CLI's checker call at this name.
    assert callable(cli.check_program)
    with pytest.raises(AttributeError):
        sygus.no_such_name


@pytest.mark.parametrize(
    "parts, digest",
    [
        ((), 0xE4A6A0577479B2B4),
        ((0, "samples"), 0x64E9CB1264CDC282),
        ((7, "bv-grid", 12), 0xE35A742C0B4F00CB),
        ((2**70, -3, "f", b"i-5"), 0x3FB9162729C9EA14),
        ((b"",), 0x4E842F2F50CC089E),
    ],
)
def test_stable_digests_are_unchanged(parts, digest):
    # Digests of hashlib.blake2b: every seed, sampled model and verify
    # stream rests on them.
    assert stable_u64(*parts) == digest


def opt_value_error(path, name, value):
    least = {"max-term-size": 1, "uf-model-count": 1}.get(name, 0)
    return f"{path}:0:0: E-OPT-VALUE: option '{name}' needs a value >= {least}, got \"{value}\"\n"


@pytest.mark.parametrize(
    "name, value",
    [
        ("max-term-size", "0"),
        ("uf-model-count", "0"),
        ("grid-radius", "-1"),
        ("random-samples", "-1"),
        ("timeout-seconds", "-0.5"),
        ("timeout-seconds", "nan"),
    ],
)
def test_out_of_range_flag_is_rejected(tmp_path, name, value):
    path = spec_path(tmp_path)
    got = run_cli("solve", f"--{name}", value, path)
    assert got == (EXIT_STATIC, "", opt_value_error(path, name, value))


# A quoted option value holds only letters, digits and dots, so a file
# cannot write a negative number.
@pytest.mark.parametrize(
    "name, value",
    [("max-term-size", "0"), ("uf-model-count", "0"), ("timeout-seconds", "nan")],
)
def test_out_of_range_set_option_is_rejected(tmp_path, name, value):
    path = spec_path(tmp_path, f'(set-options (({name} "{value}")))\n')
    got = run_cli("solve", path)
    assert got == (EXIT_STATIC, "", opt_value_error(path, name, value))


def test_unconvertible_option_is_rejected(tmp_path):
    code, out, err = run_cli("solve", "--seed", "x", spec_path(tmp_path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err.endswith("E-OPT-VALUE: option 'seed' needs a int value, got \"x\"\n")


def test_flag_wins_over_the_file(tmp_path):
    path = tmp_path / "spec.sl"
    path.write_text(
        ONE_LINER.format(options='(set-options ((max-term-size "3")))\n')
        .replace("(= (f x) x)", "(= (f x) (+ x 5))")
    )
    code, out, err = run_cli("solve", "--max-term-size", "2", str(path))
    assert (code, out, err) == (
        EXIT_FAIL, "(fail)\n", "note: search exhausted at max term size 2\n"
    )


def test_smallest_legal_option_values_are_accepted(tmp_path):
    flags = ["--max-term-size", "1", "--uf-model-count", "1", "--grid-radius", "0",
             "--random-samples", "0"]
    code, out, _ = run_cli("solve", *flags, spec_path(tmp_path))
    assert (code, out) == (EXIT_OK, "(define-fun f ((x Int)) Int x)\n")


def test_solve_help_states_each_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run_cli("solve", "--help")
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "(default: " in line] == [
        "  --max-term-size N     largest term size searched, in nodes (default: 12)",
        "  --grid-radius N       verify on the Int grid [-N, N] (default: 5)",
        "  --random-samples N    random points verified after the grid (default: 256)",
        "  --uf-model-count N    sampled models of uninterpreted functions (default: 32)",
        "  --seed N              seed of every sampled value and model (default: 0)",
        "  --timeout-seconds T   wall-clock limit on the solve, in seconds (default: none)",
    ]

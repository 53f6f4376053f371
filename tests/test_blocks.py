"""The front end a block of lines at a time: ``sygus.lexer.blocks`` cuts the
text, ``tokenize`` lexes one block per call, and the parser reads the tokens
as they come, so ``sygus.cli`` holds the tokens of one block, not of the
whole text.  Nothing it prints may depend on where the blocks are cut."""

import io
import tracemalloc
from contextlib import contextmanager
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sygus import cli, lexer
from sygus.cli import EXIT_OK, EXIT_STATIC
from sygus.lexer import LexError, blocks, tokenize
from sygus.parser import ParseError, parse_program
from sygus.syntax import Pos

from conftest import FIXTURES, collector_paused
from test_front_end_errors import SEEDS, ascii_text, edited_program

SUBCOMMANDS = ("parse", "fmt", "check")


@contextmanager
def block_size(size):
    saved = lexer.BLOCK_SIZE
    lexer.BLOCK_SIZE = size
    try:
        yield
    finally:
        lexer.BLOCK_SIZE = saved


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "spec.sl"


def run_on(path, text, subcommand, size=None):
    """``(exit code, stdout, stderr)`` of ``sygus subcommand`` on ``text``,
    written to ``path`` byte for byte, with blocks of ``size`` characters
    (``None``: the default)."""
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    out, err = io.StringIO(), io.StringIO()
    with block_size(size or lexer.BLOCK_SIZE):
        code = cli.run([subcommand, str(path)], out, err)
    return code, out.getvalue(), err.getvalue()


def chained(text):
    """The tokens of ``text``'s blocks, one ``tokenize`` call each, as the
    CLI makes them."""
    names = {}
    return list(chain.from_iterable(tokenize(b, line, names) for b, line in blocks(text)))


def lexed(lex, text):
    try:
        return lex(text)
    except LexError as e:
        return ("LexError", e.line, e.col, e.message)


# -- cutting ------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab\n\r;"), max_size=60), st.integers(1, 12))
def test_blocks_are_whole_lines_of_at_least_the_block_size(text, size):
    with block_size(size):
        cut = list(blocks(text))
    assert "".join(b for b, _ in cut) == text
    assert [line for _, line in cut] == [
        1 + "".join(b for b, _ in cut[:i]).count("\n") for i in range(len(cut))
    ]
    for block, _ in cut[:-1]:
        assert block.endswith("\n") and len(block) >= size
        assert "\n" not in block[size - 1:-1]
    assert cut[-1][0] or not text


def test_an_empty_text_is_one_empty_block():
    assert list(blocks("")) == [("", 1)]


def test_blocks_of_one_character_are_lines():
    with block_size(1):
        assert list(blocks("a\n\nb c\n")) == [("a\n", 1), ("\n", 2), ("b c\n", 3)]


@settings(max_examples=500, deadline=None)
@given(ascii_text, st.integers(1, 40))
def test_block_tokens_are_the_whole_texts(text, size):
    # Tokens, positions and the first lexical error are those of one call
    # on the whole text.
    with block_size(size):
        assert lexed(chained, text) == lexed(tokenize, text)


# -- the CLI at one character a block against the default ---------------------

ENDS = {
    "no_trailing_newline": "(set-logic LIA)\n(declare-var x Int)\n(constraint (= x x))\n(check-synth)",
    "crlf": "(set-logic LIA)\r\n(declare-var x Int)\r\n(constraint\r\n (= x x))\r\n(check-synth)\r\n",
    "comment_last": "(set-logic LIA) ; logic\n(declare-var x Int) ;\n(check-synth)\n; end",
    "comment_then_error": "(set-logic LIA) ; (\n(declare-var x ; Int)\n)\n",
    "unterminated_quote": '(set-logic LIA)\n(set-options ((seed "1\n)))\n(check-synth)\n',
    "unterminated_quote_at_end": '(set-logic LIA)\n(set-options ((seed "1',
    "parse_error_at_end": "(set-logic LIA)\n(constraint\n",
    # A block ends after each level of nesting, so at one line a block the
    # lexer runs at every depth, up to where the stack overflows.
    "deep_lines": "(constraint\n" + "(+ 1\n" * 3000 + "x" + ")" * 3001 + "\n",
    "deep_lines_then_bad": "(constraint\n" + "(+ 1\n" * 3000 + "x" + ")" * 3001 + "\n#q\n",
    "empty": "",
    "blank_lines": "\n\n  \n",
}
CASES = {
    **{f"fixture_{p.stem}": p.read_text() for p in sorted(FIXTURES.glob("*.sl"))},
    **{f"seed_{i}": text for i, text in enumerate(SEEDS)},
    **ENDS,
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("size", [1, 40])
def test_the_cli_prints_the_same_at_any_block_size(spec_path, case, subcommand, size):
    text = CASES[case]
    assert run_on(spec_path, text, subcommand, size) == run_on(spec_path, text, subcommand)


def test_the_end_cases_reach_the_lexer_and_parser_errors_they_name(spec_path):
    # What the cases above compare: each ends where a block may be cut.
    said = {case: run_on(spec_path, text, "check", 1) for case, text in ENDS.items()}
    assert said["no_trailing_newline"] == said["crlf"] == said["comment_last"] == (EXIT_OK, "", "")
    assert said["unterminated_quote"][2] == (
        f"{spec_path}:2:23: E-LEX: character '\\n' not allowed in a quoted literal\n"
    )
    assert said["unterminated_quote_at_end"][2] == (
        f"{spec_path}:2:21: E-LEX: unterminated quoted literal\n"
    )
    assert said["deep_lines"][2] == f"{spec_path}:0:0: E-DEPTH: input nests too deeply\n"
    assert said["deep_lines_then_bad"][2] == (
        f"{spec_path}:3003:1: E-LEX: expected 'b' or 'x' after '#'\n"
    )
    assert said["parse_error_at_end"][2] == (
        f"{spec_path}:2:2: E-PARSE: expected a term, found end of input\n"
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(edited_program(), ascii_text), st.sampled_from(SUBCOMMANDS))
def test_the_cli_prints_the_same_on_any_front_end_error_case(spec_path, text, subcommand):
    assert run_on(spec_path, text, subcommand, 1) == run_on(spec_path, text, subcommand)


# -- which error wins, over blocks of the default size -------------------------

# Well over one block of the default size.
FILLER = "(declare-var x Int)\n" + "(constraint (= x x))\n" * 4000


def line_of(text, piece):
    return text[: text.index(piece)].count("\n") + 1


def block_of(text, piece):
    """The index of the block holding the first ``piece`` of ``text``."""
    at = text.index(piece)
    starts = [0]
    for block, _ in blocks(text):
        starts.append(starts[-1] + len(block))
    return max(i for i, start in enumerate(starts[:-1]) if start <= at)


def test_a_bad_character_in_a_later_block_wins_over_a_parse_error(spec_path):
    text = "(set-logic LIA\n" + FILLER + "  @\n"
    assert block_of(text, "@") > block_of(text, "(set-logic")
    line = line_of(text, "@")
    assert run_on(spec_path, text, "check") == (
        EXIT_STATIC, "", f"{spec_path}:{line}:3: E-LEX: character '@' cannot start a token\n"
    )


def test_the_parser_stops_at_a_parse_error_before_a_later_bad_character(monkeypatch):
    # The library half of the rule above: ``parse_program`` reads no block
    # past its first error, and the CLI's front end lexes the rest, each
    # block once.
    text = "(set-logic LIA\n" + FILLER + "  @\n"
    lexed_blocks = []

    def lex(block, line, names):
        lexed_blocks.append(line)
        return tokenize(block, line, names)

    names = {}
    tokens = chain.from_iterable(lex(b, line, names) for b, line in blocks(text))
    with pytest.raises(ParseError) as info:
        parse_program(tokens)
    assert (info.value.code, info.value.pos) == ("E-PARSE", Pos(2, 1))
    assert info.value.message == "expected ')' closing the command, found '('"
    assert lexed_blocks == [1]
    lexed_blocks.clear()
    monkeypatch.setattr(cli, "tokenize", lex)
    with pytest.raises(LexError) as info:
        cli._front_end(text)
    assert (info.value.line, info.value.col) == (line_of(text, "@"), 3)
    assert lexed_blocks == [line for _, line in blocks(text)]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_a_bad_character_in_a_later_block_wins_over_depth(spec_path, subcommand):
    deep = "(constraint " + "(not " * 3000 + "true" + ")" * 3000 + ")\n"
    text = deep + FILLER + "#q\n"
    assert block_of(text, "#q") > 0
    line = line_of(text, "#q")
    assert run_on(spec_path, text, subcommand) == (
        EXIT_STATIC, "", f"{spec_path}:{line}:1: E-LEX: expected 'b' or 'x' after '#'\n"
    )
    # Without the bad character, the same input nests too deeply.
    assert run_on(spec_path, deep + FILLER, subcommand) == (
        EXIT_STATIC, "", f"{spec_path}:0:0: E-DEPTH: input nests too deeply\n"
    )


@pytest.mark.parametrize(
    "before, after, line, col",
    [(b";\xff\n", b"", 1, 2), (b"", b"(check-synth) \xff\n", 4004, 15)],
    ids=["first_block", "last_block"],
)
def test_a_non_ascii_byte_anywhere_is_the_first_diagnostic(spec_path, before, after, line, col):
    # The text holds a parse error in its first block and a bad character
    # in a later one.
    data = before + ("(set-logic LIA\n" + FILLER + "@\n").encode() + after
    assert run_on(spec_path, data, "parse") == (
        EXIT_STATIC, "", f"{spec_path}:{line}:{col}: E-LEX: non-ASCII byte 0xff\n"
    )


# -- one string per name ------------------------------------------------------

def test_a_name_is_one_string_across_blocks():
    text = "(declare-var wide Int)\n" + FILLER + "(constraint (= wide 0))\n"
    assert block_of(text, "(constraint (= wide") > 0
    program = cli._front_end(text)
    declared, used = program.commands[0].name, program.commands[-1].body.args[0].name
    assert declared == used == "wide"
    assert declared is used


# -- memory ---------------------------------------------------------------------

def pbe_spec(examples):
    """A programming-by-example problem with one constraint per example."""
    lines = [
        "(set-logic LIA)",
        "(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y 0 1 (+ Start Start)"
        " (ite B Start Start))) (B Bool ((<= Start Start)))))",
        "(declare-var x Int)",
        "(declare-var y Int)",
    ]
    lines += [
        f"(constraint (= (f {i} {-2 * i}) (ite (<= {i} {-2 * i}) {-2 * i} {i})))"
        for i in range(examples)
    ]
    return "\n".join(lines) + "\n(check-synth)\n"


def traced():
    return tracemalloc.get_traced_memory()[0]


def test_parse_holds_the_tokens_of_a_block_not_of_the_file(tmp_path, monkeypatch):
    # Tracemalloc counts the same allocations on every run, unlike RSS.
    # When it starts to print, ``parse`` holds the tree alone; it holds the
    # text too while it parses, and the dump while it prints.  Its peak may
    # pass those by less than two blocks' worth of tokens, where the whole
    # file's would be eight times as much.
    text = pbe_spec(16000)
    assert len(text) > 1_000_000 and len(list(blocks(text))) >= 16
    path = tmp_path / "pbe.sl"
    path.write_text(text)
    tree = []

    def dump_program(program):
        tree.append(traced() - start)
        return dump(program)

    dump = cli.dump_program
    monkeypatch.setattr(cli, "dump_program", dump_program)
    with collector_paused():
        tracemalloc.start()
        try:
            start = traced()
            tokens = tokenize(text[: text.index("\n", 2 * lexer.BLOCK_SIZE) + 1])
            two_blocks = traced() - start
            del tokens
            out, err = io.StringIO(), io.StringIO()
            tracemalloc.reset_peak()
            start = traced()
            code = cli.run(["parse", str(path)], out, err)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert (code, err.getvalue()) == (EXIT_OK, "")
    assert peak / (tree[0] + len(text) + len(out.getvalue()) + two_blocks) < 1

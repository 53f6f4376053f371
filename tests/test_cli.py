from io import StringIO

import pytest

from sygus.cli import EXIT_FAIL, EXIT_OK, run

from conftest import FIXTURE_SOLUTIONS, FIXTURES, LIA_ITE_UNSOLVABLE


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

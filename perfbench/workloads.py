"""Seeded inputs and hand-written expected outputs for each workload.

Every solver input is a fixed base problem written below with ``{NAME}``
placeholders.  The seed only renames symbols: each placeholder becomes a
distinct name of fixed length, so every seed gives the solver the same work
(same enumeration order, same counterexamples, same verify calls) on a
different text.  Uninterpreted functions keep their names, because a UF's
sampled model is a hash of its name.

Expected outputs are written by hand for the base problem in the CLI's
one-line-per-``define-fun`` format and renamed with the same map.  For the
front-end corpus the generator builds the syntax tree itself and prints both
a laid-out input and the canonical form ``sygus fmt`` must produce; neither
comes from the program under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

WORKLOADS = ("multi_joint", "enum_exhaust", "verify_uf", "frontend")

EXIT_OK = 0
EXIT_FAIL = 1


@dataclass(frozen=True)
class Invocation:
    """One ``python -m sygus`` call and the result it must produce."""

    args: tuple[str, ...]  # subcommand and flags; the input path goes last
    file: str
    stdout: str
    exit_code: int


@dataclass(frozen=True)
class Workload:
    files: dict[str, str]  # file name -> text
    measured: tuple[Invocation, ...]  # one pass of the timed run
    setup: tuple[Invocation, ...]  # one pass of ``sygus check``


class Renamer:
    """Seeded map from placeholders to distinct fixed-length names."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._names: dict[str, str] = {}
        self._used: set[str] = set()

    def __getitem__(self, key: str) -> str:
        if key not in self._names:
            while True:
                # Two letters, '_', four letters: never a keyword or operator.
                name = (
                    "".join(self._rng.choices(string.ascii_lowercase, k=2))
                    + "_"
                    + "".join(self._rng.choices(string.ascii_lowercase, k=4))
                )
                if name not in self._used:
                    break
            self._used.add(name)
            self._names[key] = name
        return self._names[key]

    def fill(self, template: str) -> str:
        return template.format_map(self)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# multi_joint: two-function joint specifications of the max2/min2 family.
# The sum constraint ties the two functions together, so the search walks
# lockstep tuples and screens each against the stored counterexamples.

_MAX2_MIN2 = """\
(set-logic LIA)
(synth-fun {F} (({X} Int) ({Y} Int)) Int
   ((Start Int (0 1 {X} {Y} (+ Start Start) (ite {B} Start Start)))
    ({B} Bool ((and {B} {B}) (not {B}) (<= Start Start)))))
(synth-fun {G} (({X} Int) ({Y} Int)) Int
   ((Start Int ((Constant Int) (Variable Int) (+ Start Start) (ite {B} Start Start)))
    ({B} Bool ((and {B} {B}) (not {B}) (<= Start Start)))))
(declare-var {X} Int)
(declare-var {Y} Int)
(constraint (>= ({F} {X} {Y}) {X}))
(constraint (>= ({F} {X} {Y}) {Y}))
(constraint (or (= {X} ({F} {X} {Y})) (= {Y} ({F} {X} {Y}))))
(constraint (= (+ ({F} {X} {Y}) ({G} {X} {Y})) (+ {X} {Y})))
(check-synth)
"""

_MAX2_MIN2_EXPECTED = """\
(define-fun {F} (({X} Int) ({Y} Int)) Int (ite (<= {X} {Y}) {Y} {X}))
(define-fun {G} (({X} Int) ({Y} Int)) Int (ite (<= {X} {Y}) {X} {Y}))
"""

_MAX2_DIFF = """\
(set-logic LIA)
(synth-fun {F} (({X} Int) ({Y} Int)) Int
   ((Start Int ({X} {Y} (- Start Start) (ite {B} Start Start)))
    ({B} Bool ((not {B}) (<= Start Start)))))
(synth-fun {G} (({X} Int) ({Y} Int)) Int
   ((Start Int ((Constant Int) (Variable Int) (+ Start Start) (ite {B} Start Start)))
    ({B} Bool ((and {B} {B}) (not {B}) (<= Start Start)))))
(declare-var {X} Int)
(declare-var {Y} Int)
(constraint (>= ({F} {X} {Y}) {X}))
(constraint (>= ({F} {X} {Y}) {Y}))
(constraint (or (= {X} ({F} {X} {Y})) (= {Y} ({F} {X} {Y}))))
(constraint (= (+ ({F} {X} {Y}) ({G} {X} {Y})) (+ {X} {Y})))
(check-synth)
"""

# ---------------------------------------------------------------------------
# enum_exhaust: single-function specifications with no solution up to the
# size cap, so the search builds every table level and screens every term.

_LIA_ITE = """\
(set-logic LIA)
(synth-fun {F} (({X} Int) ({Y} Int)) Int
   ((Start Int (0 1 {X} {Y} (+ Start Start) (- Start Start) (ite {B} Start Start)))
    ({B} Bool ((and {B} {B}) (not {B}) (<= Start Start)))))
(declare-var {X} Int)
(declare-var {Y} Int)
(constraint (= ({F} {X} {Y}) (+ {X} 100)))
(check-synth)
"""

# Bitwise operators act on each bit alone; x + x moves bit i to bit i + 1.
_BV_BITWISE = """\
(set-logic BV)
(synth-fun {F} (({X} (BitVec 8))) (BitVec 8)
   ((Start (BitVec 8) ((Constant (BitVec 8)) {X} (bvand Start Start) (bvxor Start Start) (bvnot Start)))))
(declare-var {X} (BitVec 8))
(constraint (= ({F} {X}) (bvadd {X} {X})))
(check-synth)
"""

# Sums of the inputs are never 45 more than x at x = y = -5.
_LET_SUM = """\
(set-logic LIA)
(synth-fun {F} (({X} Int) ({Y} Int)) Int
   ((Start Int ({X} {Y} {Z} (+ Start Start) (let (({Z} Int Start)) Start)))))
(declare-var {X} Int)
(declare-var {Y} Int)
(constraint (= ({F} {X} {Y}) (+ {X} 50)))
(check-synth)
"""

# ---------------------------------------------------------------------------
# verify_uf: tiny solutions behind an uninterpreted function over four Int
# variables, so each Valid verdict walks the capped grid for every model.

_UF_SUM = """\
(set-logic LIA)
(declare-fun uf (Int) Int)
(synth-fun {F} (({A} Int) ({B} Int) ({C} Int) ({D} Int)) Int
   ((Start Int ({A} {B} {C} {D} (+ Start Start)))))
(declare-var {A} Int)
(declare-var {B} Int)
(declare-var {C} Int)
(declare-var {D} Int)
(constraint (= (uf ({F} {A} {B} {C} {D})) (uf (+ {A} {B}))))
(check-synth)
"""

_UF_SUM_EXPECTED = "(define-fun {F} (({A} Int) ({B} Int) ({C} Int) ({D} Int)) Int (+ {A} {B}))\n"

_UF_DIFF = """\
(set-logic LIA)
(declare-fun g (Int Int) Int)
(synth-fun {F} (({A} Int) ({B} Int) ({C} Int) ({D} Int)) Int
   ((Start Int ({A} {B} {C} {D} (- Start Start)))))
(declare-var {A} Int)
(declare-var {B} Int)
(declare-var {C} Int)
(declare-var {D} Int)
(constraint (= (g ({F} {A} {B} {C} {D}) {D}) (g (- {A} {C}) {D})))
(check-synth)
"""

_UF_DIFF_EXPECTED = "(define-fun {F} (({A} Int) ({B} Int) ({C} Int) ({D} Int)) Int (- {A} {C}))\n"

#: (file stem, template, expected stdout template, exit code, solve flags)
_SOLVER_CASES = {
    "multi_joint": (
        ("max2_min2", _MAX2_MIN2, _MAX2_MIN2_EXPECTED, EXIT_OK, ()),
        ("max2_diff", _MAX2_DIFF, _MAX2_MIN2_EXPECTED, EXIT_OK, ()),
    ),
    "enum_exhaust": (
        ("lia_ite", _LIA_ITE, "(fail)\n", EXIT_FAIL, ("--max-term-size", "8")),
        ("bv_bitwise", _BV_BITWISE, "(fail)\n", EXIT_FAIL, ("--max-term-size", "5")),
        ("let_sum", _LET_SUM, "(fail)\n", EXIT_FAIL, ("--max-term-size", "9")),
    ),
    # 8 sampled models instead of the default 32 keep one pass near 4 s;
    # the grid is still capped at 10,000 points per model.
    "verify_uf": (
        ("uf_sum", _UF_SUM, _UF_SUM_EXPECTED, EXIT_OK, ("--uf-model-count", "8")),
        ("uf_diff", _UF_DIFF, _UF_DIFF_EXPECTED, EXIT_OK, ("--uf-model-count", "8")),
    ),
}


def _solver_workload(workload: str, seed: int) -> Workload:
    rng = _rng(workload, seed)
    files: dict[str, str] = {}
    measured = []
    setup = []
    for stem, template, expected, code, flags in _SOLVER_CASES[workload]:
        names = Renamer(rng)
        name = f"{stem}.sl"
        files[name] = names.fill(template)
        measured.append(
            Invocation(("solve",) + flags, name, names.fill(expected), code)
        )
        setup.append(Invocation(("check",), name, "", EXIT_OK))
    return Workload(files, tuple(measured), tuple(setup))


# ---------------------------------------------------------------------------
# frontend: large well-formed files for ``check`` and ``fmt``.
#
# A tree is a str (atom) or a list of trees.  ``_canonical`` prints what the
# CLI's printer prints: one command per line, single spaces.  ``_laid_out``
# prints the same tokens the way a person might write them: comments, line
# breaks and indentation, identical for every seed.

Tree = object


def _canonical(t: Tree) -> str:
    if isinstance(t, str):
        return t
    return "(" + " ".join(_canonical(c) for c in t) + ")"


def _laid_out(command: Tree, index: int) -> str:
    out = [f"; command {index}\n"]
    col = 0
    depth = 0

    def emit(tok: str) -> None:
        nonlocal col
        if col >= 72:
            out.append("\n" + " " * (2 * (depth % 12)))
            col = 2 * (depth % 12)
        out.append(tok)
        col += len(tok)

    # Iterative walk, because trees nest a few hundred levels deep.  A node
    # that is not first in its list is preceded by a space.
    stack = [(command, True)]
    while stack:
        node, first = stack.pop()
        if isinstance(node, str):
            if node == ")":
                depth -= 1
                emit(")")
            else:
                emit(node if first else " " + node)
            continue
        emit("(" if first else " (")
        depth += 1
        stack.append((")", True))
        for i in range(len(node) - 1, -1, -1):
            stack.append((node[i], i == 0))
    out.append("\n\n")
    return "".join(out)


def _num(rng: random.Random, sign: int) -> str:
    # Three digits and a fixed sign keep the text length seed-independent.
    return str(sign * rng.randint(100, 999))


def _deep_body(names: Renamer, rng: random.Random, tag: str, depth: int,
               p: str, q: str, callee: str | None) -> Tree:
    """An Int term nesting ``depth`` levels of +, -, ite, let and calls."""
    t: Tree = p
    for level in range(depth):
        kind = level % 5
        if kind == 0:
            t = ["+", t, _num(rng, 1)]
        elif kind == 1:
            t = ["-", q, t]
        elif kind == 2:
            t = ["ite", ["<=", p, _num(rng, -1)], t, ["+", q, p]]
        elif kind == 3:
            bound = names[f"{tag}_let{level}"]
            t = ["let", [[bound, "Int", ["+", p, _num(rng, 1)]]], ["+", bound, t]]
        elif callee is not None:
            t = [callee, t, q]
        else:
            t = ["*", _num(rng, 1), t]
    return t


def _frontend_file(names: Renamer, rng: random.Random, macros: int, depth: int,
                   synth_funs: int, examples: int) -> list[Tree]:
    x, y = names["x"], names["y"]
    cmds: list[Tree] = [["set-logic", "LIA"]]
    sort = names["sort"]
    cmds.append(["define-sort", sort, "Int"])
    macro_names = []
    for m in range(macros):
        name, p, q = names[f"m{m}"], names[f"m{m}_p"], names[f"m{m}_q"]
        callee = macro_names[-1] if macro_names else None
        body = _deep_body(names, rng, f"m{m}", depth, p, q, callee)
        cmds.append(["define-fun", name, [[p, sort], [q, "Int"]], "Int", body])
        macro_names.append(name)
    funs = []
    for s in range(synth_funs):
        f, a, b = names[f"f{s}"], names[f"f{s}_a"], names[f"f{s}_b"]
        nt_bool, nt_int, bound = names[f"f{s}_nb"], names[f"f{s}_ni"], names[f"f{s}_z"]
        start = [
            "Start", "Int",
            [
                ["Constant", "Int"], ["Variable", "Int"], ["InputVariable", "Int"],
                ["LocalVariable", "Int"], nt_int,
                ["+", "Start", "Start"], ["-", "Start", nt_int],
                ["ite", nt_bool, "Start", "Start"],
                ["let", [[bound, "Int", nt_int]], ["+", bound, "Start"]],
                [macro_names[0], "Start", nt_int],
            ],
        ]
        ints = [nt_int, "Int", [a, b, _num(rng, 1), ["*", _num(rng, 1), nt_int]]]
        bools = [
            nt_bool, "Bool",
            [
                "true", ["<=", "Start", nt_int], ["=", nt_int, "Start"],
                ["and", nt_bool, nt_bool], ["not", nt_bool],
            ],
        ]
        cmds.append(["synth-fun", f, [[a, "Int"], [b, "Int"]], "Int", [start, ints, bools]])
        funs.append(f)
    cmds.append(["declare-var", x, "Int"])
    cmds.append(["declare-var", y, "Int"])
    for e in range(examples):
        f = funs[e % len(funs)]
        if e % 4 == 3:
            m = macro_names[e % len(macro_names)]
            cmds.append(["constraint", ["=", [f, x, y], [m, x, y]]])
        else:
            args = [_num(rng, 1), _num(rng, -1)]
            cmds.append(["constraint", ["=", [f] + args, _num(rng, 1)]])
    cmds.append(["check-synth"])
    return cmds


#: (file stem, macros, macro nesting depth, synth-funs, PBE examples)
_FRONTEND_FILES = (
    ("pbe", 4, 60, 4, 1600),
    ("deep", 28, 200, 2, 200),
    ("grammar", 6, 60, 200, 400),
)


def _frontend_workload(seed: int) -> Workload:
    rng = _rng("frontend", seed)
    files: dict[str, str] = {}
    measured = []
    setup = []
    for stem, macros, depth, synth_funs, examples in _FRONTEND_FILES:
        names = Renamer(rng)
        cmds = _frontend_file(names, rng, macros, depth, synth_funs, examples)
        name = f"{stem}.sl"
        files[name] = "".join(_laid_out(c, i) for i, c in enumerate(cmds))
        canonical = "".join(_canonical(c) + "\n" for c in cmds)
        check = Invocation(("check",), name, "", EXIT_OK)
        measured += [check, Invocation(("fmt",), name, canonical, EXIT_OK)]
        setup.append(check)
    return Workload(files, tuple(measured), tuple(setup))


def generate(workload: str, seed: int) -> Workload:
    """The inputs and expected results of one workload for one seed."""
    if workload == "frontend":
        return _frontend_workload(seed)
    return _solver_workload(workload, seed)

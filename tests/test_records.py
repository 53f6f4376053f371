"""The immutable records of ``syntax``, ``checker``, ``evaluator``,
``solver`` and ``config`` behave as frozen dataclasses do: fields in
declaration order, frozen, ``==`` and ``hash`` over the compared fields, the
dataclass repr, and working ``copy`` and ``pickle``; and they have no
``__dict__``.  Each registers with ``dataclasses`` on first use."""

import ast
import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from sygus import checker, config, evaluator, solver, syntax
from sygus.config import SolverConfig
from sygus.checker import (
    R_BOOL,
    R_INT,
    CheckedNT,
    CheckedProblem,
    FuncEntry,
    RArray,
    RBitVec,
    RBool,
    REnum,
    RInt,
    RReal,
    SynthTask,
)
from sygus.evaluator import Value
from sygus.parser import parse_text
from sygus.solver import Counterexample, ExpandedGrammar, Fail, Solved, Valid, _Prod
from sygus.syntax import (
    App,
    ArraySort,
    Binding,
    BitVecSort,
    BoolConst,
    BoolSort,
    BVConst,
    CheckSynth,
    ConstantOf,
    Constraint,
    DeclareFun,
    DeclareVar,
    DefineFun,
    DefineSort,
    EnumConst,
    EnumSort,
    InputVariableOf,
    IntConst,
    IntSort,
    Let,
    Lit,
    LocalVariableOf,
    NamedSort,
    NTDef,
    Pos,
    Program,
    RealConst,
    RealSort,
    Record,
    Ref,
    SetLogic,
    SetOptions,
    SynthFun,
    VariableOf,
)

from conftest import FIXTURES, ROOT, child

# The fields of every record, in declaration order.
FIELDS = {
    syntax: {
        "Pos": ("line", "col"),
        "IntConst": ("value",),
        "RealConst": ("value",),
        "BoolConst": ("value",),
        "BVConst": ("width", "value"),
        "EnumConst": ("sort_name", "constructor"),
        "IntSort": ("pos",),
        "BoolSort": ("pos",),
        "RealSort": ("pos",),
        "BitVecSort": ("width", "pos"),
        "EnumSort": ("constructors", "pos"),
        "ArraySort": ("domain", "codomain", "pos"),
        "NamedSort": ("name", "pos"),
        "App": ("head", "args", "pos"),
        "Lit": ("value", "pos"),
        "Ref": ("name", "pos"),
        "Let": ("bindings", "body", "pos"),
        "ConstantOf": ("sort", "pos"),
        "VariableOf": ("sort", "pos"),
        "InputVariableOf": ("sort", "pos"),
        "LocalVariableOf": ("sort", "pos"),
        "NTDef": ("name", "sort", "productions", "pos"),
        "SetLogic": ("logic", "pos"),
        "DefineSort": ("name", "body", "pos"),
        "DeclareVar": ("name", "sort", "pos"),
        "DeclareFun": ("name", "arg_sorts", "ret", "pos"),
        "DefineFun": ("name", "params", "ret", "body", "pos"),
        "SynthFun": ("name", "params", "ret", "grammar", "pos"),
        "Constraint": ("body", "pos"),
        "CheckSynth": ("pos",),
        "SetOptions": ("opts", "pos"),
        "Program": ("commands",),
    },
    checker: {
        "RInt": (),
        "RBool": (),
        "RReal": (),
        "RBitVec": ("width",),
        "REnum": ("identity", "constructors"),
        "RArray": ("domain", "codomain"),
        "CheckedNT": ("name", "sort", "productions", "pos"),
        "SynthTask": (
            "name", "params", "ret", "grammar", "surface_params", "surface_ret", "lets",
        ),
        "CheckedProblem": (
            "sig", "universal_vars", "uf_decls", "synth_tasks", "constraints",
            "options", "sort_defs", "funcs", "enums", "logic_pos", "var_pos",
        ),
        "FuncEntry": ("name", "kind", "arg_sorts", "ret", "params", "body", "index", "pos"),
    },
    evaluator: {
        "Value": ("sort", "value"),
    },
    solver: {
        "ExpandedGrammar": ("nts", "let_names"),
        "_Prod": ("template", "holes", "own_size", "bound", "free", "column"),
        "Valid": ("grid_points", "grid_size", "uf_models", "random_samples", "exhaustive"),
        "Counterexample": ("assignment", "uf_seed"),
        "Solved": ("terms", "evidence"),
        "Fail": ("reason",),
    },
    config: {
        "SolverConfig": (
            "max_term_size", "grid_radius", "random_samples", "uf_model_count", "seed",
            "constant_pool", "timeout_seconds",
        ),
    },
}

P = Pos(3, 4)
X = Ref("x", Pos(5, 6))
ONE = Lit(IntConst(1), Pos(5, 8))
START = NTDef("Start", IntSort(P), (X, ONE), P)
CHECKED_START = CheckedNT("Start", R_INT, (X, ONE), P)
TASK = SynthTask(
    "f", (("x", R_INT),), R_INT, (CHECKED_START,), (("x", IntSort(P)),), IntSort(P),
    (("z", R_INT),),
)
VALID = Valid(121, 121, 0, 256, False)
UF = FuncEntry("u", "uf", (R_INT,), R_INT, index=0, pos=P)

# One record of each class.  ``CheckedProblem.sig`` holds None here: a
# ``TheorySignature`` has no ``==``, so no copy of it compares equal.
SAMPLES = [
    P,
    IntConst(5),
    RealConst(Fraction(1, 4)),
    BoolConst(True),
    BVConst(4, 9),
    EnumConst("Color", "Red"),
    IntSort(P),
    BoolSort(P),
    RealSort(P),
    BitVecSort(8, P),
    EnumSort(("Red", "Green"), P),
    ArraySort(IntSort(P), BoolSort(), P),
    NamedSort("S", P),
    App("+", (X, ONE), P),
    ONE,
    X,
    Let((Binding("z", IntSort(P), X),), Ref("z"), P),
    ConstantOf(IntSort(), P),
    VariableOf(IntSort(), P),
    InputVariableOf(IntSort(), P),
    LocalVariableOf(IntSort(), P),
    START,
    SetLogic("LIA", P),
    DefineSort("S", IntSort(), P),
    DeclareVar("x", IntSort(), P),
    DeclareFun("u", (IntSort(),), IntSort(), P),
    DefineFun("h", (("a", IntSort()),), IntSort(), Ref("a"), P),
    SynthFun("f", (("x", IntSort()),), IntSort(), (START,), P),
    Constraint(Lit(BoolConst(True)), P),
    CheckSynth(P),
    SetOptions((("seed", "1"),), P),
    Program((CheckSynth(P),)),
    RInt(),
    RBool(),
    RReal(),
    RBitVec(8),
    REnum("Color", ("Red", "Green")),
    RArray(R_INT, R_BOOL),
    CHECKED_START,
    TASK,
    CheckedProblem(
        None, {"x": R_INT}, (UF,), (TASK,), (X,), (("seed", "1"),), {},
        {"f": (FuncEntry("f", "synth", (R_INT,), R_INT, ("x",), pos=P),), "u": (UF,)},
        {"Color": REnum("Color", ("Red",))}, P, {"x": P},
    ),
    FuncEntry("h", "macro", (R_INT,), R_BOOL, ("a",), X, pos=P),
    Value(R_INT, -3),
    Value(RBool(), False),
    Value(RReal(), Fraction(5, 2)),
    Value(RBitVec(4), 9),
    Value(REnum("Color", ("Red", "Green")), "Red"),
    ExpandedGrammar({"Start": CHECKED_START}, frozenset({"z"})),
    _Prod(
        App("+", (Ref("Start"), Ref("Start"))), ("Start", "Start"), 1,
        (frozenset(), frozenset()), frozenset(), None,
    ),
    VALID,
    Counterexample({"x": Value(R_INT, 2)}, 7),
    Solved({"f": X}, VALID),
    Fail("timeout"),
    SolverConfig(),
]
# A value is named by its sort: ``Value-Int`` and so on.
SAMPLE_IDS = [
    f"Value-{type(r.sort).__name__[1:]}" if isinstance(r, Value) else type(r).__name__
    for r in SAMPLES
]


def record_classes(module):
    """The record classes a module defines; a base class of records, such
    as ``Term``, is not one."""
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, Record)
        and obj.__module__ == module.__name__ and not obj.__subclasses__()
    }


def uncompared(record):
    """The fields ``==`` and ``hash`` leave out: the position of every
    syntax node, non-terminal, declared function, logic and universal
    variable, and an enum sort's constructors."""
    if isinstance(record, REnum):
        return {"constructors"}
    if isinstance(record, CheckedProblem):
        return {"logic_pos", "var_pos"}
    if isinstance(record, (CheckedNT, FuncEntry)):
        return {"pos"}
    if type(record).__module__ == syntax.__name__ and "pos" in type(record).__slots__:
        return {"pos"}
    return set()


def differing(value):
    """A value unequal to ``value``, of a kind its field accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value[:-1] if value else ("x",)
    if isinstance(value, (dict, frozenset)):
        return type(value)() if value else {"x": 1}
    if isinstance(value, Pos):
        return Pos(value.line + 1, value.col)
    if isinstance(value, Record):
        return Program(()) if not isinstance(value, Program) else Program((CheckSynth(),))
    assert value is None
    return 0


def with_field(record, name, value):
    cls = type(record)
    return cls(*[value if f == name else getattr(record, f) for f in cls.__slots__])


def test_samples_cover_every_record_class():
    for module, fields in FIELDS.items():
        assert set(record_classes(module)) == set(fields), module.__name__
    # One sample of each class but ``Value``, which has one of each sort.
    classes = [type(r).__name__ for r in SAMPLES if not isinstance(r, Value)] + ["Value"]
    assert sorted(classes) == sorted(n for fields in FIELDS.values() for n in fields)
    assert sorted(type(r.sort).__name__ for r in SAMPLES if isinstance(r, Value)) == [
        "RBitVec", "RBool", "REnum", "RInt", "RReal"
    ]


@pytest.mark.parametrize("module", list(FIELDS), ids=lambda m: m.__name__)
def test_fields_in_declaration_order(module):
    for name, cls in record_classes(module).items():
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == FIELDS[module][name]
        assert cls.__slots__ == names


def bases_then_records_backwards():
    """``module.Name`` of every base class of records, then of every record
    class, the last declared first."""
    bases, records = [], []
    for module in FIELDS:
        for name, cls in vars(module).items():
            if (
                isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
                and cls.__module__ == module.__name__
            ):
                (bases if cls.__subclasses__() else records).append(f"{module.__name__}.{name}")
    return bases + records[::-1]


# Prints the field names ``dataclasses.fields`` gives for each class named in
# the arguments (``module.Name``), asked in that order.
FIELDS_IN_ORDER = """
import dataclasses, importlib, sys
for arg in sys.argv[1:]:
    module, name = arg.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    print(repr(tuple(f.name for f in dataclasses.fields(cls))))
"""


def test_registration_on_first_use_in_any_order():
    # A fresh interpreter, where no record is registered yet.  Registering a
    # base first must not hide the fields of the records below it.
    names = bases_then_records_backwards()
    assert names[0] == "sygus.syntax.Literal" and "sygus.syntax.Term" in names
    got = dict(zip(names, map(ast.literal_eval, child(FIELDS_IN_ORDER, *names))))
    for module, fields in FIELDS.items():
        for name in fields:
            assert got.pop(f"{module.__name__}.{name}") == fields[name], name
    # What is left are the bases, which have no fields.
    assert set(got.values()) == {()}


# Registers ``Term`` alone, then counts the nodes of a parsed file as the
# benchmark's tracer does, through ``dataclasses.is_dataclass`` and
# ``fields`` on the nodes.
COUNT_NODES_AFTER_A_BASE = """
import dataclasses, sys
sys.path.insert(0, sys.argv[1])
from tracing import count_nodes
from sygus.parser import parse_text
from sygus.syntax import Term
assert dataclasses.fields(Term) == ()
print(count_nodes(parse_text(open(sys.argv[2]).read())))
"""


@pytest.mark.parametrize("name, count", [("max2_min2", 106), ("uf_pair", 52), ("let_grammar", 28)])
def test_tracer_counts_nodes_after_a_base_is_registered(name, count):
    [got] = child(COUNT_NODES_AFTER_A_BASE, str(ROOT / "perfbench"), str(FIXTURES / f"{name}.sl"))
    assert int(got) == count


# The records that write their own ``__init__``: two validate their fields,
# the rest are built once per parsed node or value, where the inherited
# constructor would cost about twice as much.
OWN_INIT = {
    "RealConst", "BVConst", "Pos", "App", "Ref", "Lit", "Let", "IntConst", "BoolConst",
    "EnumConst", "Value", "RBitVec",
}


def all_record_classes():
    """Every class below ``Record`` that the modules define, bases too."""
    return [
        cls for module in FIELDS for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
        and cls.__module__ == module.__name__
    ]


def test_own_constructors_take_exactly_the_slots():
    own = set()
    for cls in all_record_classes():
        assert set(cls._defaults) <= set(cls.__slots__) or not cls.__slots__, cls.__name__
        if "__init__" not in cls.__dict__:
            continue
        own.add(cls.__name__)
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == cls.__slots__, cls.__name__
        assert code.co_kwonlyargcount == 0 and code.co_flags & 0x0C == 0, cls.__name__
        # A default in the signature is the one ``_defaults`` gives.
        defaults = cls.__init__.__defaults__ or ()
        assert dict(zip(cls.__slots__[len(cls.__slots__) - len(defaults):], defaults)) == {
            name: value for name, value in cls._defaults.items() if name in cls.__slots__
        }, cls.__name__
    assert own == OWN_INIT


@pytest.mark.parametrize("record", SAMPLES, ids=SAMPLE_IDS)
def test_built_by_position_and_by_keyword(record):
    cls = type(record)
    values = [getattr(record, f) for f in cls.__slots__]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_position == by_keyword == record
    assert repr(by_position) == repr(by_keyword) == repr(record)


@pytest.mark.parametrize("record", SAMPLES, ids=SAMPLE_IDS)
def test_a_bad_call_raises_type_error(record):
    cls = type(record)
    fields = dict(zip(cls.__slots__, [getattr(record, f) for f in cls.__slots__]))
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=0)
    for name in fields:
        with pytest.raises(TypeError):
            cls(*fields.values(), **{name: fields[name]})
        if name not in cls._defaults:
            with pytest.raises(TypeError):
                cls(**{f: v for f, v in fields.items() if f != name})


def test_an_omitted_field_takes_its_default():
    assert IntSort() == IntSort(Pos(0, 0)) and IntSort().pos == syntax.NO_POS
    assert DeclareVar("x", IntSort()).pos is syntax.NO_POS
    assert CheckedNT("S", R_INT, ()).pos is syntax.NO_POS
    entry = FuncEntry("u", "uf", (R_INT,), R_INT, index=0)
    assert (entry.params, entry.body, entry.index, entry.pos) == ((), None, 0, syntax.NO_POS)
    assert SolverConfig(seed=3) == SolverConfig(12, 5, 256, 32, 3, (0, 1, -1, 2), None)


def test_config_replace():
    cfg = SolverConfig(seed=4)
    assert cfg.replace(seed=5, max_term_size=3) == SolverConfig(max_term_size=3, seed=5)
    assert cfg.replace() == cfg and cfg.seed == 4
    with pytest.raises(TypeError):
        cfg.replace(no_such_field=1)


@pytest.mark.parametrize("record", SAMPLES, ids=SAMPLE_IDS)
def test_frozen_and_without_dict(record):
    assert not hasattr(record, "__dict__")
    for name in type(record).__slots__ + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("record", SAMPLES, ids=SAMPLE_IDS)
def test_eq_and_hash_over_the_compared_fields(record):
    fields = type(record).__slots__
    skipped = uncompared(record)
    compared = tuple(getattr(record, f) for f in fields if f not in skipped)
    twin = type(record)(*[getattr(record, f) for f in fields])
    assert twin == record and twin is not record
    assert record != Fail("other") and record != compared
    for name in fields:
        other = with_field(record, name, differing(getattr(record, name)))
        assert (other == record) == (name in skipped), name
    try:
        expected = hash(compared)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
        for name in skipped:
            assert hash(with_field(record, name, differing(getattr(record, name)))) == expected


@pytest.mark.parametrize("record", SAMPLES, ids=SAMPLE_IDS)
def test_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        # The repr shows the fields that == leaves out too.
        assert repr(twin) == repr(record)


@pytest.mark.parametrize("name", ["let_grammar", "max2_min2", "uf_pair"])
def test_copy_and_pickle_a_parsed_fixture(name):
    program = parse_text((FIXTURES / f"{name}.sl").read_text())
    for twin in (copy.copy(program), copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        assert twin == program
        assert repr(twin) == repr(program)


# The reprs a frozen dataclass gives.
REPRS = [
    (
        App("+", (X, ONE), Pos(1, 2)),
        "App(head='+', args=(Ref(name='x', pos=Pos(line=5, col=6)), "
        "Lit(value=IntConst(value=1), pos=Pos(line=5, col=8))), pos=Pos(line=1, col=2))",
    ),
    (
        App("f", (App("g", ()),)),
        "App(head='f', args=(App(head='g', args=(), pos=Pos(line=0, col=0)),), "
        "pos=Pos(line=0, col=0))",
    ),
    (
        Let((Binding("z", IntSort(Pos(2, 2)), Ref("x")),), Ref("z")),
        "Let(bindings=(Binding(name='z', sort=IntSort(pos=Pos(line=2, col=2)), "
        "value=Ref(name='x', pos=Pos(line=0, col=0))),), "
        "body=Ref(name='z', pos=Pos(line=0, col=0)), pos=Pos(line=0, col=0))",
    ),
    (
        Lit(RealConst(Fraction(1, 4))),
        "Lit(value=RealConst(value=Fraction(1, 4)), pos=Pos(line=0, col=0))",
    ),
    (Program((CheckSynth(),)), "Program(commands=(CheckSynth(pos=Pos(line=0, col=0)),))"),
    (REnum("Color", ("Red", "Green")), "REnum(identity='Color', constructors=('Red', 'Green'))"),
    (RArray(RInt(), RBitVec(4)), "RArray(domain=RInt(), codomain=RBitVec(width=4))"),
    (
        Valid(121, 121, 0, 256, False),
        "Valid(grid_points=121, grid_size=121, uf_models=0, random_samples=256, "
        "exhaustive=False)",
    ),
    (
        Value(REnum("Color", ("Red",)), "Red"),
        "Value(sort=REnum(identity='Color', constructors=('Red',)), value='Red')",
    ),
    (Fail("timeout"), "Fail(reason='timeout')"),
    (
        SolverConfig(),
        "SolverConfig(max_term_size=12, grid_radius=5, random_samples=256, uf_model_count=32, "
        "seed=0, constant_pool=(0, 1, -1, 2), timeout_seconds=None)",
    ),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr(record, text):
    assert repr(record) == text


def test_properties_and_checks_kept():
    assert BVConst(4, 5).bits == "0101"
    unit = _Prod(Ref("x"), (), 0, (), frozenset(), None)
    assert unit.is_unit and not _Prod(Ref("S"), ("S",), 1, (frozenset(),), frozenset(), None).is_unit
    assert Valid(5, 9, 0, 0, False).truncated and not VALID.truncated
    assert RReal() == RReal() and str(RBool()) == "Bool"
    with pytest.raises(ValueError):
        RealConst(Fraction(1, 3))
    with pytest.raises(ValueError):
        BVConst(4, 16)
    with pytest.raises(ValueError):
        BVConst(0, 0)

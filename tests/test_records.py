"""Every record in ``src`` is a ``FrozenRecord``: immutable, copyable,
and equal by value or by identity exactly as the frozen dataclass it
replaced.

The first tests hold for the records built once per family,
``NaturalTransformation`` and ``MatchingFamily``: they refuse assignment
and deletion, compare and hash by identity, and survive ``copy``,
``deepcopy`` and ``pickle`` with the same fields, also when
``FrozenRecord.bulk`` builds them.  The tests after them run on every
record class of the package, found by import, and on the two mutable
classes of ``documents``, which are plain classes.
"""

import ast
import copy
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import sheafkit
from sheafkit.documents import DocumentSet
from sheafkit.fincat import FrozenRecord, NaturalTransformation, discrete_category, enumerate_naturals, presheaf
from sheafkit.gallery import const2_presheaf, discrete2_site, discrete3_site
from sheafkit.logic import And, Bottom, Exists, Forall, Mem, Or, Top
from sheafkit.sheaf import MatchingFamily, matching_families
from sheafkit.site import Site, trivial_topology
from sheafkit.torsor import CanonicalMapReport, TorsorReport

from naive import naive_matching_families, naive_naturals


def records():
    site = discrete2_site()
    F = const2_presheaf(site)
    S = site.topology.covers["{a,b}"][0]
    return enumerate_naturals(F, F)[1], matching_families(F, S)[1]


@pytest.mark.parametrize("index", [0, 1], ids=["natural", "matching"])
def test_fields_cannot_be_assigned_or_deleted(index):
    record = records()[index]
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("index", [0, 1], ids=["natural", "matching"])
def test_equality_and_hash_are_by_identity(index):
    record = records()[index]
    cls = type(record)
    twin = cls(*(getattr(record, name) for name in cls.__slots__))
    assert record == record and hash(record) == hash(record)
    assert record != twin
    assert hash(record) == object.__hash__(record)
    assert len({record, twin}) == 2
    assert record.same(twin)


def dense_enumerations():
    """(records, the (field, ...) rows they should hold) of two dense
    enumerations: every natural map between 3- and 5-valued presheaves on
    a discrete two-object base, and the matching families of a two-valued
    presheaf on the discrete three-point site's top cover."""
    C = discrete_category(["p", "q"])
    F = presheaf(C, {"p": ("a", "b", "c"), "q": ("d", "e", "f")}, {})
    G = presheaf(C, {"p": tuple("01234"), "q": tuple("56789")}, {})
    site = discrete3_site()
    H = const2_presheaf(site)
    S = site.topology.covers["{a,b,c}"][0]
    return [
        (enumerate_naturals(F, G), [(F, G, comp) for comp in naive_naturals(F, G)]),
        (matching_families(H, S), [(H, S, m) for m in naive_matching_families(H, S.arrows, site.category)]),
    ]


@pytest.mark.parametrize("index", [0, 1], ids=["natural", "matching"])
def test_records_built_in_bulk_are_the_records_init_builds(index):
    records, rows = dense_enumerations()[index]
    assert len(records) == len(rows) > 1
    for record, row in zip(records, rows):
        cls = type(record)
        twin = cls(*row)
        for name in cls.__slots__:
            assert getattr(record, name) == getattr(twin, name)
        assert list(fields(record)[0]) == list(fields(twin)[0])
        assert record.same(twin) and twin.same(record)


def fields(record):
    if isinstance(record, NaturalTransformation):
        return record.components, record.key()
    assert isinstance(record, MatchingFamily)
    return record.assignment, record.key()


@pytest.mark.parametrize("index", [0, 1], ids=["natural", "matching"])
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_every_field(index, clone):
    record = records()[index]
    twin = clone(record)
    assert type(twin) is type(record) and twin is not record
    assert fields(twin) == fields(record)
    assert list(fields(twin)[0]) == list(fields(record)[0])
    assert twin.same(record) and record.same(twin)


# -- every record class ------------------------------------------------------------

SRC = Path(sheafkit.__file__).parent

# The records that compare and hash by their fields, as the frozen
# dataclasses with eq=True did; ``Formula`` is the base of the formula
# nodes.  ``Sieve`` compares by apex and arrows; every other record is
# equal only to itself.
BY_VALUE = {
    "OmegaOpenIso", "ClassifyReport", "SubobjectLattice", "HeytingReport",
    "ConeResult", "Certificate", "KanResult",
    "Formula", "Top", "Bottom", "Mem", "Eq", "And", "Or", "Implies", "Not", "Exists", "Forall",
    "SheafFailure", "SheafReport", "TopologyViolation", "TopologyReport",
    "TorsorReport", "CanonicalMapReport", "CocycleReport", "LocalSections", "GluedTorsor",
    "EquivalenceResult",
}
BY_IDENTITY = {
    "FinCategory", "FinFunctor", "Presheaf", "NaturalTransformation", "Subobject", "OmegaObject",
    "SetFun", "Diagram", "LogicModel", "MatchingFamily", "GrothendieckTopology", "FiniteSpace",
    "Site", "GroupSheaf", "TorsorCandidate", "Cocycle",
}


def record_classes() -> dict:
    """Every ``FrozenRecord`` subclass defined in a module of the package, by name."""
    found = {}
    for info in pkgutil.iter_modules([str(SRC)]):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"sheafkit.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, FrozenRecord)
                    and value is not FrozenRecord and value.__module__ == module.__name__):
                found[value.__name__] = value
    return found


RECORDS = record_classes()
CLASSES = [RECORDS[name] for name in sorted(RECORDS)]


def build(cls):
    """A record of ``cls`` with a distinct hashable value in each field."""
    return cls(*(("value of", name) for name in cls._fields))


def test_every_record_class_says_how_it_compares():
    assert set(RECORDS) == BY_VALUE | BY_IDENTITY | {"Sieve"}
    assert len(RECORDS) == 45


@pytest.mark.parametrize("cls", CLASSES, ids=sorted(RECORDS))
def test_every_record_refuses_assignment_and_deletion(cls):
    record = build(cls)
    for name in cls._fields:
        value = getattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, ("another", name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(FrozenInstanceError):
        record.extra = 1


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls", CLASSES, ids=sorted(RECORDS))
def test_every_record_survives_copy_deepcopy_and_pickle(cls, clone):
    record = build(cls)
    twin = clone(record)
    assert type(twin) is cls and twin is not record
    assert [getattr(twin, name) for name in cls._fields] == [getattr(record, name) for name in cls._fields]


@pytest.mark.parametrize("cls", CLASSES, ids=sorted(RECORDS))
def test_every_record_compares_as_its_dataclass_did(cls):
    record, twin = build(cls), build(cls)
    if cls.__name__ in BY_IDENTITY:
        assert record == record and record != twin
        assert hash(record) == object.__hash__(record)
        assert len({record, twin}) == 2
    else:
        assert record == twin and hash(record) == hash(twin)
        assert len({record, twin}) == 1
        if cls._fields:
            other = cls(*(("value of", name) for name in cls._fields[:-1]), "another value")
            assert record != other


def test_value_equality_needs_the_same_class():
    a, b = Mem("x", "A"), Mem("x", "B")
    assert Top() != Bottom()
    assert And(a, b) != Or(a, b)
    assert Exists("y", "F", a) != Forall("y", "F", a)
    assert TorsorReport(True, True, True, ()) != CanonicalMapReport(True, True, True, ())
    assert And(a, b) == And(Mem("x", "A"), Mem("x", "B"))


def test_sieves_compare_by_apex_and_arrows():
    Sieve = RECORDS["Sieve"]
    assert Sieve("C", "u", frozenset("f")) == Sieve("another C", "u", frozenset("f"))
    assert hash(Sieve("C", "u", frozenset("f"))) == hash(("u", frozenset("f")))
    assert Sieve("C", "u", frozenset("f")) != Sieve("C", "v", frozenset("f"))


def test_defaults_apply_and_arguments_are_checked():
    C = discrete_category(["p"])
    J = trivial_topology(C)
    for site in (Site(C, J), Site(category=C, topology=J), Site(C, topology=J, open_of=None)):
        assert (site.category, site.topology, site.space, site.open_of) == (C, J, None, None)
    assert Site(C, J, open_of={"p": frozenset()}).open_of == {"p": frozenset()}
    with pytest.raises(TypeError):
        Site(C)
    with pytest.raises(TypeError):
        Site(C, J, None, None, None)
    with pytest.raises(TypeError):
        Site(C, J, category=C)
    with pytest.raises(TypeError):
        Site(C, J, opens=None)


def test_document_sets_share_no_dict():
    one, two = DocumentSet(), DocumentSet()
    for name in ("raw", "origin", "_built"):
        assert getattr(one, name) == {} and getattr(one, name) is not getattr(two, name)
    one.add({"schema": 1, "kind": "category", "name": "c"}, "here")
    assert one.names() == ("c",) and two.names() == ()


def test_repr_reads_as_a_dataclass_repr():
    assert repr(Mem("x", "A")) == "Mem(var='x', pred='A')"
    assert repr(Top()) == "Top()"
    assert repr(And(Top(), Mem("x", "A"))) == "And(left=Top(), right=Mem(var='x', pred='A'))"


def test_no_module_builds_a_dataclass_or_runs_generated_code():
    """One record mechanism: nothing under ``src/sheafkit`` imports or
    applies ``dataclasses.dataclass``, or calls ``exec`` or ``eval``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                assert {a.name for a in node.names} <= {"FrozenInstanceError"}, path.name
            if isinstance(node, ast.Attribute) and node.attr in ("dataclass", "make_dataclass"):
                raise AssertionError(f"{path.name}:{node.lineno} uses dataclasses.{node.attr}")
            if isinstance(node, ast.Name) and node.id in ("dataclass", "exec", "eval"):
                raise AssertionError(f"{path.name}:{node.lineno} uses {node.id}")

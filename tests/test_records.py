"""The records built once per family stay immutable and copyable.

``NaturalTransformation`` and ``MatchingFamily`` are ``__slots__``
classes, not frozen dataclasses, so that enumerations build them
cheaply.  They must still refuse assignment and deletion as a frozen
dataclass does, compare and hash by identity, and survive ``copy``,
``deepcopy`` and ``pickle`` with the same fields.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from sheafkit.fincat import NaturalTransformation, discrete_category, enumerate_naturals, presheaf
from sheafkit.gallery import const2_presheaf, discrete2_site, discrete3_site
from sheafkit.sheaf import MatchingFamily, matching_families

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

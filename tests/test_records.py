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

from sheafkit.fincat import NaturalTransformation, enumerate_naturals
from sheafkit.gallery import const2_presheaf, discrete2_site
from sheafkit.sheaf import MatchingFamily, matching_families


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

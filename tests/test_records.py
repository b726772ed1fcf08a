"""The package's record types: ``Multigraph`` (a ``__slots__`` class) and
the namedtuple records.  Each is built positionally or by keyword, prints
the same repr as before, compares field by field and cannot be changed."""

import copy
import pickle

import pytest

from triplepack.decomp import (
    DecompositionResult,
    ReductionTrace,
    StallEvent,
    clique_reduction,
    find_triangle_decomposition,
)
from triplepack.dioph import DiophInstance
from triplepack.errors import InvalidParameterError
from triplepack.gdd import GddInstance, search_simple_gdd
from triplepack.leave import EvidenceItem, LeaveCertificate, _Gadget, achieved_lower_bound
from triplepack.multigraph import LeaveConditionReport, Multigraph, check_leave_conditions, complete
from triplepack.oracle import BlockCollection, SearchReport, max_packing
from triplepack.params import CaseData, classify


def _instances():
    cert = achieved_lower_bound(11, 5)[1]
    return [
        Multigraph(4, base=1, mult_map={(0, 1): 2}),
        check_leave_conditions(complete(7, 1), 7, 4, 0, 5),
        classify(9, 5)[1],
        find_triangle_decomposition(complete(7, 1)),
        clique_reduction(complete(7, 2), 3, 1, 2),
        StallEvent(2, 5, (2, 5)),
        DiophInstance(((4, 1),), ((5, (1, 2)),)),
        search_simple_gdd(1, 7, 1)[1],
        cert.evidence[0],
        cert,
        _Gadget(1, 2, 3),
        BlockCollection(7, 3, 2, 1, ((0, 1, 2),)),
        max_packing(7, 3, 2),
    ]


RECORDS = _instances()
IDS = [type(r).__name__ for r in RECORDS]


def _fields(r) -> dict:
    if type(r) is Multigraph:
        return {"n": r.n, "base": r.base, "mult_map": r.mult_map}
    return r._asdict()


def test_every_record_type_is_covered():
    want = {
        Multigraph, LeaveConditionReport, CaseData, DecompositionResult, ReductionTrace,
        StallEvent, DiophInstance, GddInstance, EvidenceItem, LeaveCertificate,
        _Gadget, BlockCollection, SearchReport,
    }
    assert {type(r) for r in RECORDS} == want


def test_reprs_are_frozen():
    # desk operation details embed these reprs, so their length is pinned too
    assert repr(Multigraph(4, base=1, mult_map={(1, 0): 2})) == (
        "Multigraph(n=4, base=1, mult_map={(0, 1): 2})"
    )
    assert repr(Multigraph(3)) == "Multigraph(n=3, base=0, mult_map={})"
    assert repr(DiophInstance([[4, 1]], [(5, [1, 2]), [7, [0]]])) == (
        "DiophInstance(equalities=((4, 1),), avoidances=((5, (1, 2)), (7, (0,))))"
    )
    assert repr(StallEvent(2, 5, (2, 5))) == "StallEvent(vertex=2, neighbor=5, partial=(2, 5))"
    assert repr(_Gadget(1, 2, 3)) == "_Gadget(g=1, l=2, u=3)"


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    fields = _fields(record)
    by_position = type(record)(*fields.values())
    by_keyword = type(record)(**fields)
    assert by_position == record and by_keyword == record
    assert repr(by_keyword) == repr(record)
    try:
        h = hash(record)
    except TypeError:  # a dict field (gamma, parameters) makes it unhashable
        return
    assert hash(by_position) == h


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_assignment_raises_attribute_error(record):
    name = next(iter(_fields(record)))
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    with pytest.raises(AttributeError):
        delattr(record, name)


PLAIN = [r for r in RECORDS if type(r) not in (Multigraph, DiophInstance)]


@pytest.mark.parametrize("record", PLAIN, ids=[type(r).__name__ for r in PLAIN])
def test_replace_changes_one_field(record):
    first, *rest = record._fields
    marker = object()
    changed = record._replace(**{first: marker})
    assert type(changed) is type(record) and getattr(changed, first) is marker
    assert all(getattr(changed, f) is getattr(record, f) for f in rest)
    assert changed != record and record._replace() == record


def test_equality_is_field_wise():
    every_pair = dict.fromkeys([(0, 1), (0, 2), (1, 2)], 1)
    assert Multigraph(3, base=1) == Multigraph(3, base=0, mult_map=every_pair)
    assert Multigraph(3, base=1) != Multigraph(3, base=2)
    groups = ((0,), (1,), (2,))
    assert GddInstance(groups, (), 1) == GddInstance(groups=groups, blocks=(), lam=1, k=3)
    assert GddInstance(groups, (), 1) != GddInstance(groups, (), 2)


def test_defaults():
    assert Multigraph(3).base == 0 and Multigraph(3).mult_map == {}
    assert EvidenceItem("empty", (), 1).blocks is None
    assert GddInstance(((0,), (1,), (2,)), (), 1).k == 3
    assert CaseData(9, 5, 1).star_holds is None


def test_validating_records_validate_on_replace():
    inst = DiophInstance(((4, 1),), ((5, (1, 2)),))
    assert inst._replace(equalities=[[9, 2]]).equalities == ((9, 2),)
    with pytest.raises(InvalidParameterError):
        inst._replace(avoidances=((3, (1,)),))  # avoidance modulus below 4


def test_multigraph_copies_and_pickles():
    g = Multigraph(5, base=1, mult_map={(0, 1): 3, (2, 4): 0})
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h == g and repr(h) == repr(g)
        assert h.degrees() == g.degrees() and h.max_mult() == 3

"""Value semantics of davlab's public records.

Every record is a frozen value: equal fields compare and hash equal, fields
refuse assignment, a pickle round trip returns an equal record, and repr
reads Name(field=value, ...).
"""

import pickle

import pytest

from davlab.constructions import ConstructionReport, PerfectDifferenceSet
from davlab.engine import GSequence, ResidueSet, WeightSet
from davlab.fdsolver import FdResult, FdSearchStats, FdStatus
from davlab.groups import GroupSpec
from davlab.randomlab import SweepConfig, SweepResult, SweepRow
from davlab.solver import BoundedCheckResult, Budget, DavenportResult, MaxDavenportResult
from davlab.verify import Check, SuiteReport


def _seq():
    return GSequence(GroupSpec((5,)), ((1,), (1,)))


def _report():
    return dict(
        construction="interval",
        parameters={"p": 7},
        weight_set=WeightSet(7, (1, 2)),
        size=2,
        verified_bound=3,
        verification="exhaustive",
    )


def _config():
    return SweepConfig(p=31, k=3, theta_grid=(0.2, 0.4), trials=4, seed=0)


# each entry builds fresh keyword arguments, so two records built from it
# share no nested record; hashable is False where a field holds a dict
RECORDS = [
    (GroupSpec, True, lambda: dict(invariant_factors=(2, 4))),
    (WeightSet, True, lambda: dict(exponent=7, residues=(1, 6))),
    (GSequence, True, lambda: dict(group=GroupSpec((2, 4)), entries=((0, 1), (1, 3)))),
    (ResidueSet, True, lambda: dict(group=GroupSpec((5,)), bits=0b1011)),
    (Budget, True, lambda: dict(max_nodes=100, max_seconds=1.5)),
    (DavenportResult, True, lambda: dict(value=5, witness=_seq(), nodes_explored=9, elapsed=0.5)),
    (BoundedCheckResult, True, lambda: dict(holds=False, counterexample=_seq(), nodes=3)),
    (MaxDavenportResult, True, lambda: dict(value=4, argmax=WeightSet(7, (1, 2)), candidates=3, elapsed=0.25)),
    (FdSearchStats, True, lambda: dict(nodes=5, candidates=6, elapsed=0.1, checks=2)),
    (
        FdResult,
        True,
        lambda: dict(
            status=FdStatus.FINITE,
            value=4,
            witness_set=WeightSet(31, (1, 5, 25)),
            sizes_excluded=2,
            search_stats=FdSearchStats(5, 6, 0.1, 2),
        ),
    ),
    (ConstructionReport, False, lambda: dict(_report(), metrics={"ratio_missing": 0})),
    (PerfectDifferenceSet, True, lambda: dict(v=7, elements=(0, 1, 3))),
    (SweepConfig, True, lambda: dict(p=31, k=3, theta_grid=(0.2, 0.4), trials=4, seed=0, omega=2.0)),
    (SweepRow, True, lambda: dict(theta=0.2, empirical_p_le=0.5, empirical_p_eq=0.25, mean_size=6.0, trials_empty=1)),
    (
        SweepResult,
        True,
        lambda: dict(
            config=_config(),
            rows=(SweepRow(0.2, 0.5, 0.25, 6.0, 1),),
            partial=False,
            window=(0.1, 0.3),
            window_empty=False,
            elapsed=0.5,
        ),
    ),
    (Check, True, lambda: dict(name="c", computed=(1, 2), expected=(1, 2), ok=True)),
    (SuiteReport, True, lambda: dict(suite="s", checks=(Check("c", 1, 1, True),), elapsed=0.5)),
]


@pytest.mark.parametrize("cls, hashable, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_a_frozen_value(cls, hashable, fields):
    a, b = cls(**fields()), cls(*fields().values())
    assert a == b and not a != b
    assert a != fields()
    for name in fields():  # a record differing in any one field is unequal
        c = cls(**fields())
        object.__setattr__(c, name, object())
        assert a != c and not a == c
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    name = next(iter(fields()))
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == getattr(b, name)
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields().items()) + ")"


def test_record_reprs_pinned():
    assert repr(GroupSpec((2, 4))) == "GroupSpec(invariant_factors=(2, 4))"
    assert repr(WeightSet(7, (1, 6))) == "WeightSet(exponent=7, residues=(1, 6))"
    assert repr(BoundedCheckResult(False, _seq(), 3)) == (
        "BoundedCheckResult(holds=False, counterexample=GSequence(group=GroupSpec("
        "invariant_factors=(5,)), entries=((1,), (1,))), nodes=3)"
    )


def test_record_defaults():
    assert BoundedCheckResult(True, None) == BoundedCheckResult(True, None, 0)
    assert Budget() == Budget(None, None)
    assert _config().omega == 10.0
    r, s = ConstructionReport(**_report()), ConstructionReport(**_report())
    assert r.metrics == {} and r.metrics is not s.metrics

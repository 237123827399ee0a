"""The ten tuple records keep the promises README makes for them: named
fields in order, indexing and iteration, equality with (and the hash of)
the plain tuple of their fields, always truthy, immutable, picklable to
their own type, and a ``Name(field=value, ...)`` repr."""

import pickle

import pytest

from summ.consensus import WcsResult
from summ.corpus import ClusterRecord, Document, ReferenceSummary, Sentence
from summ.harness import SignTestResult, _ClusterOutcome
from summ.rouge import RougeScore
from summ.summarizers import CorpusCounts, RankList, Summary

# each class with a value for every field, in field order
RECORDS = [
    (Sentence, {"raw_text": "A storm hit.", "tokens": ("storm", "hit"), "doc_id": "d1",
                "eligible": False}),
    (Document, {"doc_id": "d1", "text": "A storm hit."}),
    (ReferenceSummary, {"author_id": "A", "text": "Storm."}),
    (ClusterRecord, {"cluster_id": "c1", "documents": (Document("d1", "A storm hit."),),
                     "references": (ReferenceSummary("A", "Storm."),)}),
    (SignTestResult, {"p_value": 0.5, "wins_a": 2, "wins_b": 1, "ties": 0}),
    (_ClusterOutcome, {"cluster_id": "c1", "duplicates": 0, "scores": {"borda": {"R-1": 0.5}},
                       "failures": {}, "raw_weights": {"lexrank": 0.25}}),
    (RougeScore, {"n": 1, "recall": 0.25, "match_count": 1, "reference_count": 4}),
    (Summary, {"sentence_indices": ()}),  # empty, and still truthy
    (CorpusCounts, {"counts": {"storm": 2}, "total": 2}),
    (WcsResult, {"rank_list": RankList((0.5, 0.9)), "weights": (0.75, 0.25), "iterations": 3,
                 "objective": 0.125, "converged": True}),
]


def hash_or_error(value):
    """The hash of ``value``, or ``TypeError`` when a field is unhashable."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_tuple_record_contract(cls, fields):
    values = tuple(fields.values())
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert cls(*values) == record
    # field order, indexing and iteration
    assert len(record) == len(values)
    for index, (name, value) in enumerate(fields.items()):
        assert getattr(record, name) is value
        assert record[index] is value
    assert list(record) == list(values)
    # equal to the plain tuple of its fields, hashed as it
    assert record == values and values == record
    assert hash_or_error(record) == hash_or_error(values)
    assert bool(record) is True
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls
        assert copy == record
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    # immutable, with no instance dict
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


def test_sentence_is_eligible_by_default():
    assert Sentence("A storm hit.", ("storm", "hit"), "d1").eligible is True

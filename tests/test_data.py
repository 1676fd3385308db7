import re

import pytest

from hetprior.data import (
    FormatError,
    MetaAnalysisCollection,
    RecordError,
    StudyRecord,
    parse_collection,
    serialize_collection,
    subset_recent,
    validate_collection,
)

MINIMAL = """analysis_id,study_id,estimate,std_err
MA1,S1,0.12,0.3
MA1,S2,-0.05,0.41
"""


def test_parse_minimal_grouping():
    c = parse_collection(MINIMAL)
    assert c.n_analyses == 1
    assert c.sizes == [2]
    records = c.analysis("MA1")
    assert records[0].estimate == 0.12
    assert records[1].std_err == 0.41
    # seq defaults to data-row index
    assert [r.seq for r in records] == [0, 1]


def test_parse_preserves_first_appearance_order():
    text = """analysis_id,study_id,estimate,std_err
B,S1,0.1,0.2
A,S1,0.3,0.2
B,S2,0.0,0.5
"""
    c = parse_collection(text)
    assert c.analysis_ids == ["B", "A"]
    assert c.sizes == [2, 1]


def test_parse_with_explicit_seq_column():
    text = """analysis_id,study_id,estimate,std_err,seq
A,S1,0.1,0.2,1995
A,S2,0.2,0.2,1995
B,S1,0.0,0.5,2003
"""
    c = parse_collection(text)
    assert [r.seq for r in c.records()] == [1995, 1995, 2003]


def test_parse_missing_column_is_format_error():
    with pytest.raises(FormatError, match="std_err"):
        parse_collection("analysis_id,study_id,estimate\nA,S1,0.1\n")


def test_parse_unknown_column_is_format_error():
    with pytest.raises(FormatError, match="weight"):
        parse_collection("analysis_id,study_id,estimate,std_err,weight\nA,S1,0.1,0.2,4\n")


def test_parse_zero_std_err_is_record_error_with_row():
    text = """analysis_id,study_id,estimate,std_err
A,S1,0.1,0.2
A,S2,0.1,0
"""
    with pytest.raises(RecordError, match="row 3"):
        parse_collection(text)


@pytest.mark.parametrize("bad_value", ["abc", "-0.1", "nan", "inf", "", "1e-170", "1e-100", "1e155"])
def test_parse_bad_std_err_values(bad_value):
    text = f"analysis_id,study_id,estimate,std_err\nA,S1,0.1,{bad_value}\n"
    with pytest.raises(RecordError, match="row 2"):
        parse_collection(text)


@pytest.mark.parametrize("bad_value", ["1.0000000001e70", "-2e70", "5e199"])
def test_parse_out_of_range_estimate_names_row_and_value(bad_value):
    text = f"analysis_id,study_id,estimate,std_err\nA,S1,0.1,0.2\nA,S2,{bad_value},0.2\n"
    with pytest.raises(RecordError, match=re.escape(f"row 3: estimate {float(bad_value)!r} is out of range")):
        parse_collection(text)


def test_parse_estimates_at_the_range_bounds():
    c = parse_collection("analysis_id,study_id,estimate,std_err\nA,S1,1e70,0.2\nA,S2,-1e70,0.2\n")
    assert [r.estimate for r in c.records()] == [1e70, -1e70]


def test_parse_non_numeric_estimate_is_record_error():
    with pytest.raises(RecordError, match="row 2"):
        parse_collection("analysis_id,study_id,estimate,std_err\nA,S1,x,0.2\n")


def test_parse_duplicate_study_rejected():
    text = """analysis_id,study_id,estimate,std_err
A,S1,0.1,0.2
A,S1,0.3,0.4
"""
    with pytest.raises(RecordError, match="row 3"):
        parse_collection(text)


def test_parse_empty_input():
    with pytest.raises(FormatError):
        parse_collection("")
    with pytest.raises(FormatError):
        parse_collection("analysis_id,study_id,estimate,std_err\n")


def test_parse_skips_a_leading_byte_order_mark():
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    assert parse_collection("\ufeff" + MINIMAL) == parse_collection(MINIMAL)


def test_round_trip_is_identity():
    text = """analysis_id,study_id,estimate,std_err,seq
A,S1,0.1234567890123456,0.25,3
A,S2,-1.5e-07,0.3333333333333333,1
B,S1,0.0,10.5,2
"""
    c = parse_collection(text)
    assert parse_collection(serialize_collection(c)) == c


def test_round_trip_without_seq_column():
    c = parse_collection(MINIMAL)
    assert parse_collection(serialize_collection(c)) == c


def test_study_record_invariants():
    with pytest.raises(ValueError):
        StudyRecord("A", "S", float("nan"), 0.2, 0)
    with pytest.raises(ValueError):
        StudyRecord("A", "S", 0.0, -1.0, 0)
    with pytest.raises(ValueError):
        StudyRecord("A", "S", 0.0, float("inf"), 0)


def test_collection_invariants():
    r = StudyRecord("A", "S1", 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="duplicate analysis_id"):
        MetaAnalysisCollection((("A", (r,)), ("A", (r,))))
    with pytest.raises(ValueError, match="no studies"):
        MetaAnalysisCollection((("A", ()),))


def test_validate_reports_sizes_and_totals():
    c = parse_collection(MINIMAL)
    doc = validate_collection(c)
    assert doc["analyses"] == 1
    assert doc["studies"] == 2
    assert doc["per_analysis"] == [{"analysis": "MA1", "k": 2}]
    assert doc["warnings"] == []


def test_validate_flags_single_study_analysis():
    text = """analysis_id,study_id,estimate,std_err
A,S1,0.1,0.2
B,S1,0.3,0.4
B,S2,0.2,0.4
"""
    doc = validate_collection(parse_collection(text))
    assert len(doc["warnings"]) == 1
    assert "'A'" in doc["warnings"][0]


def _collection_with_seq():
    text = """analysis_id,study_id,estimate,std_err,seq
A,S1,0.1,0.2,10
B,S1,0.1,0.2,30
C,S1,0.1,0.2,20
D,S1,0.1,0.2,40
"""
    return parse_collection(text)


def test_subset_recent_full_is_identity():
    c = _collection_with_seq()
    assert subset_recent(c, c.n_analyses) == c


def test_subset_recent_picks_largest_seq_keeping_order():
    c = _collection_with_seq()
    sub = subset_recent(c, 2)
    # B (30) and D (40) are most recent; original relative order kept
    assert sub.analysis_ids == ["B", "D"]


def test_subset_recent_default_seq_means_file_order():
    text = """analysis_id,study_id,estimate,std_err
A,S1,0.1,0.2
B,S1,0.1,0.2
C,S1,0.1,0.2
"""
    sub = subset_recent(parse_collection(text), 2)
    assert sub.analysis_ids == ["B", "C"]


def test_subset_recent_tie_broken_by_file_order():
    text = """analysis_id,study_id,estimate,std_err,seq
A,S1,0.1,0.2,7
B,S1,0.1,0.2,7
C,S1,0.1,0.2,7
"""
    sub = subset_recent(parse_collection(text), 2)
    # all tied: later file position wins
    assert sub.analysis_ids == ["B", "C"]


def test_subset_recent_nested_composition():
    c = _collection_with_seq()
    assert subset_recent(subset_recent(c, 3), 2) == subset_recent(c, 2)


def test_subset_recent_argument_errors():
    c = _collection_with_seq()
    with pytest.raises(ValueError):
        subset_recent(c, c.n_analyses + 1)
    with pytest.raises(ValueError):
        subset_recent(c, 0)

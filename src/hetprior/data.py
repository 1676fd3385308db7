"""Parsing, validation and subsetting of meta-analysis collections.

The on-disk format is CSV with header ``analysis_id,study_id,estimate,std_err``
plus an optional ``seq`` column giving a recency order (later = more recent).
When ``seq`` is absent it defaults to the data-row index, so file order is the
recency order. A single meta-analysis uses the same schema with exactly one
``analysis_id``.

:func:`validate_collection` returns the document that ``validate`` writes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

__all__ = [
    "StudyRecord",
    "MetaAnalysisCollection",
    "FormatError",
    "RecordError",
    "parse_collection",
    "serialize_collection",
    "validate_collection",
    "subset_recent",
]

_REQUIRED_COLUMNS = ("analysis_id", "study_id", "estimate", "std_err")
_OPTIONAL_COLUMNS = ("seq",)


class FormatError(ValueError):
    """The CSV header or overall structure is not as expected."""


class RecordError(ValueError):
    """A data row is invalid; the message includes the 1-based row number."""


def _std_err_problem(s: float) -> str | None:
    """Why ``s`` cannot be a standard error, or None if it can.

    The models weight a study by w = 1/(s^2 + tau^2), and the DL estimator
    sums w^2.  With s in [1e-75, 1e75], w <= 1/s^2 <= 1e150 and s^2 stays a
    normal double, so w^2 and its sums over any realistic corpus are finite.
    """
    if not (math.isfinite(s) and s > 0.0):
        return f"must be positive and finite, got {s!r}"
    if not 1e-75 <= s <= 1e75:
        return (
            f"{s!r} is out of range: standard errors must lie in 1e-75 to 1e75, "
            "where the inverse-variance weights and their squares stay finite"
        )
    return None


def _estimate_problem(y: float) -> str | None:
    """Why ``y`` cannot be an effect estimate, or None if it can.

    Cochran's Q sums w (y - mu)^2 with mu a weighted mean of the estimates.
    With |y| <= 1e70 every deviation is at most 2e70, so with w <= 1e150
    (see :func:`_std_err_problem`) each term is at most 4e290 and Q stays
    finite for any realistic number of studies.
    """
    if not math.isfinite(y):
        return f"must be finite, got {y!r}"
    if not -1e70 <= y <= 1e70:
        return (
            f"{y!r} is out of range: estimates must lie in -1e70 to 1e70, "
            "where the heterogeneity statistics stay finite"
        )
    return None


@dataclass(frozen=True)
class StudyRecord:
    """One study: an estimate with its standard error, in effect-measure
    units (for instance log odds ratios)."""

    analysis_id: str
    study_id: str
    estimate: float
    std_err: float
    seq: int

    def __post_init__(self):
        problem = _estimate_problem(self.estimate)
        if problem is not None:
            raise ValueError(f"estimate {problem}")
        problem = _std_err_problem(self.std_err)
        if problem is not None:
            raise ValueError(f"std_err {problem}")


@dataclass(frozen=True)
class MetaAnalysisCollection:
    """An ordered set of meta-analyses, each a list of study records.

    ``analyses`` maps out as a list of ``(analysis_id, [StudyRecord, ...])``
    pairs in first-appearance order.
    """

    analyses: tuple[tuple[str, tuple[StudyRecord, ...]], ...]

    def __post_init__(self):
        ids = [aid for aid, _ in self.analyses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate analysis_id(s): {dup}")
        seen_pairs: set[tuple[str, str]] = set()
        for aid, records in self.analyses:
            if len(records) < 1:
                raise ValueError(f"analysis {aid!r} has no studies")
            for r in records:
                key = (r.analysis_id, r.study_id)
                if key in seen_pairs:
                    raise ValueError(f"duplicate (analysis_id, study_id) pair: {key}")
                seen_pairs.add(key)

    @property
    def n_analyses(self) -> int:
        return len(self.analyses)

    @property
    def analysis_ids(self) -> list[str]:
        return [aid for aid, _ in self.analyses]

    @property
    def sizes(self) -> list[int]:
        """Per-analysis study counts k_j, in collection order."""
        return [len(records) for _, records in self.analyses]

    @property
    def n_studies(self) -> int:
        return sum(self.sizes)

    def records(self) -> list[StudyRecord]:
        """All records in collection order."""
        return [r for _, recs in self.analyses for r in recs]

    def resolve_id(self, analysis_id: str | None = None) -> str:
        """The id of the analysis meant: ``analysis_id`` if the collection
        holds it, or the only analysis when none is named."""
        ids = self.analysis_ids
        if analysis_id is None:
            if len(ids) != 1:
                raise ValueError(
                    f"collection holds {len(ids)} analyses; pass analysis_id "
                    "(--analysis on the command line) to pick one"
                )
            return ids[0]
        if analysis_id not in ids:
            held = ", ".join(ids[:10]) + (f", ... ({len(ids)} in all)" if len(ids) > 10 else "")
            raise ValueError(f"no analysis {analysis_id!r} in the collection; it holds {held}")
        return analysis_id

    def analysis(self, analysis_id: str) -> tuple[StudyRecord, ...]:
        for aid, records in self.analyses:
            if aid == analysis_id:
                return records
        raise KeyError(analysis_id)


def _parse_float(raw: str, column: str, row_number: int) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise RecordError(f"row {row_number}: non-numeric {column} {raw!r}") from None


def parse_collection(text: str) -> MetaAnalysisCollection:
    """Parse CSV content into a collection.

    Parameters
    ----------
    text : str
        CSV with header ``analysis_id,study_id,estimate,std_err`` and an
        optional trailing ``seq`` column of integers; a leading byte-order
        mark (U+FEFF) is skipped.

    Returns
    -------
    MetaAnalysisCollection
        Records grouped by ``analysis_id`` in first-appearance order.
        Missing ``seq`` values default to the data-row index (0-based).

    Raises
    ------
    FormatError
        On a missing or unknown header column.
    RecordError
        On a bad data row; the message carries the 1-based row number
        (header = row 1).
    """
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty input: expected a header row") from None
    header = [h.strip() for h in header]
    for col in _REQUIRED_COLUMNS:
        if col not in header:
            raise FormatError(f"missing required column {col!r}")
    for col in header:
        if col not in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS:
            raise FormatError(f"unknown column {col!r}")
    if len(set(header)) != len(header):
        raise FormatError(f"duplicate column in header: {header}")
    idx = {col: header.index(col) for col in header}
    has_seq = "seq" in idx

    groups: dict[str, list[StudyRecord]] = {}
    order: list[str] = []
    seen_pairs: set[tuple[str, str]] = set()
    data_row = 0
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise RecordError(
                f"row {row_number}: expected {len(header)} fields, got {len(row)}"
            )
        aid = row[idx["analysis_id"]].strip()
        sid = row[idx["study_id"]].strip()
        if not aid:
            raise RecordError(f"row {row_number}: empty analysis_id")
        if not sid:
            raise RecordError(f"row {row_number}: empty study_id")
        estimate = _parse_float(row[idx["estimate"]], "estimate", row_number)
        std_err = _parse_float(row[idx["std_err"]], "std_err", row_number)
        if has_seq and row[idx["seq"]].strip():
            raw_seq = row[idx["seq"]].strip()
            try:
                seq = int(raw_seq)
            except ValueError:
                raise RecordError(f"row {row_number}: non-integer seq {raw_seq!r}") from None
        else:
            seq = data_row
        try:
            record = StudyRecord(aid, sid, estimate, std_err, seq)
        except ValueError as exc:
            raise RecordError(f"row {row_number}: {exc}") from None
        if (aid, sid) in seen_pairs:
            raise RecordError(f"row {row_number}: duplicate (analysis_id, study_id) ({aid!r}, {sid!r})")
        seen_pairs.add((aid, sid))
        if aid not in groups:
            groups[aid] = []
            order.append(aid)
        groups[aid].append(record)
        data_row += 1

    if not order:
        raise FormatError("no data rows")
    return MetaAnalysisCollection(tuple((aid, tuple(groups[aid])) for aid in order))


def serialize_collection(c: MetaAnalysisCollection) -> str:
    """CSV text that :func:`parse_collection` maps back to ``c`` exactly.

    Floats are written with ``repr`` (shortest exact round-trip form);
    the ``seq`` column is always included.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["analysis_id", "study_id", "estimate", "std_err", "seq"])
    for record in c.records():
        writer.writerow(
            [record.analysis_id, record.study_id, repr(record.estimate), repr(record.std_err), record.seq]
        )
    return out.getvalue()


def validate_collection(c: MetaAnalysisCollection) -> dict:
    """``validate``'s document: the totals, each analysis with its size k,
    and a warning for each single-study analysis.

    A k_j = 1 analysis is allowed — the model stays well-defined — but it
    carries almost no information about heterogeneity, so it gets a
    warning entry rather than an error.
    """
    return {
        "analyses": c.n_analyses,
        "studies": c.n_studies,
        "per_analysis": [{"analysis": aid, "k": k} for aid, k in zip(c.analysis_ids, c.sizes)],
        "warnings": [
            f"analysis {aid!r} has a single study; it is nearly uninformative about heterogeneity"
            for aid, k in zip(c.analysis_ids, c.sizes)
            if k == 1
        ],
    }


def subset_recent(c: MetaAnalysisCollection, n: int) -> MetaAnalysisCollection:
    """The ``n`` most recent analyses, in their original relative order.

    Recency of an analysis is the largest ``seq`` among its records; ties
    are broken by position in the file (later wins). Raises ``ValueError``
    if ``n`` exceeds the number of analyses.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > c.n_analyses:
        raise ValueError(f"n = {n} exceeds the number of analyses ({c.n_analyses})")
    ranked = sorted(
        range(c.n_analyses),
        key=lambda i: (max(r.seq for r in c.analyses[i][1]), i),
    )
    keep = sorted(ranked[-n:])
    return MetaAnalysisCollection(tuple(c.analyses[i] for i in keep))

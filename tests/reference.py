"""The record-based database model that the columnar one replaced, kept as the tests' oracle.

`parse_database` and `cleanse` are the record parser and cleanser: one
`AcquisitionEvent` per event and one `UserProfile` per user, whose answers sit
in a dict of tuples. Besides their old rules they reject a NUL in a user_id, a
user_id longer than MAX_USER_ID and an integer beyond the float range, as the
columnar parser does.
`reference_database_windows` is the per-user sessionizer: one `Session` per
half week, one `WindowSample` per window. `fit_preprocess` and `transform` are
the masked preprocessing: one `np.unique` per column for the modes, static
columns gathered into a block, and the non-constant ones scaled as a
sub-block and scattered back.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from adherence.ingestion import (
    ACTIVITY_FILE_STEMS,
    DEMOGRAPHIC_FIELDS,
    DEMOGRAPHIC_RANGES,
    MAX_USER_ID,
    MIN_SPAN_DAYS,
    QUESTIONNAIRE_INSTANCES,
    QUESTIONNAIRE_ITEMS,
    STATIC_COLUMNS,
    STATUS_VALUES,
    Activity,
    DatabasePaths,
    IngestError,
    RejectedRow,
    RemovedUser,
    CleanseReport,
    _parse_date,
    _read_table,
    parse_activity,
)
from adherence.features import PreprocessState, TabularDataset


@dataclass(frozen=True)
class AcquisitionEvent:
    user_id: str
    activity: Activity
    timestamp: date


@dataclass
class UserProfile:
    user_id: str
    status: str | None = None
    birth_year: int | None = None
    education: int | None = None
    technology: int | None = None
    living_environment: int | None = None
    living_conditions: int | None = None
    living_status: int | None = None
    use_case: int | None = None
    # (questionnaire, instance) -> per-item answers, None where unanswered
    answers: dict[tuple[str, int], tuple[int | None, ...]] = field(default_factory=dict)
    # False for stub profiles created from questionnaire rows of unknown users
    in_demographics: bool = True

    def items_for(self, questionnaire: str, instance: int) -> tuple[int | None, ...]:
        n = QUESTIONNAIRE_ITEMS[questionnaire]
        return self.answers.get((questionnaire, instance), (None,) * n)


@dataclass
class RecordDatabase:
    events: list[AcquisitionEvent]
    profiles: dict[str, UserProfile]
    rejects: list[RejectedRow] = field(default_factory=list)

    def events_by_user(self) -> dict[str, list[AcquisitionEvent]]:
        grouped: dict[str, list[AcquisitionEvent]] = {}
        for ev in self.events:
            grouped.setdefault(ev.user_id, []).append(ev)
        return grouped

    def user_ids(self) -> list[str]:
        return sorted(set(self.profiles) | {ev.user_id for ev in self.events})


def _user_rows(header, rows, table, rejects):
    uid = header.index("user_id")
    for i, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < len(header):
            rejects.append(RejectedRow(table, i, "short row"))
            continue
        user_id = row[uid].strip()
        if not user_id:
            rejects.append(RejectedRow(table, i, "empty user_id"))
            continue
        if "\0" in user_id:
            rejects.append(RejectedRow(table, i, "NUL in user_id"))
            continue
        if len(user_id) > MAX_USER_ID:
            rejects.append(RejectedRow(table, i, "user_id too long"))
            continue
        yield i, user_id, row


def _parse_acquisitions(path, activity, table, rejects):
    header, rows = _read_table(path, ["user_id", "timestamp"], table)
    extra = [c for c in header if c not in {"user_id", "timestamp", "activity"}]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    idx = {c: header.index(c) for c in header}
    events = []
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        try:
            ts = _parse_date(row[idx["timestamp"]])
        except ValueError:
            rejects.append(RejectedRow(table, i, "unparseable timestamp"))
            continue
        act = activity
        if "activity" in idx:
            try:
                act = parse_activity(row[idx["activity"]])
            except ValueError:
                rejects.append(RejectedRow(table, i, "unknown activity"))
                continue
        events.append(AcquisitionEvent(user_id, act, ts))
    return events


def _parse_int(raw):
    return int(raw) if raw.strip() else None


def _fits_a_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _parse_demographics(path, rejects):
    table = "demographics"
    required = ["user_id", "status", *DEMOGRAPHIC_FIELDS]
    header, rows = _read_table(path, required, table)
    extra = [c for c in header if c not in required]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    idx = {c: header.index(c) for c in header}
    profiles = {}
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        if user_id in profiles:
            rejects.append(RejectedRow(table, i, f"duplicate user_id {user_id}"))
            continue
        status = row[idx["status"]].strip() or None
        values = {}
        reason = None
        for name in DEMOGRAPHIC_FIELDS:
            try:
                v = _parse_int(row[idx[name]])
            except ValueError:
                reason = f"non-integer {name}"
                break
            if v is not None and name in DEMOGRAPHIC_RANGES:
                lo, hi = DEMOGRAPHIC_RANGES[name]
                if not lo <= v <= hi:
                    reason = f"{name} out of range [{lo},{hi}]"
                    break
            if v is not None and not _fits_a_float(v):
                reason = f"{name} too large"
                break
            values[name] = v
        if reason is not None:
            rejects.append(RejectedRow(table, i, reason))
            continue
        profiles[user_id] = UserProfile(user_id=user_id, status=status, **values)
    return profiles


def _parse_questionnaire(path, qid, instance, profiles, rejects):
    table = f"{qid}_{instance}"
    q_cols = [f"Q{i}" for i in range(1, QUESTIONNAIRE_ITEMS[qid] + 1)]
    header, rows = _read_table(path, ["user_id", *q_cols], table)
    unknown_q = [c for c in header if c.startswith("Q") and c[1:].isdigit() and c not in q_cols]
    if unknown_q:
        raise IngestError(f"{table}: unknown column(s) {unknown_q}")
    extra = [c for c in header if c not in ("user_id", *q_cols)]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    idx = {c: header.index(c) for c in header}
    seen = set()
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        if user_id in seen:
            rejects.append(RejectedRow(table, i, f"duplicate user_id {user_id}"))
            continue
        seen.add(user_id)
        try:
            answers = tuple(_parse_int(row[idx[c]]) for c in q_cols)
        except ValueError:
            rejects.append(RejectedRow(table, i, "non-integer answer"))
            continue
        if all(a is None for a in answers):
            continue
        if not all(a is None or _fits_a_float(a) for a in answers):
            rejects.append(RejectedRow(table, i, "answer too large"))
            continue
        profile = profiles.get(user_id)
        if profile is None:
            profile = UserProfile(user_id=user_id, in_demographics=False)
            profiles[user_id] = profile
        profile.answers[(qid, instance)] = answers


_ACTIVITY_ORDER = {a: i for i, a in enumerate(Activity)}


def parse_database(paths: DatabasePaths) -> RecordDatabase:
    rejects = []
    events = []
    for activity in Activity:
        table = f"acquisitions_{ACTIVITY_FILE_STEMS[activity]}"
        events.extend(_parse_acquisitions(paths.acquisitions[activity], activity, table, rejects))
    events.sort(key=lambda e: (e.user_id, e.timestamp, _ACTIVITY_ORDER[e.activity]))
    profiles = _parse_demographics(paths.demographics, rejects)
    for (qid, instance), path in sorted(paths.questionnaires.items()):
        _parse_questionnaire(path, qid, instance, profiles, rejects)
    return RecordDatabase(events=events, profiles=profiles, rejects=rejects)


def user_span_days(events) -> int:
    return (max(e.timestamp for e in events) - min(e.timestamp for e in events)).days


def cleanse(db: RecordDatabase) -> tuple[RecordDatabase, CleanseReport]:
    by_user = db.events_by_user()
    all_users = db.user_ids()
    removed, retained = [], []
    for user_id in all_users:
        profile = db.profiles.get(user_id)
        events = by_user.get(user_id, [])
        if profile is None or not profile.in_demographics:
            removed.append(RemovedUser(user_id, "missing_profile"))
        elif profile.status not in STATUS_VALUES:
            removed.append(RemovedUser(user_id, "invalid_status"))
        elif not events:
            removed.append(RemovedUser(user_id, "no_acquisitions"))
        elif user_span_days(events) < MIN_SPAN_DAYS:
            removed.append(RemovedUser(user_id, "short_span"))
        else:
            retained.append(user_id)
    keep = set(retained)
    cleansed = RecordDatabase(events=[e for e in db.events if e.user_id in keep],
                              profiles={u: db.profiles[u] for u in retained}, rejects=list(db.rejects))
    return cleansed, CleanseReport(n_input_users=len(all_users), retained=retained, removed=removed)


def static_row(profile: UserProfile) -> list[float]:
    """The user's STATIC_COLUMNS: demographics, then every questionnaire in D6's order."""
    values = [getattr(profile, f) for f in DEMOGRAPHIC_FIELDS]
    for qid in ("spq", "ucla", "eq5d3l", "utaut"):
        for instance in QUESTIONNAIRE_INSTANCES[qid]:
            values += profile.items_for(qid, instance)
    return [math.nan if v is None else float(v) for v in values]


def assert_same_database(db, ref: RecordDatabase) -> None:
    """The columnar database db holds what the record database ref does."""
    users = ref.user_ids()
    profiles = [ref.profiles.get(u, UserProfile(u, in_demographics=False)) for u in users]
    assert db.profiles.user_id.tolist() == users
    assert db.profiles.in_demographics.tolist() == [p.in_demographics for p in profiles]
    assert db.profiles.status.dtype == np.int8
    assert db.profiles.status.tolist() == [STATUS_VALUES.index(p.status) if p.status in STATUS_VALUES else -1
                                           for p in profiles]
    assert db.profiles.static.dtype == np.float64
    np.testing.assert_array_equal(db.profiles.static,
                                  np.array([static_row(p) for p in profiles]).reshape(-1, len(STATIC_COLUMNS)))
    assert db.events.activity.dtype == np.int8 and db.events.day.dtype == np.dtype("datetime64[D]")
    events = zip(db.profiles.user_id[db.events.user].tolist(), db.events.activity.tolist(), db.events.day.tolist())
    assert list(events) == [(e.user_id, _ACTIVITY_ORDER[e.activity], e.timestamp) for e in ref.events]
    assert db.rejects == ref.rejects


# ---------------------------------------------------------------------------
# The per-user sessionizer

@dataclass(frozen=True)
class Session:
    start: date
    value: int


@dataclass(frozen=True)
class WindowSample:
    user_id: str
    values: tuple
    future: tuple
    label: int
    window_end_date: date


def reference_sessions(events, period):
    monday, sunday = period
    n_sessions = 2 * max(0, (sunday - monday).days // 7 + 1)
    days = {((e.timestamp - monday).days, e.activity) for e in events}
    values = Counter(s for s, _ in {(2 * (d // 7) + (d % 7 >= 4), activity) for d, activity in days})
    return [Session(monday + timedelta(days=7 * (s // 2) + 4 * (s % 2)), values[s]) for s in range(n_sessions)]


def reference_windows(user_id, sessions):
    values = [s.value for s in sessions]
    samples = []
    for i in range(len(values) - 15 + 1):
        fs = tuple(int(v >= 1) for v in values[i + 12 : i + 15])
        samples.append(WindowSample(user_id, tuple(values[i : i + 12]), fs, 0 if sum(fs) < 2 else 1,
                                    sessions[i + 11].start))
    return samples


def reference_period(events):
    """The rounded active period of one user's events: the first day's Monday to the Sunday on or before the last."""
    first, last = min(e.timestamp for e in events), max(e.timestamp for e in events)
    return first - timedelta(days=first.weekday()), last - timedelta(days=(last.weekday() + 1) % 7)


def reference_database_windows(events):
    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)
    out = []
    for user_id, user_events in sorted(by_user.items()):
        out += reference_windows(user_id, reference_sessions(user_events, reference_period(user_events)))
    return out


def assert_same_windows(w, ref) -> None:
    """The columnar Windows w holds the WindowSamples ref."""
    assert len(w) == len(ref)
    assert [c.dtype.kind for c in (w.user_id, w.values, w.future, w.label)] == ["U", "i", "i", "i"]
    assert w.end_date.dtype == np.dtype("datetime64[D]")
    assert w.user_id.tolist() == [s.user_id for s in ref]
    assert w.values.tolist() == [list(s.values) for s in ref]
    assert w.future.tolist() == [list(s.future) for s in ref]
    assert w.label.tolist() == [s.label for s in ref]
    assert w.end_date.tolist() == [s.window_end_date for s in ref]


# ---------------------------------------------------------------------------
# The masked preprocessing

def column_mode(values: np.ndarray) -> float:
    """Most frequent non-null value; ties take the smallest; all-null gives 0."""
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return 0.0
    uniq, counts = np.unique(finite, return_counts=True)
    return float(uniq[np.argmax(counts)])  # np.unique sorts, so argmax tie -> smallest


def fit_preprocess(ds: TabularDataset) -> PreprocessState:
    """The statistics of X + 0.0, so that every zero statistic is +0.0 whichever zeros a column holds."""
    if ds.n_rows < 1:
        raise ValueError("cannot fit preprocessing on an empty dataset")
    X = ds.X + 0.0
    modes = np.array([column_mode(X[:, j]) for j in range(ds.n_cols)])
    static = ds.static_mask()
    imputed = np.where(np.isnan(X), modes[None, :], X)
    scale_min = np.full(ds.n_cols, np.nan)
    scale_max = np.full(ds.n_cols, np.nan)
    scale_min[static] = imputed[:, static].min(axis=0)
    scale_max[static] = imputed[:, static].max(axis=0)
    return PreprocessState(column_names=list(ds.column_names), modes=modes, scale_min=scale_min,
                           scale_max=scale_max, static=static, fitted_on=ds.n_rows)


def transform(ds: TabularDataset, state: PreprocessState) -> TabularDataset:
    if list(ds.column_names) != state.column_names:
        raise ValueError("dataset columns do not match the fitted preprocessing state")
    X = np.where(np.isnan(ds.X), state.modes[None, :], ds.X)
    static = state.static
    lo = state.scale_min[static]
    hi = state.scale_max[static]
    span = hi - lo
    block = X[:, static]
    scaled = np.zeros_like(block)
    nonconst = span > 0
    scaled[:, nonconst] = np.clip((block[:, nonconst] - lo[nonconst]) / span[nonconst], 0.0, 1.0)
    X[:, static] = scaled
    return TabularDataset(list(ds.column_names), X, None if ds.y is None else ds.y.copy())

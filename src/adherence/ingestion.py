"""Ingestion of the relational CSV database into two column tables, plus cleansing.

The database layout is fixed: four acquisition tables (one per activity), one
socio-demographic table and seven questionnaire tables. All files are UTF-8,
comma-separated, first row header. Empty cells mean null. A parsed database is
a `Profiles` table, one row per user, and an `Events` table whose rows index it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np

from .artifact import read_csv, write_csv


class Activity(Enum):
    BRAIN_GAMES = "BrainGames"
    FINGER_TAPPING = "FingerTapping"
    MINDFULNESS = "Mindfulness"
    PHYSICAL = "Physical"


# Canonical file-name stem per activity, its label in lower case: acquisitions_<stem>.csv
ACTIVITY_FILE_STEMS = {a: a.value.lower() for a in Activity}

STATUS_VALUES = ("StillUsing", "Finished", "Dropout")

# Questionnaire schema: item counts and administered instances.
QUESTIONNAIRE_ITEMS = {"spq": 6, "ucla": 20, "eq5d3l": 5, "utaut": 31}
QUESTIONNAIRE_INSTANCES = {"spq": (1, 3), "ucla": (1, 3), "eq5d3l": (1, 3), "utaut": (3,)}

DEMOGRAPHIC_FIELDS = (
    "birth_year",
    "education",
    "technology",
    "living_environment",
    "living_conditions",
    "living_status",
    "use_case",
)

MAX_USER_ID = 64  # characters; a row with a longer user_id is a reject

# Valid ranges for ordinal demographic fields; rows outside these are rejected.
DEMOGRAPHIC_RANGES = {
    "education": (0, 8),
    "technology": (1, 3),
    "living_environment": (1, 2),
    "living_conditions": (1, 2),
    "living_status": (1, 2),
    "use_case": (3, 7),
}

# The per-user columns, block by block in the order D2..D6 append them: the
# demographics, then each questionnaire's items at each instance it was given.
STATIC_BLOCKS = [list(DEMOGRAPHIC_FIELDS), *(
    [f"{qid}{instance}_q{i}" for instance in QUESTIONNAIRE_INSTANCES[qid]
     for i in range(1, QUESTIONNAIRE_ITEMS[qid] + 1)]
    for qid in ("spq", "ucla", "eq5d3l", "utaut"))]
STATIC_COLUMNS = list(chain.from_iterable(STATIC_BLOCKS))


def answer_columns(qid: str, instance: int) -> slice:
    """The STATIC_COLUMNS that hold one questionnaire instance's answers."""
    start = STATIC_COLUMNS.index(f"{qid}{instance}_q1")
    return slice(start, start + QUESTIONNAIRE_ITEMS[qid])


MIN_SPAN_DAYS = 42  # "fewer than 6 weeks" cleansing rule, on the raw span


class IngestError(ValueError):
    """File-level ingestion failure (missing file, broken header)."""


def _normalize_label(label: str) -> str:
    return "".join(ch for ch in label.lower() if ch.isalnum())


_ACTIVITY_LOOKUP = {_normalize_label(a.value): a for a in Activity}
_ACTIVITY_CODE = {a: code for code, a in enumerate(Activity)}
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


def parse_activity(label: str) -> Activity:
    """Map an activity label to the enum, tolerating case/spacing variants."""
    try:
        return _ACTIVITY_LOOKUP[_normalize_label(label)]
    except KeyError:
        raise ValueError(f"unknown activity: {label!r}") from None


@dataclass(frozen=True)
class RejectedRow:
    table: str
    row: int  # 1-based data row number (header not counted)
    reason: str


@dataclass
class Profiles:
    """Every user seen in any table as columns, one row per user in user_id order."""

    user_id: np.ndarray  # (u,) str, sorted
    in_demographics: np.ndarray  # (u,) bool: False for a user with no demographics row
    status: np.ndarray  # (u,) int8: index in STATUS_VALUES, -1 for a null or unknown status
    static: np.ndarray  # (u, len(STATIC_COLUMNS)) float64: demographics, then answers; NaN for null

    def __len__(self) -> int:
        return len(self.user_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self.user_id.tolist())


@dataclass
class Events:
    """Every acquisition as columns, one row per event, sorted by (user, day, activity)."""

    user: np.ndarray  # (n,) int: the user's row in Profiles
    activity: np.ndarray  # (n,) int8: index in Activity order
    day: np.ndarray  # (n,) datetime64[D]

    @classmethod
    def from_ordinals(cls, user, activity, ordinal) -> "Events":
        """The events of the given columns, days given as date.toordinal(), in (user, day, activity) order."""
        user, activity = np.asarray(user, dtype=np.int64), np.asarray(activity, dtype=np.int8)
        day = (np.asarray(ordinal, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
        order = np.lexsort((activity, day, user))
        return cls(user[order], activity[order], day[order])

    def __len__(self) -> int:
        return len(self.user)

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of the users with events, ascending, and the first and last day of each one's events."""
        start = np.flatnonzero(np.diff(self.user, prepend=-1))
        return self.user[start], np.minimum.reduceat(self.day, start), np.maximum.reduceat(self.day, start)


@dataclass
class RawDatabase:
    profiles: Profiles
    events: Events
    rejects: list[RejectedRow] = field(default_factory=list)


@dataclass(frozen=True)
class RemovedUser:
    user_id: str
    reason: str


@dataclass
class CleanseReport:
    n_input_users: int
    retained: list[str]
    removed: list[RemovedUser]

    @property
    def n_retained(self) -> int:
        return len(self.retained)

    @property
    def n_removed(self) -> int:
        return len(self.removed)


@dataclass(frozen=True)
class DatabasePaths:
    """Locations of the twelve tables making up one database."""

    acquisitions: dict[Activity, Path]
    demographics: Path
    questionnaires: dict[tuple[str, int], Path]

    @classmethod
    def from_dir(cls, directory: str | Path) -> "DatabasePaths":
        d = Path(directory)
        acquisitions = {
            act: d / f"acquisitions_{stem}.csv" for act, stem in ACTIVITY_FILE_STEMS.items()
        }
        questionnaires = {
            (qid, inst): d / f"{qid}_{inst}.csv"
            for qid, instances in QUESTIONNAIRE_INSTANCES.items()
            for inst in instances
        }
        return cls(acquisitions=acquisitions, demographics=d / "demographics.csv", questionnaires=questionnaires)


def _parse_date(raw: str) -> date:
    # Accepts dates and full timestamps; truncated to day precision.
    return datetime.fromisoformat(raw.strip()).date()


def _read_table(path: Path, required: list[str], table: str) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise IngestError(f"{table}: missing file {path}")
    try:
        rows = [row for _, row in read_csv(path)]
    except ValueError as exc:
        raise IngestError(f"{table}: {exc}") from None
    if not rows:
        raise IngestError(f"{table}: empty file, header expected")
    header = [h.strip() for h in rows.pop(0)]
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{table}: missing required column(s) {missing}")
    return header, rows


def _column_index(header: list[str], known, table: str) -> dict[str, int]:
    """Each header column's index; the columns outside known are warned about once, and then ignored."""
    extra = [c for c in header if c not in known]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    return {c: header.index(c) for c in header}


def _user_rows(header: list[str], rows: list[list[str]], table: str,
               rejects: list[RejectedRow]) -> Iterator[tuple[int, str, list[str]]]:
    """Yield (row number, user_id, row) for each non-blank row; short rows and
    rows with an empty user_id, a NUL in it (numpy text arrays drop trailing
    NULs, so "u1\0" would merge with "u1") or one longer than MAX_USER_ID
    characters (every user_id array is as wide as its longest) are rejects."""
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


def _parse_acquisitions(path: Path, activity: Activity, table: str,
                        rejects: list[RejectedRow]) -> list[tuple[str, int, int]]:
    """The user_id, activity code and date.toordinal() of each accepted row."""
    header, rows = _read_table(path, ["user_id", "timestamp"], table)
    idx = _column_index(header, ("user_id", "timestamp", "activity"), table)
    has_activity = "activity" in idx
    events = []
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        try:
            day = _parse_date(row[idx["timestamp"]]).toordinal()
        except ValueError:
            rejects.append(RejectedRow(table, i, "unparseable timestamp"))
            continue
        act = activity
        if has_activity:
            try:
                act = parse_activity(row[idx["activity"]])
            except ValueError:
                rejects.append(RejectedRow(table, i, "unknown activity"))
                continue
        events.append((user_id, _ACTIVITY_CODE[act], day))
    return events


def _parse_int(raw: str) -> int | None:
    return int(raw) if raw.strip() else None  # int() itself ignores surrounding whitespace


def _to_float(value: int | None) -> float:
    return math.nan if value is None else float(value)  # OverflowError beyond the float range


def _parse_demographics(path: Path, rejects: list[RejectedRow]) -> dict[str, tuple[int, list[float]]]:
    """Each accepted row's user_id -> (status code, demographic values)."""
    table = "demographics"
    required = ["user_id", "status", *DEMOGRAPHIC_FIELDS]
    header, rows = _read_table(path, required, table)
    idx = _column_index(header, required, table)
    profiles: dict[str, tuple[int, list[float]]] = {}
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        if user_id in profiles:
            rejects.append(RejectedRow(table, i, f"duplicate user_id {user_id}"))
            continue
        values: list[float] = []
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
            try:
                values.append(_to_float(v))
            except OverflowError:
                reason = f"{name} too large"
                break
        if reason is not None:
            rejects.append(RejectedRow(table, i, reason))
            continue
        status = row[idx["status"]].strip()
        profiles[user_id] = (STATUS_VALUES.index(status) if status in STATUS_VALUES else -1, values)
    return profiles


def _parse_questionnaire(path: Path, qid: str, instance: int,
                         rejects: list[RejectedRow]) -> tuple[list[str], list[list[float]]]:
    """The user_id and answers of each accepted row that answers at least one item."""
    table = f"{qid}_{instance}"
    n_items = QUESTIONNAIRE_ITEMS[qid]
    q_cols = [f"Q{i}" for i in range(1, n_items + 1)]
    header, rows = _read_table(path, ["user_id", *q_cols], table)
    # A Q-column beyond the questionnaire's item count is a schema violation,
    # not schema growth.
    unknown_q = [c for c in header if c.startswith("Q") and c[1:].isdigit() and c not in q_cols]
    if unknown_q:
        raise IngestError(f"{table}: unknown column(s) {unknown_q}")
    idx = _column_index(header, ("user_id", *q_cols), table)
    seen: set[str] = set()
    users: list[str] = []
    answers: list[list[float]] = []
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        if user_id in seen:
            rejects.append(RejectedRow(table, i, f"duplicate user_id {user_id}"))
            continue
        seen.add(user_id)
        try:
            items = [_parse_int(row[idx[c]]) for c in q_cols]
        except ValueError:
            rejects.append(RejectedRow(table, i, "non-integer answer"))
            continue
        if all(a is None for a in items):
            continue  # an all-empty row is a non-response, not an answer set
        try:
            answers.append(list(map(_to_float, items)))
        except OverflowError:
            rejects.append(RejectedRow(table, i, "answer too large"))
            continue
        users.append(user_id)
    return users, answers


def parse_database(paths: DatabasePaths) -> RawDatabase:
    """Parse all tables into the profile and event columns.

    Every user seen in an accepted row gets a profile row; a user without a
    demographics row (answers or events only) is kept with in_demographics
    False, and the cleansing stage decides their fate. Malformed rows are
    collected as rejects, never silently dropped; file-level problems
    (missing file, broken header) raise IngestError.
    """
    rejects: list[RejectedRow] = []
    events = [e for a in Activity
              for e in _parse_acquisitions(paths.acquisitions[a], a, f"acquisitions_{ACTIVITY_FILE_STEMS[a]}", rejects)]
    event_user, activity, day = zip(*events) if events else ((), (), ())
    demographics = _parse_demographics(paths.demographics, rejects)
    answers = {key: _parse_questionnaire(path, *key, rejects) for key, path in sorted(paths.questionnaires.items())}
    # One text array of the distinct users only: a numpy text array is as wide as its longest entry.
    users = np.array(sorted({*event_user, *demographics, *chain.from_iterable(u for u, _ in answers.values())}),
                     dtype=str)
    row_of = {u: row for row, u in enumerate(users.tolist())}
    rows = np.array([row_of[u] for u in demographics], dtype=np.int64)
    in_demographics = np.zeros(len(users), dtype=bool)
    in_demographics[rows] = True
    status = np.full(len(users), -1, dtype=np.int8)
    status[rows] = [code for code, _ in demographics.values()]
    static = np.full((len(users), len(STATIC_COLUMNS)), np.nan)
    static[rows, : len(DEMOGRAPHIC_FIELDS)] = \
        np.reshape([v for _, v in demographics.values()], (-1, len(DEMOGRAPHIC_FIELDS)))
    for (qid, instance), (ids, values) in answers.items():
        static[np.array([row_of[u] for u in ids], dtype=np.int64), answer_columns(qid, instance)] = \
            np.reshape(values, (-1, QUESTIONNAIRE_ITEMS[qid]))
    return RawDatabase(profiles=Profiles(users, in_demographics, status, static),
                       events=Events.from_ordinals([row_of[u] for u in event_user], activity, day), rejects=rejects)


# Why cleanse removes a user, in order of precedence.
_REMOVAL_REASONS = ["missing_profile", "invalid_status", "no_acquisitions", "short_span"]


def cleanse(db: RawDatabase) -> tuple[RawDatabase, CleanseReport]:
    """Apply the user-level cleansing rules.

    Removes users with an unrecognized status, users without any acquisition,
    and users whose raw acquisition span is shorter than 42 days. Users that
    appear in acquisition or questionnaire tables without a demographics row
    are removed as unresolvable.
    """
    profiles, events = db.profiles, db.events
    users, first, last = events.spans()
    span = np.full(len(profiles), np.timedelta64("NaT"), dtype="timedelta64[D]")  # NaT: no acquisition
    span[users] = last - first
    reason = np.select([~profiles.in_demographics, profiles.status < 0, np.isnat(span),
                        span < np.timedelta64(MIN_SPAN_DAYS, "D")], _REMOVAL_REASONS, "")
    keep = reason == ""
    kept = keep[events.user]
    retained = profiles.user_id[keep].tolist()
    cleansed = RawDatabase(
        # a new text array, as wide as the longest retained user_id rather than the longest removed one
        profiles=Profiles(np.array(retained, dtype=str), profiles.in_demographics[keep], profiles.status[keep],
                          profiles.static[keep]),
        events=Events((np.cumsum(keep) - 1)[events.user[kept]], events.activity[kept], events.day[kept]),
        rejects=list(db.rejects),
    )
    removed = [RemovedUser(u, r) for u, r in zip(profiles, reason.tolist()) if r]
    return cleansed, CleanseReport(n_input_users=len(profiles), retained=retained, removed=removed)


# ---------------------------------------------------------------------------
# Writers (the exact schema parse_database reads)

def write_database(db: RawDatabase, directory: str | Path) -> DatabasePaths:
    """Write a database to the canonical CSV layout; returns its paths."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = DatabasePaths.from_dir(d)
    events, profiles = db.events, db.profiles
    event_user, day = profiles.user_id[events.user], events.day.astype(str)
    for activity, path in paths.acquisitions.items():
        mine = events.activity == _ACTIVITY_CODE[activity]  # still in (user_id, day) order
        write_csv(path, ["user_id", "timestamp"], zip(event_user[mine].tolist(), day[mine].tolist()))
    users = list(profiles)
    status = [STATUS_VALUES[code] if code >= 0 else None for code in profiles.status.tolist()]
    known = ~np.isnan(profiles.static)
    cells = np.full(profiles.static.shape, None, dtype=object)  # integers, None for null
    cells[known] = [int(v) for v in profiles.static[known].tolist()]
    demographics = cells[:, : len(DEMOGRAPHIC_FIELDS)].tolist()
    write_csv(paths.demographics, ["user_id", "status", *DEMOGRAPHIC_FIELDS],
              ([u, s, *values] for u, s, values in zip(users, status, demographics)))
    for (qid, instance), path in sorted(paths.questionnaires.items()):
        n_items = QUESTIONNAIRE_ITEMS[qid]
        write_csv(path, ["user_id", *(f"Q{i}" for i in range(1, n_items + 1))],
                  ([u, *items] for u, items in zip(users, cells[:, answer_columns(qid, instance)].tolist())))
    return paths


def write_rejects(rejects: list[RejectedRow], path: str | Path) -> None:
    write_csv(path, ["table", "row", "reason"], ([r.table, r.row, r.reason] for r in rejects))


def write_cleanse_report(report: CleanseReport, path: str | Path) -> None:
    rows = [[u, "retained", ""] for u in report.retained]
    rows += [[r.user_id, "removed", r.reason] for r in report.removed]
    write_csv(path, ["user_id", "disposition", "reason"], rows)

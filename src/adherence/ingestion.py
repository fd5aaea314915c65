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
from itertools import chain, islice, zip_longest
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
        """The user ids in order (cleanse and write_database use it, and perfbench/run.py's users_for sorts them)."""
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


class _Table:
    """One table's data rows as the cells of its known columns, and the first reason each row is left out for.

    Index i of every column is data row i + 1. A row shorter than the header reads empty
    cells, and a longer one is cut at the header's width. A repeated known name reads its
    first column, and unknown columns are ignored; each of the two is warned about once.
    """

    def __init__(self, table: str, header: list[str], rows: list[list[str]], known) -> None:
        extra = [c for c in header if c not in known]
        if extra:
            warnings.warn(f"{table}: ignoring extra column(s) {extra}")
        repeated = [c for c in known if header.count(c) > 1]
        if repeated:
            warnings.warn(f"{table}: reading only the first of each repeated column(s) {repeated}")
        columns = list(islice(zip_longest(*rows, fillvalue=""), len(header)))
        columns += [("",) * len(rows)] * (len(header) - len(columns))  # when every row is short
        self.table = table
        self.cells = {c: columns[header.index(c)] for c in known if c in header}
        self.reason = np.full(len(rows), None, dtype=object)
        self.open = np.ones(len(rows), dtype=bool)
        self.user_id = np.array([c.strip() for c in self.cells["user_id"]], dtype=object)
        # The checks every table shares. A NUL would merge "u1\0" with "u1", because numpy text
        # arrays drop trailing NULs, and every user_id array is as wide as its longest entry.
        self.reject(np.array([not "".join(row).strip() for row in rows], dtype=bool), "")
        self.reject(np.fromiter(map(len, rows), np.intp, len(rows)) < len(header), "short row")
        self.reject(self.user_id == "", "empty user_id")
        self.reject(np.array(["\0" in u for u in self.user_id], dtype=bool), "NUL in user_id")
        self.reject(np.fromiter(map(len, self.user_id), np.intp, len(rows)) > MAX_USER_ID, "user_id too long")

    def reject(self, where: np.ndarray, reason) -> None:
        """Give reason (one text, or one per row) to the rows where holds that have none yet.

        So the order of a table's calls is the precedence of its checks. The reason "" leaves
        a row out without a reject, as a blank row is.
        """
        hit = where & self.open
        self.reason[hit] = reason[hit] if isinstance(reason, np.ndarray) else reason
        self.open = self.open & ~hit

    def decode(self, names, parse, missing) -> tuple[np.ndarray, np.ndarray]:
        """parse(text) of each cell of the named columns, as (len(names), rows), and whether it parsed.

        Each distinct text is parsed once; a cell whose parse raises ValueError reads missing.
        """
        cells = list(chain.from_iterable(self.cells[c] for c in names))
        index = {text: i for i, text in enumerate(dict.fromkeys(cells))}
        value, parsed = np.full(len(index), missing), np.zeros(len(index), dtype=bool)
        for text, i in index.items():
            try:
                value[i], parsed[i] = parse(text), True
            except ValueError:
                pass
        code = np.fromiter(map(index.__getitem__, cells), np.intp, len(cells)).reshape(len(names), -1)
        return value[code], parsed[code]

    def close(self, rejects: list[RejectedRow]) -> np.ndarray:
        """Append the table's rejects to rejects, in row order; returns the rows that no check left out."""
        rows = np.flatnonzero(self.reason.astype(bool)).tolist()  # None and "" are no reject
        rejects.extend(RejectedRow(self.table, i + 1, self.reason[i]) for i in rows)
        return self.open


def _after_first(user_id: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Whether each row comes after a row of its user_id where first holds."""
    rows = np.flatnonzero(first)[::-1]
    earliest = dict(zip(user_id[rows].tolist(), rows.tolist()))
    return np.arange(len(user_id)) > np.array([earliest.get(u, len(user_id)) for u in user_id.tolist()], dtype=int)


def _integer(text: str) -> float:
    """An integer cell as a float: NaN when empty, +-inf beyond the float range; ValueError when not an integer."""
    if not text.strip():
        return math.nan
    value = int(text)  # int() itself ignores surrounding whitespace
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_acquisitions(path: Path, activity: Activity, table: str,
                        rejects: list[RejectedRow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user_id, activity code and date.toordinal() of each accepted row."""
    t = _Table(table, *_read_table(path, ["user_id", "timestamp"], table), ("user_id", "timestamp", "activity"))
    day, parsed = t.decode(["timestamp"], lambda text: _parse_date(text).toordinal(), 0)
    t.reject(~parsed[0], "unparseable timestamp")
    code = np.full(day.shape, _ACTIVITY_CODE[activity])
    if "activity" in t.cells:
        code, parsed = t.decode(["activity"], lambda text: _ACTIVITY_CODE[parse_activity(text)], 0)
        t.reject(~parsed[0], "unknown activity")
    keep = t.close(rejects)
    return t.user_id[keep], code[0, keep], day[0, keep]


def _parse_demographics(path: Path, rejects: list[RejectedRow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user_id, status code and demographic values of each accepted row."""
    table = "demographics"
    required = ["user_id", "status", *DEMOGRAPHIC_FIELDS]
    t = _Table(table, *_read_table(path, required, table), required)
    value, parsed = t.decode(DEMOGRAPHIC_FIELDS, _integer, math.nan)
    checks = []  # each field in order: non-integer, out of range (a huge int too), too large
    for name, v, ok in zip(DEMOGRAPHIC_FIELDS, value, parsed):
        checks.append((~ok, f"non-integer {name}"))
        if name in DEMOGRAPHIC_RANGES:
            lo, hi = DEMOGRAPHIC_RANGES[name]
            checks.append(((v < lo) | (v > hi), f"{name} out of range [{lo},{hi}]"))
        checks.append((np.isinf(v), f"{name} too large"))
    # A row is a duplicate when an accepted row above it has its user_id, whatever its own values.
    valid = t.open & ~np.logical_or.reduce([where for where, _ in checks])
    t.reject(_after_first(t.user_id, valid), "duplicate user_id " + t.user_id)
    for where, reason in checks:
        t.reject(where, reason)
    status, _ = t.decode(["status"], lambda text: STATUS_VALUES.index(text.strip()), -1)
    keep = t.close(rejects)
    return t.user_id[keep], status[0, keep], value[:, keep].T


def _parse_questionnaire(path: Path, qid: str, instance: int,
                         rejects: list[RejectedRow]) -> tuple[np.ndarray, np.ndarray]:
    """The user_id and answers of each accepted row that answers at least one item."""
    table = f"{qid}_{instance}"
    q_cols = [f"Q{i}" for i in range(1, QUESTIONNAIRE_ITEMS[qid] + 1)]
    header, rows = _read_table(path, ["user_id", *q_cols], table)
    # A Q-column beyond the questionnaire's item count is a schema violation,
    # not schema growth.
    unknown_q = [c for c in header if c.startswith("Q") and c[1:].isdigit() and c not in q_cols]
    if unknown_q:
        raise IngestError(f"{table}: unknown column(s) {unknown_q}")
    t = _Table(table, header, rows, ("user_id", *q_cols))
    # A row is a duplicate when any row above it passed the user_id checks.
    t.reject(_after_first(t.user_id, t.open), "duplicate user_id " + t.user_id)
    value, parsed = t.decode(q_cols, _integer, math.nan)
    t.reject(~parsed.all(axis=0), "non-integer answer")
    t.reject(np.isnan(value).all(axis=0), "")  # an all-empty row is a non-response, not an answer set
    t.reject(np.isinf(value).any(axis=0), "answer too large")
    keep = t.close(rejects)
    return t.user_id[keep], value[:, keep].T


def parse_database(paths: DatabasePaths) -> RawDatabase:
    """Parse all tables into the profile and event columns.

    Every user seen in an accepted row gets a profile row; a user without a
    demographics row (answers or events only) is kept with in_demographics
    False, and the cleansing stage decides their fate. Malformed rows are
    collected as rejects, never silently dropped; file-level problems
    (missing file, broken header) raise IngestError.
    """
    rejects: list[RejectedRow] = []
    events = [_parse_acquisitions(paths.acquisitions[a], a, f"acquisitions_{ACTIVITY_FILE_STEMS[a]}", rejects)
              for a in Activity]
    event_user, activity, day = (np.concatenate(column) for column in zip(*events))
    demo_user, status, demographics = _parse_demographics(paths.demographics, rejects)
    answers = {key: _parse_questionnaire(path, *key, rejects) for key, path in sorted(paths.questionnaires.items())}
    ids = [event_user, demo_user, *(u for u, _ in answers.values())]
    # Text arrays as wide as the longest accepted user_id; one sort gives every row its user's.
    users, user = np.unique(np.concatenate([u.astype(str) for u in ids]), return_inverse=True)
    event_row, demo_row, *answer_rows = np.split(user, np.cumsum([len(u) for u in ids])[:-1])
    in_demographics = np.bincount(demo_row, minlength=len(users)).astype(bool)
    status_code = np.full(len(users), -1, dtype=np.int8)
    status_code[demo_row] = status
    static = np.full((len(users), len(STATIC_COLUMNS)), np.nan)
    static[demo_row, : len(DEMOGRAPHIC_FIELDS)] = demographics
    for ((qid, instance), (_, values)), rows in zip(answers.items(), answer_rows):
        static[rows, answer_columns(qid, instance)] = values
    return RawDatabase(profiles=Profiles(users, in_demographics, status_code, static),
                       events=Events.from_ordinals(event_row, activity, day), rejects=rejects)


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

"""Ingestion of the relational CSV database into typed records, plus cleansing.

The database layout is fixed: four acquisition tables (one per activity), one
socio-demographic table and seven questionnaire tables. All files are UTF-8,
comma-separated, first row header. Empty cells mean null.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from pathlib import Path

from .artifact import read_csv, write_csv


class Activity(Enum):
    BRAIN_GAMES = "BrainGames"
    FINGER_TAPPING = "FingerTapping"
    MINDFULNESS = "Mindfulness"
    PHYSICAL = "Physical"


# Canonical file-name stem per activity: acquisitions_<stem>.csv
ACTIVITY_FILE_STEMS = {
    Activity.BRAIN_GAMES: "braingames",
    Activity.FINGER_TAPPING: "fingertapping",
    Activity.MINDFULNESS: "mindfulness",
    Activity.PHYSICAL: "physical",
}

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

# Valid ranges for ordinal demographic fields; rows outside these are rejected.
DEMOGRAPHIC_RANGES = {
    "education": (0, 8),
    "technology": (1, 3),
    "living_environment": (1, 2),
    "living_conditions": (1, 2),
    "living_status": (1, 2),
    "use_case": (3, 7),
}

MIN_SPAN_DAYS = 42  # "fewer than 6 weeks" cleansing rule, on the raw span


class IngestError(ValueError):
    """File-level ingestion failure (missing file, broken header)."""


def _normalize_label(label: str) -> str:
    return "".join(ch for ch in label.lower() if ch.isalnum())


_ACTIVITY_LOOKUP = {_normalize_label(a.value): a for a in Activity}


def parse_activity(label: str) -> Activity:
    """Map an activity label to the enum, tolerating case/spacing variants."""
    try:
        return _ACTIVITY_LOOKUP[_normalize_label(label)]
    except KeyError:
        raise ValueError(f"unknown activity: {label!r}") from None


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


@dataclass(frozen=True)
class RejectedRow:
    table: str
    row: int  # 1-based data row number (header not counted)
    reason: str


@dataclass
class RawDatabase:
    events: list[AcquisitionEvent]
    profiles: dict[str, UserProfile]
    rejects: list[RejectedRow] = field(default_factory=list)

    def events_by_user(self) -> dict[str, list[AcquisitionEvent]]:
        grouped: dict[str, list[AcquisitionEvent]] = {}
        for ev in self.events:
            grouped.setdefault(ev.user_id, []).append(ev)
        return grouped

    def user_ids(self) -> list[str]:
        ids = set(self.profiles)
        ids.update(ev.user_id for ev in self.events)
        return sorted(ids)


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


def _user_rows(header: list[str], rows: list[list[str]], table: str,
               rejects: list[RejectedRow]) -> Iterator[tuple[int, str, list[str]]]:
    """Yield (row number, user_id, row) for each non-blank row; short rows and
    rows with an empty user_id are recorded as rejects."""
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
        yield i, user_id, row


def _parse_acquisitions(path: Path, activity: Activity, table: str, rejects: list[RejectedRow]) -> list[AcquisitionEvent]:
    header, rows = _read_table(path, ["user_id", "timestamp"], table)
    known = {"user_id", "timestamp", "activity"}
    extra = [c for c in header if c not in known]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    idx = {c: header.index(c) for c in header}
    has_activity = "activity" in idx
    events = []
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        try:
            ts = _parse_date(row[idx["timestamp"]])
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
        events.append(AcquisitionEvent(user_id, act, ts))
    return events


def _parse_int(raw: str) -> int | None:
    return int(raw) if raw.strip() else None  # int() itself ignores surrounding whitespace


def _parse_demographics(path: Path, rejects: list[RejectedRow]) -> dict[str, UserProfile]:
    table = "demographics"
    required = ["user_id", "status", *DEMOGRAPHIC_FIELDS]
    header, rows = _read_table(path, required, table)
    extra = [c for c in header if c not in required]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    idx = {c: header.index(c) for c in header}
    profiles: dict[str, UserProfile] = {}
    for i, user_id, row in _user_rows(header, rows, table, rejects):
        if user_id in profiles:
            rejects.append(RejectedRow(table, i, f"duplicate user_id {user_id}"))
            continue
        status = row[idx["status"]].strip() or None
        values: dict[str, int | None] = {}
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
            values[name] = v
        if reason is not None:
            rejects.append(RejectedRow(table, i, reason))
            continue
        profiles[user_id] = UserProfile(user_id=user_id, status=status, **values)
    return profiles


def _parse_questionnaire(
    path: Path,
    qid: str,
    instance: int,
    profiles: dict[str, UserProfile],
    rejects: list[RejectedRow],
) -> None:
    table = f"{qid}_{instance}"
    n_items = QUESTIONNAIRE_ITEMS[qid]
    q_cols = [f"Q{i}" for i in range(1, n_items + 1)]
    header, rows = _read_table(path, ["user_id", *q_cols], table)
    # A Q-column beyond the questionnaire's item count is a schema violation,
    # not schema growth.
    unknown_q = [c for c in header if c.startswith("Q") and c[1:].isdigit() and c not in q_cols]
    if unknown_q:
        raise IngestError(f"{table}: unknown column(s) {unknown_q}")
    extra = [c for c in header if c not in ("user_id", *q_cols)]
    if extra:
        warnings.warn(f"{table}: ignoring extra column(s) {extra}")
    idx = {c: header.index(c) for c in header}
    seen: set[str] = set()
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
            continue  # an all-empty row is a non-response, not an answer set
        profile = profiles.get(user_id)
        if profile is None:
            # Answers for unknown users are kept on a stub profile; the
            # cleansing stage decides their fate.
            profile = UserProfile(user_id=user_id, in_demographics=False)
            profiles[user_id] = profile
        profile.answers[(qid, instance)] = answers


_ACTIVITY_ORDER = {a: i for i, a in enumerate(Activity)}


def parse_database(paths: DatabasePaths) -> RawDatabase:
    """Parse all tables into typed records.

    Malformed rows are collected as rejects, never silently dropped; file-level
    problems (missing file, broken header) raise IngestError.
    """
    rejects: list[RejectedRow] = []
    events: list[AcquisitionEvent] = []
    for activity in Activity:
        path = paths.acquisitions[activity]
        table = f"acquisitions_{ACTIVITY_FILE_STEMS[activity]}"
        events.extend(_parse_acquisitions(path, activity, table, rejects))
    # Stable merged order regardless of per-table parse order.
    events.sort(key=lambda e: (e.user_id, e.timestamp, _ACTIVITY_ORDER[e.activity]))
    profiles = _parse_demographics(paths.demographics, rejects)
    for (qid, instance), path in sorted(paths.questionnaires.items()):
        _parse_questionnaire(path, qid, instance, profiles, rejects)
    return RawDatabase(events=events, profiles=profiles, rejects=rejects)


def user_span_days(events: list[AcquisitionEvent]) -> int:
    """Raw first-to-last acquisition span in days."""
    first = min(e.timestamp for e in events)
    last = max(e.timestamp for e in events)
    return (last - first).days


def cleanse(db: RawDatabase) -> tuple[RawDatabase, CleanseReport]:
    """Apply the user-level cleansing rules.

    Removes users with an unrecognized status, users without any acquisition,
    and users whose raw acquisition span is shorter than 42 days. Users that
    appear in acquisition or questionnaire tables without a demographics row
    are removed as unresolvable.
    """
    by_user = db.events_by_user()
    all_users = db.user_ids()
    removed: list[RemovedUser] = []
    retained: list[str] = []
    for user_id in all_users:
        profile = db.profiles.get(user_id)
        events = by_user.get(user_id, [])
        if profile is None or not profile.in_demographics:
            removed.append(RemovedUser(user_id, "missing_profile"))
            continue
        if profile.status not in STATUS_VALUES:
            removed.append(RemovedUser(user_id, "invalid_status"))
            continue
        if not events:
            removed.append(RemovedUser(user_id, "no_acquisitions"))
            continue
        if user_span_days(events) < MIN_SPAN_DAYS:
            removed.append(RemovedUser(user_id, "short_span"))
            continue
        retained.append(user_id)
    keep = set(retained)
    cleansed = RawDatabase(
        events=[e for e in db.events if e.user_id in keep],
        profiles={u: db.profiles[u] for u in retained},
        rejects=list(db.rejects),
    )
    report = CleanseReport(n_input_users=len(all_users), retained=retained, removed=removed)
    return cleansed, report


# ---------------------------------------------------------------------------
# Writers (the exact schema parse_database reads)

def write_database(db: RawDatabase, directory: str | Path) -> DatabasePaths:
    """Write a database to the canonical CSV layout; returns its paths."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = DatabasePaths.from_dir(d)
    by_activity: dict[Activity, list[AcquisitionEvent]] = {a: [] for a in Activity}
    for ev in db.events:
        by_activity[ev.activity].append(ev)
    for activity, path in paths.acquisitions.items():
        events = sorted(by_activity[activity], key=lambda e: (e.user_id, e.timestamp))
        write_csv(path, ["user_id", "timestamp"], ([ev.user_id, ev.timestamp.isoformat()] for ev in events))
    users = sorted(db.profiles)
    write_csv(paths.demographics, ["user_id", "status", *DEMOGRAPHIC_FIELDS],
              ([u, db.profiles[u].status, *(getattr(db.profiles[u], f) for f in DEMOGRAPHIC_FIELDS)]
               for u in users))
    for (qid, instance), path in sorted(paths.questionnaires.items()):
        n_items = QUESTIONNAIRE_ITEMS[qid]
        write_csv(path, ["user_id", *(f"Q{i}" for i in range(1, n_items + 1))],
                  ([u, *db.profiles[u].items_for(qid, instance)] for u in users))
    return paths


def write_rejects(rejects: list[RejectedRow], path: str | Path) -> None:
    write_csv(path, ["table", "row", "reason"], ([r.table, r.row, r.reason] for r in rejects))


def write_cleanse_report(report: CleanseReport, path: str | Path) -> None:
    rows = [[u, "retained", ""] for u in report.retained]
    rows += [[r.user_id, "removed", r.reason] for r in report.removed]
    write_csv(path, ["user_id", "disposition", "reason"], rows)

"""Half-week sessionization and labeled sliding-window extraction.

Weeks split into a Monday-Thursday and a Friday-Sunday session. A session's
value is the number of distinct activities completed in it (0-4). Windows take
12 consecutive session values as features; the following 3 sessions, binarized,
decide the adherence label: high (1) iff at least 2 of them contain activity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from pathlib import Path

from .artifact import write_csv
from .ingestion import AcquisitionEvent, RawDatabase

WINDOW_SESSIONS = 12
FUTURE_SESSIONS = 3
WINDOW_SPAN = WINDOW_SESSIONS + FUTURE_SESSIONS


class SessionKind(Enum):
    MON_THU = "MonThu"
    FRI_SUN = "FriSun"


@dataclass(frozen=True)
class Session:
    start: date
    kind: SessionKind
    value: int  # distinct activities completed, 0..4


@dataclass
class SessionSeries:
    user_id: str
    sessions: list[Session]


@dataclass(frozen=True)
class WindowSample:
    user_id: str
    values: tuple[int, ...]  # S1..S12
    future: tuple[int, ...]  # FS1..FS3, binarized
    label: int  # adherence A
    window_end_date: date  # start date of the 12th session


def round_active_period(first: date, last: date) -> tuple[date, date]:
    """Round the raw active period to week boundaries.

    The first date is rounded back to its Monday and the last date back to the
    previous Sunday. The result may be empty (sunday < monday).
    """
    if first > last:
        raise ValueError(f"inverted period: {first} > {last}")
    monday = first - timedelta(days=first.weekday())
    sunday = last if last.weekday() == 6 else last - timedelta(days=last.weekday() + 1)
    return monday, sunday


def build_sessions(user_id: str, events: list[AcquisitionEvent], period: tuple[date, date]) -> SessionSeries:
    """Per-session distinct-activity counts over the rounded period.

    Day d of the period falls in session 2 * (d // 7) + (d % 7 >= 4); a session's value
    is the number of distinct (session, activity) pairs in it. Events outside the period
    are ignored. An empty period yields no sessions.
    """
    monday, sunday = period
    n_sessions = 2 * max(0, (sunday - monday).days // 7 + 1)
    days = {((ev.timestamp - monday).days, ev.activity) for ev in events}
    values = Counter(s for s, _ in {(2 * (d // 7) + (d % 7 >= 4), activity) for d, activity in days})
    kinds = (SessionKind.MON_THU, SessionKind.FRI_SUN)
    return SessionSeries(user_id=user_id, sessions=[
        Session(start=monday + timedelta(days=7 * (s // 2) + 4 * (s % 2)), kind=kinds[s % 2], value=values[s])
        for s in range(n_sessions)
    ])


def label_adherence(fs: tuple[int, ...] | list[int]) -> int:
    """Adherence from the three binarized future sessions: 0 iff their sum < 2."""
    if len(fs) != FUTURE_SESSIONS:
        raise ValueError(f"expected {FUTURE_SESSIONS} future indicators, got {len(fs)}")
    for v in fs:
        if v not in (0, 1):
            raise ValueError(f"future indicators must be 0 or 1, got {v!r}")
    return 0 if sum(fs) < 2 else 1


def extract_windows(series: SessionSeries) -> list[WindowSample]:
    """All stride-1 windows of 15 consecutive sessions, labeled."""
    values = [s.value for s in series.sessions]
    samples: list[WindowSample] = []
    for i in range(len(values) - WINDOW_SPAN + 1):
        fs = tuple(int(v >= 1) for v in values[i + WINDOW_SESSIONS : i + WINDOW_SPAN])
        samples.append(WindowSample(user_id=series.user_id, values=tuple(values[i : i + WINDOW_SESSIONS]), future=fs,
                                    label=label_adherence(fs),
                                    window_end_date=series.sessions[i + WINDOW_SESSIONS - 1].start))
    return samples


def sessionize_database(db: RawDatabase) -> list[SessionSeries]:
    """One SessionSeries per user with acquisitions, in user_id order."""
    out: list[SessionSeries] = []
    for user_id, events in sorted(db.events_by_user().items()):
        first = min(e.timestamp for e in events)
        last = max(e.timestamp for e in events)
        period = round_active_period(first, last)
        out.append(build_sessions(user_id, events, period))
    return out


def windows_for_database(db: RawDatabase) -> list[WindowSample]:
    """Sessionize every user and extract all windows, merged in user_id order."""
    return [sample for series in sessionize_database(db) for sample in extract_windows(series)]


def write_windows(samples: list[WindowSample], path: str | Path) -> None:
    header = (
        ["user_id"]
        + [f"S{i}" for i in range(1, WINDOW_SESSIONS + 1)]
        + [f"FS{i}" for i in range(1, FUTURE_SESSIONS + 1)]
        + ["A", "window_end_date"]
    )
    write_csv(path, header,
              ([s.user_id, *s.values, *s.future, s.label, s.window_end_date.isoformat()] for s in samples))


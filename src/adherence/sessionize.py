"""Half-week sessionization and labeled sliding-window extraction.

Weeks split into a Monday-Thursday and a Friday-Sunday session. A session's
value is the number of distinct activities completed in it (0-4). Windows take
12 consecutive session values as features; the following 3 sessions, binarized,
decide the adherence label: high (1) iff at least 2 of them contain activity.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .artifact import write_csv
from .ingestion import Activity, Events, RawDatabase

WINDOW_SESSIONS = 12
FUTURE_SESSIONS = 3
WINDOW_SPAN = WINDOW_SESSIONS + FUTURE_SESSIONS


@dataclass
class Windows:
    """Every labeled window of a database as columns, one row per window, in user_id then time order."""

    user_id: np.ndarray  # (n,) str
    values: np.ndarray  # (n, 12) int: S1..S12
    future: np.ndarray  # (n, 3) int: FS1..FS3, binarized
    label: np.ndarray  # (n,) int: adherence A
    end_date: np.ndarray  # (n,) datetime64[D]: start date of the 12th session

    def __len__(self) -> int:
        return len(self.label)

    def __iter__(self):
        """The windows one by one, as named tuples of Python values (perfbench/run.py counts them per user)."""
        window = namedtuple("Window", [f.name for f in fields(self)])
        return map(window._make, zip(*(getattr(self, f.name).tolist() for f in fields(self))))


def round_active_period(first, last) -> tuple[np.ndarray, np.ndarray]:
    """Round raw active periods, elementwise over datetime64[D] arrays or dates, to week boundaries.

    Each first date is rounded back to its Monday and each last date back to the
    previous Sunday (a Sunday stays). A result may be empty (sunday < monday).
    Day 0 of datetime64[D], 1970-01-01, is a Thursday.
    """
    first, last = np.asarray(first, dtype="datetime64[D]"), np.asarray(last, dtype="datetime64[D]")
    if (first > last).any():
        raise ValueError(f"inverted period: {first[first > last].tolist()} > {last[first > last].tolist()}")
    return first - (first.astype(np.int64) + 3) % 7, last - (last.astype(np.int64) + 4) % 7


def session_values(events: Events) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every user's series of distinct-activity counts per session over the rounded period.

    Returns the Profiles rows of the users with events, the Monday each one's series
    starts on, the series offsets and the values: user k's series is
    values[start[k]:start[k + 1]]. Day d of a period falls in session
    2 * (d // 7) + (d % 7 >= 4), which starts on day 7 * (s // 2) + 4 * (s % 2). A session's
    value is its number of distinct activities: one np.bincount over the distinct
    (user, session, activity) triples. Events after the period are ignored; an empty
    period yields no sessions.
    """
    users, first, last = events.spans()
    monday, sunday = round_active_period(first, last)
    n_sessions = 2 * np.maximum(0, (sunday - monday).astype(np.int64) // 7 + 1)
    start = np.concatenate([[0], np.cumsum(n_sessions)])
    series = np.searchsorted(users, events.user)
    day = (events.day - monday[series]).astype(np.int64)
    session = 2 * (day // 7) + (day % 7 >= 4)
    inside = session < n_sessions[series]
    triples = np.unique((start[series] + session)[inside] * len(Activity) + events.activity[inside])
    return users, monday, start, np.bincount(triples // len(Activity), minlength=start[-1])


def label_adherence(fs) -> np.ndarray:
    """Adherence from binarized future sessions on the last axis: 0 iff their sum < 2."""
    fs = np.asarray(fs)
    if fs.shape[-1:] != (FUTURE_SESSIONS,):
        raise ValueError(f"expected {FUTURE_SESSIONS} future indicators, got shape {fs.shape}")
    if not np.isin(fs, (0, 1)).all():
        raise ValueError("future indicators must be 0 or 1")
    return (fs.sum(axis=-1) >= 2).astype(np.int64)


def extract_windows(user_id: np.ndarray, values: np.ndarray, start: np.ndarray, monday: np.ndarray) -> Windows:
    """All stride-1 windows of 15 consecutive sessions within each series, labeled, in series then time order.

    Series k is values[start[k]:start[k + 1]], of user user_id[k], and starts on monday[k];
    a series of fewer than 15 sessions gives none.
    """
    count = np.maximum(np.diff(start) - (WINDOW_SPAN - 1), 0)
    series = np.repeat(np.arange(len(count)), count)
    first = np.arange(len(series)) - np.repeat(np.cumsum(count) - count, count)  # within the series
    span = values[(start[series] + first)[:, None] + np.arange(WINDOW_SPAN)]
    future = (span[:, WINDOW_SESSIONS:] >= 1).astype(np.int64)
    twelfth = first + WINDOW_SESSIONS - 1
    return Windows(user_id=user_id[series], values=span[:, :WINDOW_SESSIONS], future=future,
                   label=label_adherence(future), end_date=monday[series] + 7 * (twelfth // 2) + 4 * (twelfth % 2))


def windows_for_database(db: RawDatabase) -> Windows:
    """Sessionize every user and extract all windows, in user_id order."""
    users, monday, start, values = session_values(db.events)
    return extract_windows(db.profiles.user_id[users], values, start, monday)


def write_windows(windows: Windows, path: str | Path) -> None:
    header = (
        ["user_id"]
        + [f"S{i}" for i in range(1, WINDOW_SESSIONS + 1)]
        + [f"FS{i}" for i in range(1, FUTURE_SESSIONS + 1)]
        + ["A", "window_end_date"]
    )
    columns = (windows.user_id, windows.values, windows.future, windows.label, windows.end_date.astype(str))
    write_csv(path, header, ([u, *s, *fs, a, d] for u, s, fs, a, d in zip(*(c.tolist() for c in columns))))

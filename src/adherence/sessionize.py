"""Half-week sessionization and labeled sliding-window extraction.

Weeks split into a Monday-Thursday and a Friday-Sunday session. A session's
value is the number of distinct activities completed in it (0-4). Windows take
12 consecutive session values as features; the following 3 sessions, binarized,
decide the adherence label: high (1) iff at least 2 of them contain activity.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifact import write_csv
from .ingestion import AcquisitionEvent, RawDatabase

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


def session_values(events: list[AcquisitionEvent], period: tuple[date, date]) -> np.ndarray:
    """Per-session distinct-activity counts over the rounded period.

    Day d of the period falls in session 2 * (d // 7) + (d % 7 >= 4), which starts on
    day 7 * (s // 2) + 4 * (s % 2); a session's value is the number of distinct
    (session, activity) pairs in it. Events outside the period are ignored. An empty
    period yields no sessions.
    """
    monday, sunday = period
    n_sessions = 2 * max(0, (sunday - monday).days // 7 + 1)
    days = {((ev.timestamp - monday).days, ev.activity) for ev in events}
    sessions = [s for s, _ in {(2 * (d // 7) + (d % 7 >= 4), activity) for d, activity in days} if 0 <= s < n_sessions]
    return np.bincount(np.array(sessions, dtype=np.int64), minlength=n_sessions)


def label_adherence(fs) -> np.ndarray:
    """Adherence from binarized future sessions on the last axis: 0 iff their sum < 2."""
    fs = np.asarray(fs)
    if fs.shape[-1:] != (FUTURE_SESSIONS,):
        raise ValueError(f"expected {FUTURE_SESSIONS} future indicators, got shape {fs.shape}")
    if not np.isin(fs, (0, 1)).all():
        raise ValueError("future indicators must be 0 or 1")
    return (fs.sum(axis=-1) >= 2).astype(np.int64)


def extract_windows(user_id: str, values: np.ndarray, monday: date) -> Windows:
    """All stride-1 windows of 15 consecutive sessions of one user's series, which starts on monday, labeled."""
    if len(values) < WINDOW_SPAN:  # sliding_window_view refuses a series shorter than the window
        span = np.empty((0, WINDOW_SPAN), dtype=np.int64)
    else:
        span = sliding_window_view(values, WINDOW_SPAN)
    future = (span[:, WINDOW_SESSIONS:] >= 1).astype(np.int64)
    twelfth = np.arange(WINDOW_SESSIONS - 1, len(values) - FUTURE_SESSIONS)
    return Windows(user_id=np.full(len(span), user_id), values=span[:, :WINDOW_SESSIONS], future=future,
                   label=label_adherence(future),
                   end_date=np.datetime64(monday, "D") + 7 * (twelfth // 2) + 4 * (twelfth % 2))


def windows_for_database(db: RawDatabase) -> Windows:
    """Sessionize every user and extract all windows, merged in user_id order."""
    # typed empty columns first: a database may have no window at all
    parts = [extract_windows("", np.empty(0, dtype=np.int64), date.min)]
    for user_id, events in sorted(db.events_by_user().items()):
        period = round_active_period(min(e.timestamp for e in events), max(e.timestamp for e in events))
        parts.append(extract_windows(user_id, session_values(events, period), period[0]))
    return Windows(*(np.concatenate([getattr(w, f.name) for w in parts]) for f in fields(Windows)))


def write_windows(windows: Windows, path: str | Path) -> None:
    header = (
        ["user_id"]
        + [f"S{i}" for i in range(1, WINDOW_SESSIONS + 1)]
        + [f"FS{i}" for i in range(1, FUTURE_SESSIONS + 1)]
        + ["A", "window_end_date"]
    )
    columns = (windows.user_id, windows.values, windows.future, windows.label, windows.end_date.astype(str))
    write_csv(path, header, ([u, *s, *fs, a, d] for u, s, fs, a, d in zip(*(c.tolist() for c in columns))))

import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from adherence import ingestion, synthgen
from adherence.features import TabularDataset
from adherence.ingestion import (
    DEMOGRAPHIC_FIELDS,
    STATIC_COLUMNS,
    STATUS_VALUES,
    Activity,
    Events,
    Profiles,
    RawDatabase,
)
from adherence.sessionize import Windows, extract_windows


SMALL_SYNTH = dict(
    seed=7,
    n_users=60,
    start_date=date(2018, 8, 1),
    end_date=date(2019, 1, 31),
)


@pytest.fixture(scope="session")
def small_db():
    """Small deterministic synthetic database, shared read-only."""
    return synthgen.generate(synthgen.SynthConfig(**SMALL_SYNTH))


@pytest.fixture(scope="session")
def small_cleansed(small_db):
    cleansed, _ = ingestion.cleanse(small_db)
    return cleansed


@pytest.fixture()
def db_dir(tmp_path, small_db):
    """The small database written to CSV files."""
    d = tmp_path / "db"
    ingestion.write_database(small_db, d)
    return d


def make_dataset(X, y, columns=None):
    X = np.asarray(X, dtype=np.float64)
    if columns is None:
        columns = [f"f{i}" for i in range(X.shape[1])]
    return TabularDataset(column_names=list(columns), X=X, y=None if y is None else np.asarray(y))


def make_windows(*rows):
    """A Windows table with one row per (user_id, values, future, label, end_date) tuple."""
    users, values, future, labels, ends = zip(*rows) if rows else ((),) * 5
    return Windows(user_id=np.array(users, dtype=str), values=np.array(values, dtype=np.int64).reshape(-1, 12),
                   future=np.array(future, dtype=np.int64).reshape(-1, 3), label=np.array(labels, dtype=np.int64),
                   end_date=np.array(ends, dtype="datetime64[D]"))


def one_series(values, user="u", monday=date(2018, 8, 13)):
    """The windows of one series of session values, which starts on monday."""
    return extract_windows(np.array([user]), np.array(values, dtype=np.int64), np.array([0, len(values)]),
                           np.array([monday], dtype="datetime64[D]"))


def make_profiles(user_id, status=None, in_demographics=None, **columns):
    """A Profiles table, one row per user_id (given in sorted order), built column by column.

    status holds each user's status text or None (default all None); in_demographics
    defaults to all True. Every other keyword names a demographic field, with one value
    or None per user, or a questionnaire instance such as spq1, with one answer tuple
    (None for an unanswered item) or None per user. Anything not given is null.
    """
    assert list(user_id) == sorted(user_id)
    n = len(user_id)
    static = np.full((n, len(STATIC_COLUMNS)), np.nan)
    for name, values in columns.items():
        start = STATIC_COLUMNS.index(name if name in DEMOGRAPHIC_FIELDS else f"{name}_q1")
        for row, value in enumerate(values):
            if value is not None:
                cells = [np.nan if v is None else v for v in np.atleast_1d(np.array(value, dtype=object))]
                static[row, start : start + len(cells)] = cells
    status = [None] * n if status is None else status
    return Profiles(user_id=np.array(user_id, dtype=str),
                    in_demographics=np.array([True] * n if in_demographics is None else in_demographics, dtype=bool),
                    status=np.array([STATUS_VALUES.index(s) if s in STATUS_VALUES else -1 for s in status],
                                    dtype=np.int8),
                    static=static)


def make_db(profiles=None, events=()):
    """A RawDatabase of a Profiles table and (user_id, Activity, date) events in any order.

    A user with events and no row in profiles gets one, as the parser gives such a
    user: not in the demographics, no status, every static value null.
    """
    profiles = make_profiles([]) if profiles is None else profiles
    ghosts = sorted({u for u, _, _ in events} - set(profiles))
    if ghosts:
        stub = make_profiles(ghosts, in_demographics=[False] * len(ghosts))
        order = np.argsort(np.concatenate([profiles.user_id, stub.user_id]))
        profiles = Profiles(*(np.concatenate([getattr(profiles, f), getattr(stub, f)])[order]
                              for f in ("user_id", "in_demographics", "status", "static")))
    users, activities, days = zip(*events) if events else ((), (), ())
    code = {a: i for i, a in enumerate(Activity)}
    return RawDatabase(profiles=profiles, events=Events.from_ordinals(
        np.searchsorted(profiles.user_id, np.array(users, dtype=str)), [code[a] for a in activities],
        [d.toordinal() for d in days]))


def random_imbalanced(rng, n_rows, n_cols, pos_fraction=0.2):
    """Random labeled dataset with the given positive fraction (at least 2 per class)."""
    n_pos = max(2, int(round(pos_fraction * n_rows)))
    n_pos = min(n_pos, n_rows - 2)
    y = np.array([1] * n_pos + [0] * (n_rows - n_pos))
    X = rng.normal(size=(n_rows, n_cols))
    X[y == 1] += 1.0  # mild separation
    return make_dataset(X, y)


def run_python(args, **env):
    """Run this interpreter on args in a fresh process that imports the
    checkout's `src/`, with env added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=120)

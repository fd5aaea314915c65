import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from adherence import ingestion, synthgen
from adherence.features import TabularDataset
from adherence.sessionize import Windows


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

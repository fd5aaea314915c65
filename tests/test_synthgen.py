from datetime import date
from pathlib import Path

import numpy as np
import pytest

from adherence import synthgen
from adherence.ingestion import (
    answer_columns,
    cleanse,
    parse_database,
    write_database,
)
from adherence.sessionize import windows_for_database
from adherence.synthgen import SynthConfig, generate


def file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))}


class TestConfigValidation:
    def test_zero_users(self):
        with pytest.raises(ValueError, match="n_users"):
            SynthConfig(n_users=0)

    def test_inverted_dates(self):
        with pytest.raises(ValueError, match="start_date"):
            SynthConfig(start_date=date(2020, 1, 1), end_date=date(2019, 1, 1))

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="dropout_hazard"):
            SynthConfig(dropout_hazard=1.5)

    def test_bad_null_rate(self):
        with pytest.raises(ValueError, match="null rate"):
            SynthConfig(null_rates={("ucla", 3): 1.2})

    def test_unknown_questionnaire(self):
        with pytest.raises(ValueError, match="unknown questionnaire"):
            SynthConfig(null_rates={("who5", 1): 0.1})

    @pytest.mark.parametrize("name, pair", [("education", (0, 9)), ("use_case", (0, 5)), ("technology", (3, 2))])
    def test_demographic_range_outside_what_ingest_accepts(self, name, pair):
        with pytest.raises(ValueError, match=name):
            SynthConfig(demographic_ranges={name: pair})

    def test_birth_year_range_is_free(self):
        assert SynthConfig(demographic_ranges={"birth_year": (1800, 2100)}).demographic_ranges["birth_year"] == (1800, 2100)

    def test_generate_rejects_invalid(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(n_users=0))


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(seed=11, n_users=40)
        write_database(generate(cfg), tmp_path / "a")
        write_database(generate(cfg), tmp_path / "b")
        assert file_bytes(tmp_path / "a") == file_bytes(tmp_path / "b")

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=1, n_users=40))
        b = generate(SynthConfig(seed=2, n_users=40))
        assert len(a.events) != len(b.events) or (a.events.day != b.events.day).any()


class TestGeneratedShape:
    def test_round_trip_parses_with_zero_rejects(self, tmp_path, small_db):
        paths = write_database(small_db, tmp_path / "db")
        db = parse_database(paths)
        assert db.rejects == []
        assert len(db.events) == len(small_db.events)

    def test_all_statuses_valid(self, small_db):
        assert set(small_db.profiles.status.tolist()) <= {0, 1, 2}  # StillUsing, Finished, Dropout
        assert small_db.profiles.in_demographics.all()

    def test_demographics_within_ranges(self, small_db):
        birth_year, education, technology, *_, use_case = small_db.profiles.static[:, :7].T
        assert ((1924 <= birth_year) & (birth_year <= 1974)).all()
        assert ((0 <= education) & (education <= 8)).all()
        assert ((1 <= technology) & (technology <= 3)).all()
        assert ((3 <= use_case) & (use_case <= 7)).all()

    def test_hazard_one_kills_almost_all_windows(self):
        # with waning disabled every user stops right after their first session
        cfg = SynthConfig(seed=3, n_users=80, dropout_hazard=1.0, waning_sessions=0)
        db = generate(cfg)
        cleansed, _ = cleanse(db)
        windows = windows_for_database(cleansed)
        assert windows.label.sum() == 0  # no high-adherence windows at all
        _, first, last = db.events.spans()
        assert ((last - first).astype(int) <= 3).all()  # each user's events inside one MonThu session

    def test_null_rate_controls_missingness(self):
        cfg = SynthConfig(
            seed=5,
            n_users=400,
            null_rates={**synthgen.DEFAULT_NULL_RATES, ("ucla", 3): 0.8},
        )
        db = generate(cfg)
        missing = np.isnan(db.profiles.static[:, answer_columns("ucla", 3)]).all(axis=1).sum()
        assert missing / 400 == pytest.approx(0.8, abs=0.05)

    def test_partial_null_rates_keep_the_other_defaults(self):
        partial = {("ucla", 3): 0.5}
        cfg = SynthConfig(seed=5, n_users=40, null_rates=partial)
        assert cfg.null_rates == {**synthgen.DEFAULT_NULL_RATES, **partial}
        a = generate(cfg)
        b = generate(SynthConfig(seed=5, n_users=40, null_rates={**synthgen.DEFAULT_NULL_RATES, **partial}))
        assert np.array_equal(a.profiles.static, b.profiles.static, equal_nan=True)
        for column in ("user", "activity", "day"):
            assert np.array_equal(getattr(a.events, column), getattr(b.events, column))

    def test_partial_demographic_ranges_keep_the_other_defaults(self):
        cfg = SynthConfig(demographic_ranges={"education": (2, 5)})
        assert cfg.demographic_ranges == {**synthgen.DEFAULT_DEMOGRAPHIC_RANGES, "education": (2, 5)}

    def test_majority_low_adherence_on_defaults(self):
        cfg = SynthConfig(seed=7, n_users=120)
        cleansed, _ = cleanse(generate(cfg))
        labels = windows_for_database(cleansed).label.tolist()
        assert len(labels) > 100
        assert sum(labels) / len(labels) < 0.5

    def test_writes_canonical_schema(self, tmp_path, small_db):
        d = tmp_path / "db"
        write_database(small_db, d)
        expected = {
            "acquisitions_braingames.csv",
            "acquisitions_fingertapping.csv",
            "acquisitions_mindfulness.csv",
            "acquisitions_physical.csv",
            "demographics.csv",
            "spq_1.csv",
            "spq_3.csv",
            "ucla_1.csv",
            "ucla_3.csv",
            "eq5d3l_1.csv",
            "eq5d3l_3.csv",
            "utaut_3.csv",
        }
        assert {p.name for p in d.glob("*.csv")} == expected

import csv
from datetime import date
from pathlib import Path

import pytest

from adherence import ingestion
from adherence.ingestion import (
    Activity,
    AcquisitionEvent,
    DatabasePaths,
    IngestError,
    RawDatabase,
    UserProfile,
    cleanse,
    parse_activity,
    parse_database,
    write_database,
    write_rejects,
)


def write_csv(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture()
def empty_db_dir(tmp_path):
    """Directory with all twelve tables present but no data rows."""
    d = tmp_path / "db"
    for stem in ingestion.ACTIVITY_FILE_STEMS.values():
        write_csv(d / f"acquisitions_{stem}.csv", [["user_id", "timestamp"]])
    write_csv(d / "demographics.csv", [["user_id", "status", *ingestion.DEMOGRAPHIC_FIELDS]])
    for qid, instances in ingestion.QUESTIONNAIRE_INSTANCES.items():
        n = ingestion.QUESTIONNAIRE_ITEMS[qid]
        for inst in instances:
            write_csv(d / f"{qid}_{inst}.csv", [["user_id", *(f"Q{i}" for i in range(1, n + 1))]])
    return d


def demo_row(user_id, status="StillUsing", birth_year=1940):
    return [user_id, status, birth_year, 3, 1, 1, 1, 2, 5]


class TestParseActivity:
    def test_exact_and_variants(self):
        assert parse_activity("BrainGames") is Activity.BRAIN_GAMES
        assert parse_activity("brain-games") is Activity.BRAIN_GAMES
        assert parse_activity("Finger_Tapping") is Activity.FINGER_TAPPING

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown activity"):
            parse_activity("Swimming")


class TestParseDatabase:
    def test_three_row_identity_parse(self, empty_db_dir):
        write_csv(
            empty_db_dir / "acquisitions_physical.csv",
            [
                ["user_id", "timestamp"],
                ["u1", "2018-08-13"],
                ["u1", "2018-08-14 09:30:00"],
                ["u2", "2018-08-17"],
            ],
        )
        write_csv(empty_db_dir / "demographics.csv", [["user_id", "status", *ingestion.DEMOGRAPHIC_FIELDS], demo_row("u1"), demo_row("u2")])
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert len(db.events) == 3
        assert db.rejects == []
        assert db.events[0] == AcquisitionEvent("u1", Activity.PHYSICAL, date(2018, 8, 13))
        assert db.events[1].timestamp == date(2018, 8, 14)  # truncated to day

    def test_unknown_activity_row_rejected(self, empty_db_dir):
        write_csv(
            empty_db_dir / "acquisitions_physical.csv",
            [
                ["user_id", "timestamp", "activity"],
                ["u1", "2018-08-13", "Physical"],
                ["u1", "2018-08-14", "Swimming"],
            ],
        )
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert len(db.events) == 1
        assert len(db.rejects) == 1
        assert db.rejects[0].reason == "unknown activity"
        assert db.rejects[0].row == 2

    def test_empty_file_with_header(self, empty_db_dir):
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert db.events == []
        assert db.rejects == []

    def test_missing_file(self, empty_db_dir):
        (empty_db_dir / "acquisitions_physical.csv").unlink()
        with pytest.raises(IngestError, match="missing file"):
            parse_database(DatabasePaths.from_dir(empty_db_dir))

    def test_missing_required_column(self, empty_db_dir):
        write_csv(empty_db_dir / "acquisitions_physical.csv", [["user_id", "when"], ["u1", "2018-08-13"]])
        with pytest.raises(IngestError, match="missing required column"):
            parse_database(DatabasePaths.from_dir(empty_db_dir))

    def test_extra_column_warns_and_is_ignored(self, empty_db_dir):
        write_csv(
            empty_db_dir / "acquisitions_physical.csv",
            [["user_id", "timestamp", "device"], ["u1", "2018-08-13", "tablet"]],
        )
        with pytest.warns(UserWarning, match="extra column"):
            db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert len(db.events) == 1

    def test_unparseable_timestamp_rejected(self, empty_db_dir):
        write_csv(
            empty_db_dir / "acquisitions_mindfulness.csv",
            [["user_id", "timestamp"], ["u1", "not-a-date"], ["u1", "2018-09-01"]],
        )
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert [r.reason for r in db.rejects] == ["unparseable timestamp"]
        assert len(db.events) == 1

    def test_unknown_questionnaire_column_errors(self, empty_db_dir):
        write_csv(
            empty_db_dir / "spq_1.csv",
            [["user_id", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"], ["u1", 1, 2, 3, 4, 5, 1, 2]],
        )
        with pytest.raises(IngestError, match="unknown column"):
            parse_database(DatabasePaths.from_dir(empty_db_dir))

    def test_out_of_range_ordinal_rejected(self, empty_db_dir):
        row = demo_row("u1")
        row[3] = 99  # education outside 0..8
        write_csv(empty_db_dir / "demographics.csv", [["user_id", "status", *ingestion.DEMOGRAPHIC_FIELDS], row])
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert any("out of range" in r.reason for r in db.rejects)
        assert "u1" not in db.profiles

    def test_merged_events_sorted(self, empty_db_dir):
        write_csv(
            empty_db_dir / "acquisitions_physical.csv",
            [["user_id", "timestamp"], ["u2", "2018-08-13"], ["u1", "2018-09-01"]],
        )
        write_csv(
            empty_db_dir / "acquisitions_braingames.csv",
            [["user_id", "timestamp"], ["u1", "2018-08-20"]],
        )
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert [(e.user_id, e.timestamp) for e in db.events] == [
            ("u1", date(2018, 8, 20)),
            ("u1", date(2018, 9, 1)),
            ("u2", date(2018, 8, 13)),
        ]


def make_db(users):
    """users: list of (user_id, status, [event dates])."""
    events = []
    profiles = {}
    for user_id, status, days in users:
        profiles[user_id] = UserProfile(user_id=user_id, status=status, birth_year=1940)
        for d in days:
            events.append(AcquisitionEvent(user_id, Activity.PHYSICAL, d))
    events.sort(key=lambda e: (e.user_id, e.timestamp))
    return RawDatabase(events=events, profiles=profiles)


class TestCleanse:
    def test_invalid_status_removed(self):
        db = make_db([("u1", "Unknown", [date(2018, 8, 1), date(2018, 12, 1)])])
        _, report = cleanse(db)
        assert [(r.user_id, r.reason) for r in report.removed] == [("u1", "invalid_status")]

    def test_null_status_removed(self):
        db = make_db([("u1", None, [date(2018, 8, 1), date(2018, 12, 1)])])
        _, report = cleanse(db)
        assert report.removed[0].reason == "invalid_status"

    def test_no_acquisitions_removed(self):
        db = make_db([("u1", "Finished", [])])
        _, report = cleanse(db)
        assert report.removed[0].reason == "no_acquisitions"

    def test_span_41_days_removed(self):
        # events on day 0 and day 41: span 41 < 42
        db = make_db([("u1", "Dropout", [date(2018, 8, 1), date(2018, 9, 11)])])
        assert (date(2018, 9, 11) - date(2018, 8, 1)).days == 41
        _, report = cleanse(db)
        assert report.removed[0].reason == "short_span"

    def test_span_42_days_retained(self):
        db = make_db([("u1", "Dropout", [date(2018, 8, 1), date(2018, 9, 12)])])
        _, report = cleanse(db)
        assert report.retained == ["u1"]

    def test_long_span_valid_status_retained(self):
        db = make_db([("u1", "StillUsing", [date(2018, 8, 1), date(2018, 11, 9)])])
        cleansed, report = cleanse(db)
        assert report.retained == ["u1"]
        assert len(cleansed.events) == 2

    def test_event_user_without_profile_removed(self):
        db = make_db([("u1", "Finished", [date(2018, 8, 1), date(2018, 12, 1)])])
        db.events.append(AcquisitionEvent("ghost", Activity.PHYSICAL, date(2018, 8, 2)))
        cleansed, report = cleanse(db)
        assert ("ghost", "missing_profile") in [(r.user_id, r.reason) for r in report.removed]
        assert all(e.user_id != "ghost" for e in cleansed.events)

    def test_counts_partition(self, small_db):
        _, report = cleanse(small_db)
        assert report.n_retained + report.n_removed == report.n_input_users

    def test_idempotent(self, small_db):
        once, report1 = cleanse(small_db)
        twice, report2 = cleanse(once)
        assert twice.profiles.keys() == once.profiles.keys()
        assert twice.events == once.events
        assert report2.n_removed == 0

    def test_retained_users_satisfy_rules(self, small_db):
        cleansed, _ = cleanse(small_db)
        by_user = cleansed.events_by_user()
        for user_id, profile in cleansed.profiles.items():
            events = by_user[user_id]
            assert len(events) >= 1
            assert profile.status in ingestion.STATUS_VALUES
            assert ingestion.user_span_days(events) >= 42


class TestWriters:
    def test_round_trip(self, tmp_path, small_db):
        paths = write_database(small_db, tmp_path / "db")
        reparsed = parse_database(paths)
        assert reparsed.rejects == []
        assert reparsed.events == small_db.events
        assert reparsed.profiles.keys() == small_db.profiles.keys()
        for uid in small_db.profiles:
            a, b = small_db.profiles[uid], reparsed.profiles[uid]
            assert (a.status, a.birth_year, a.answers) == (b.status, b.birth_year, b.answers)

    def test_rejects_report(self, tmp_path):
        rejects = [ingestion.RejectedRow("demographics", 3, "bad row")]
        out = tmp_path / "rejects.csv"
        write_rejects(rejects, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "table,row,reason"
        assert lines[1] == "demographics,3,bad row"

    def test_bom_before_header_is_ignored(self, tmp_path, db_dir):
        def report_bytes(name):
            _, report = cleanse(parse_database(DatabasePaths.from_dir(db_dir)))
            ingestion.write_cleanse_report(report, tmp_path / name)
            return (tmp_path / name).read_bytes()

        plain = report_bytes("plain.csv")
        demo = db_dir / "demographics.csv"
        demo.write_bytes(b"\xef\xbb\xbf" + demo.read_bytes())
        assert report_bytes("bom.csv") == plain

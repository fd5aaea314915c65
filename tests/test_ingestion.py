import csv
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
from adherence import ingestion, synthgen
from adherence.ingestion import (
    Activity,
    DatabasePaths,
    IngestError,
    cleanse,
    parse_activity,
    parse_database,
    write_database,
    write_rejects,
)
from adherence.sessionize import windows_for_database

from conftest import make_db, make_profiles


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


def event_rows(db):
    """The database's events as (user_id, Activity, date) tuples, in stored order."""
    return list(zip(db.profiles.user_id[db.events.user].tolist(), [list(Activity)[a] for a in db.events.activity],
                    db.events.day.tolist()))


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
        assert event_rows(db)[0] == ("u1", Activity.PHYSICAL, date(2018, 8, 13))
        assert event_rows(db)[1][2] == date(2018, 8, 14)  # truncated to day

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
        assert len(db.events) == len(db.profiles) == 0
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

    @pytest.mark.parametrize("table, row", [
        ("acquisitions_physical", ["u1", "2018-08-13"]),
        ("demographics", demo_row("u1")),
        ("spq_1", ["u1", 1, 2, 3, 4, 5, 1]),
    ])
    def test_extra_column_warns_once_in_each_kind_of_table(self, empty_db_dir, table, row):
        """The warning of each kind of table is the record parser's, word for word, and comes once."""
        path = empty_db_dir / f"{table}.csv"
        header = next(csv.reader([path.read_text(encoding="utf-8")]))
        write_csv(path, [[*header, "note", "device"], [*row, "x", "tablet"]])
        caught = {}
        for name, parse in (("columns", parse_database), ("records", reference.parse_database)):
            with warnings.catch_warnings(record=True) as caught[name]:
                warnings.simplefilter("always")
                parse(DatabasePaths.from_dir(empty_db_dir))
        messages = [str(w.message) for w in caught["columns"]]
        assert messages == [f"{table}: ignoring extra column(s) ['note', 'device']"]
        assert messages == [str(w.message) for w in caught["records"]]

    def test_unparseable_timestamp_rejected(self, empty_db_dir):
        write_csv(
            empty_db_dir / "acquisitions_mindfulness.csv",
            [["user_id", "timestamp"], ["u1", "not-a-date"], ["u1", "2018-09-01"]],
        )
        db = parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert [r.reason for r in db.rejects] == ["unparseable timestamp"]
        assert len(db.events) == 1

    def test_unknown_questionnaire_column_errors(self, empty_db_dir):
        """Q7 is a schema violation, raised before the extra column "note" is warned about."""
        write_csv(
            empty_db_dir / "spq_1.csv",
            [["user_id", "note", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"], ["u1", "x", 1, 2, 3, 4, 5, 1, 2]],
        )
        with warnings.catch_warnings(record=True) as caught, pytest.raises(IngestError, match=r"\['Q7'\]"):
            warnings.simplefilter("always")
            parse_database(DatabasePaths.from_dir(empty_db_dir))
        assert caught == []

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
        assert [(u, d) for u, _, d in event_rows(db)] == [
            ("u1", date(2018, 8, 20)),
            ("u1", date(2018, 9, 1)),
            ("u2", date(2018, 8, 13)),
        ]
        assert db.profiles.in_demographics.tolist() == [False, False]  # no demographics row for either

    def test_nul_in_user_id_rejected(self, tmp_path):
        """numpy text arrays drop trailing NULs, so "u00002\\0" would merge with u00002."""
        paths = write_database(synthgen.generate(synthgen.SynthConfig(seed=7, n_users=30)), tmp_path / "db")
        twins = 0
        for path in tmp_path.glob("db/*.csv"):
            rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
            copies = [["u00002\0", *row[1:]] for row in rows if row[0] == "u00002"]
            write_csv(path, rows + copies)
            twins += len(copies)
        db = parse_database(paths)
        assert twins > 12 and [r.reason for r in db.rejects] == ["NUL in user_id"] * twins
        assert "u00002" in db.profiles and len(db.profiles) == 30
        _, report = cleanse(db)
        assert "u00002" in report.retained and report.n_input_users == 30

    def test_long_user_id_rejected(self, tmp_path):
        """A user_id past MAX_USER_ID characters is one reject, so it cannot widen every user_id array."""
        paths = write_database(synthgen.generate(synthgen.SynthConfig(seed=7, n_users=30)), tmp_path / "db")
        before = parse_database(paths)
        table = paths.acquisitions[Activity.PHYSICAL]
        rows = list(csv.reader(table.read_text(encoding="utf-8").splitlines()))
        write_csv(table, rows + [["u" * 10_000, rows[1][1]]])
        db = parse_database(paths)
        assert db.rejects == [*before.rejects, ingestion.RejectedRow(table.stem, len(rows), "user_id too long")]
        for old, new in ((before.profiles, db.profiles), (before.events, db.events)):
            for name, column in vars(old).items():
                assert (column.dtype, column.tobytes()) == (getattr(new, name).dtype, getattr(new, name).tobytes())
        write_csv(table, rows + [["v" * ingestion.MAX_USER_ID, rows[1][1]]])
        assert "v" * ingestion.MAX_USER_ID in parse_database(paths).profiles


def users_db(users):
    """users: list of (user_id, status, [event dates]); each born in 1940, with Physical events."""
    ids = [u for u, _, _ in users]
    profiles = make_profiles(ids, status=[s for _, s, _ in users], birth_year=[1940] * len(ids))
    return make_db(profiles, [(u, Activity.PHYSICAL, d) for u, _, days in users for d in days])


class TestCleanse:
    def test_invalid_status_removed(self):
        db = users_db([("u1", "Unknown", [date(2018, 8, 1), date(2018, 12, 1)])])
        _, report = cleanse(db)
        assert [(r.user_id, r.reason) for r in report.removed] == [("u1", "invalid_status")]

    def test_null_status_removed(self):
        db = users_db([("u1", None, [date(2018, 8, 1), date(2018, 12, 1)])])
        _, report = cleanse(db)
        assert report.removed[0].reason == "invalid_status"

    def test_no_acquisitions_removed(self):
        db = users_db([("u1", "Finished", [])])
        _, report = cleanse(db)
        assert report.removed[0].reason == "no_acquisitions"

    def test_span_41_days_removed(self):
        # events on day 0 and day 41: span 41 < 42
        db = users_db([("u1", "Dropout", [date(2018, 8, 1), date(2018, 9, 11)])])
        assert (date(2018, 9, 11) - date(2018, 8, 1)).days == 41
        _, report = cleanse(db)
        assert report.removed[0].reason == "short_span"

    def test_span_42_days_retained(self):
        db = users_db([("u1", "Dropout", [date(2018, 8, 1), date(2018, 9, 12)])])
        _, report = cleanse(db)
        assert report.retained == ["u1"]

    def test_long_span_valid_status_retained(self):
        db = users_db([("u1", "StillUsing", [date(2018, 8, 1), date(2018, 11, 9)])])
        cleansed, report = cleanse(db)
        assert report.retained == ["u1"]
        assert len(cleansed.events) == 2

    def test_event_user_without_profile_removed(self):
        profiles = make_profiles(["u1"], status=["Finished"], birth_year=[1940])
        days = [date(2018, 8, 1), date(2018, 12, 1)]
        events = [("u1", Activity.PHYSICAL, d) for d in days] + [("ghost", Activity.PHYSICAL, date(2018, 8, 2))]
        db = make_db(profiles, events)
        cleansed, report = cleanse(db)
        assert ("ghost", "missing_profile") in [(r.user_id, r.reason) for r in report.removed]
        assert all(u != "ghost" for u, _, _ in event_rows(cleansed))

    def test_removed_user_id_does_not_widen_retained_ones(self):
        """A numpy text array is as wide as its longest entry: windows would take a removed ghost's width."""
        profiles = make_profiles(["u1"], status=["Finished"], birth_year=[1940])
        days = [date(2018, 8, 1), date(2018, 12, 1)]
        db = make_db(profiles, [("u1", Activity.PHYSICAL, d) for d in days] + [("x" * 5000, Activity.PHYSICAL, days[0])])
        cleansed, report = cleanse(db)
        assert report.retained == ["u1"] and db.profiles.user_id.dtype == np.dtype("<U5000")
        assert cleansed.profiles.user_id.dtype == np.dtype("<U2")

    def test_counts_partition(self, small_db):
        _, report = cleanse(small_db)
        assert report.n_retained + report.n_removed == report.n_input_users

    def test_idempotent(self, small_db):
        once, report1 = cleanse(small_db)
        twice, report2 = cleanse(once)
        assert list(twice.profiles) == list(once.profiles)
        assert event_rows(twice) == event_rows(once)
        assert report2.n_removed == 0

    def test_retained_users_satisfy_rules(self, small_db):
        cleansed, _ = cleanse(small_db)
        users, first, last = cleansed.events.spans()
        assert users.tolist() == list(range(len(cleansed.profiles)))  # every user has an event
        assert cleansed.profiles.in_demographics.all()
        assert ((0 <= cleansed.profiles.status) & (cleansed.profiles.status < len(ingestion.STATUS_VALUES))).all()
        assert ((last - first).astype(int) >= 42).all()


class TestWriters:
    def test_round_trip(self, tmp_path, small_db):
        paths = write_database(small_db, tmp_path / "db")
        reparsed = parse_database(paths)
        assert reparsed.rejects == []
        assert event_rows(reparsed) == event_rows(small_db)
        for name in ("user_id", "in_demographics", "status", "static"):
            np.testing.assert_array_equal(getattr(reparsed.profiles, name), getattr(small_db.profiles, name))

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


# The user ids of events and answers. " u3 " is u3 once stripped; u4 and "u1\0" never
# have a demographics row of their own, so they end up ghosts or questionnaire-only
# stubs, and a NUL in a user_id or a user_id past MAX_USER_ID is always a reject.
POOL = ["u1", "u2", "u3", " u3 ", "u4", "u1\0", "u" * (ingestion.MAX_USER_ID + 1)]


def cell(*choices):
    """One of choices; a choice listed twice is drawn twice as often."""
    return st.sampled_from(choices)


@st.composite
def timestamp(draw):
    """A day within 150 days, mostly as a date, else as a full timestamp or a bad or empty cell.

    Days 0, 1, 41 and 42 come up often, so events share a day and spans sit at the 42-day bound.
    """
    offset = draw(st.one_of(st.integers(0, 150), st.sampled_from([0, 1, 41, 42])))
    d = (date(2018, 8, 1) + timedelta(days=offset)).isoformat()
    return draw(cell(d, d, d, d, f"{d} 09:30:00", "not-a-date", ""))


@st.composite
def table_rows(draw, row, min_size=0, max_size=6):
    """Rows drawn from row, a few of them blank, a few longer than the header by a cell, a few repeated."""
    rows = draw(st.lists(row, min_size=min_size, max_size=max_size))
    rows = [[] if draw(st.integers(0, 9)) == 0 else r for r in rows]
    rows = [[*r, draw(cell("note", " "))] if draw(st.integers(0, 5)) == 0 else r for r in rows]
    return rows + (draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else [])


def demographic(users):
    """A demographics row of one of users: mostly valid, sometimes a bad status or a bad field."""
    status = cell("StillUsing", "Finished", "Dropout", "Dropout", "", "Unknown")
    birth_year = cell("1940", "1955", "1962", "1962", "", "x", "9" * 400)
    education = cell("3", "0", "8", "3", "", "99")
    technology = cell("1", "2", "1", "2", "1", "1.5")
    use_case = cell("5", "3", "5", "", "2")
    return st.tuples(cell(*users), status, birth_year, education, technology, use_case).map(
        lambda t: [*t[:5], 1, 2, 1, t[5]])


@st.composite
def malformed_database(draw):
    """The rows of all twelve tables of a small database, with a few defects in each table."""
    tables = {}
    for stem in ingestion.ACTIVITY_FILE_STEMS.values():
        columns = [cell(*POOL), timestamp()]
        if draw(st.booleans()):  # some tables name each row's activity
            columns.append(cell("Physical", "brain-games", "Mindfulness", "Swimming"))
        header = ["user_id", "timestamp", "activity"][: len(columns)]
        tables[f"acquisitions_{stem}"] = [header, *draw(table_rows(st.tuples(*columns).map(list), 2, 16))]
    rows = [draw(demographic([u])) for u in ("u1", "u2", "u3", "u5") if draw(st.integers(0, 5))]  # u5: no events
    rows += draw(table_rows(demographic(["u1", "u2", "u3", " u3 ", "u1\0"]), max_size=3))
    rows.append(draw(cell([], ["u2"], ["", "Finished"])))  # maybe a short row
    tables["demographics"] = [["user_id", "status", *ingestion.DEMOGRAPHIC_FIELDS], *draw(st.permutations(rows))]
    for qid, instances in ingestion.QUESTIONNAIRE_INSTANCES.items():
        n = ingestion.QUESTIONNAIRE_ITEMS[qid]
        answers = st.one_of(st.lists(cell("", "1", "2", "3", "1", "2", "x", "9" * 400), min_size=n, max_size=n),
                            st.just([""] * n))  # a non-response
        response = st.tuples(cell(*POOL), answers).map(lambda t: [t[0], *t[1]])
        for instance in instances:
            tables[f"{qid}_{instance}"] = [["user_id", *(f"Q{i}" for i in range(1, n + 1))],
                                           *draw(table_rows(response, max_size=4))]
    return tables


class TestRecordOracle:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(malformed_database())
    def test_matches_record_reference(self, tables):
        """Parse, cleanse and sessionize equal the record model's: columns, rejects, cleanse reports, windows."""
        with tempfile.TemporaryDirectory() as tmp:
            for name, rows in tables.items():
                write_csv(Path(tmp) / f"{name}.csv", rows)
            paths = DatabasePaths.from_dir(tmp)
            db, ref = parse_database(paths), reference.parse_database(paths)
        reference.assert_same_database(db, ref)
        cleansed, report = cleanse(db)
        ref_cleansed, ref_report = reference.cleanse(ref)
        assert report == ref_report
        reference.assert_same_database(cleansed, ref_cleansed)
        for columns, records in ((db, ref), (cleansed, ref_cleansed)):
            reference.assert_same_windows(windows_for_database(columns),
                                          reference.reference_database_windows(records.events))

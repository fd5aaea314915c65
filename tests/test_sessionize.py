import itertools
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from adherence.ingestion import Activity, AcquisitionEvent
from adherence.sessionize import (
    Session,
    SessionKind,
    SessionSeries,
    build_sessions,
    extract_windows,
    label_adherence,
    round_active_period,
    sessionize_database,
    windows_for_database,
)


def ev(user, activity, d):
    return AcquisitionEvent(user, activity, d)


class TestRoundActivePeriod:
    def test_wednesday_rounds_back_to_monday(self):
        monday, _ = round_active_period(date(2018, 8, 15), date(2018, 12, 1))
        assert monday == date(2018, 8, 13)

    def test_monday_is_fixed_point(self):
        monday, _ = round_active_period(date(2018, 8, 13), date(2018, 12, 1))
        assert monday == date(2018, 8, 13)

    def test_saturday_rounds_back_to_previous_sunday(self):
        _, sunday = round_active_period(date(2018, 8, 13), date(2021, 3, 20))
        assert sunday == date(2021, 3, 14)

    def test_sunday_is_fixed_point(self):
        _, sunday = round_active_period(date(2018, 8, 13), date(2021, 3, 14))
        assert sunday == date(2021, 3, 14)

    def test_inverted_dates_error(self):
        with pytest.raises(ValueError, match="inverted"):
            round_active_period(date(2020, 1, 2), date(2020, 1, 1))

    def test_same_week_yields_empty_period(self):
        # Wed..Thu of one week: previous Sunday precedes that week's Monday.
        monday, sunday = round_active_period(date(2018, 8, 15), date(2018, 8, 16))
        assert sunday < monday
        series = build_sessions("u", [], (monday, sunday))
        assert series.sessions == []

    @given(st.dates(min_value=date(2015, 1, 1), max_value=date(2025, 1, 1)), st.integers(0, 400))
    def test_boundaries_are_calendar_correct(self, first, span):
        last = first + timedelta(days=span)
        monday, sunday = round_active_period(first, last)
        assert monday.weekday() == 0 and monday <= first and first - monday <= timedelta(days=6)
        assert sunday.weekday() == 6 and sunday <= last and last - sunday <= timedelta(days=6)


class TestBuildSessions:
    def test_distinct_activities_counted_once(self):
        # BrainGames Mon and Wed plus Physical Tue: MonThu value 2
        events = [
            ev("u", Activity.BRAIN_GAMES, date(2018, 8, 13)),
            ev("u", Activity.BRAIN_GAMES, date(2018, 8, 15)),
            ev("u", Activity.PHYSICAL, date(2018, 8, 14)),
        ]
        series = build_sessions("u", events, (date(2018, 8, 13), date(2018, 8, 19)))
        assert [s.value for s in series.sessions] == [2, 0]

    def test_empty_week_both_sessions_zero(self):
        series = build_sessions("u", [], (date(2018, 8, 13), date(2018, 8, 26)))
        assert [s.value for s in series.sessions] == [0, 0, 0, 0]

    def test_all_four_on_friday(self):
        events = [ev("u", a, date(2018, 8, 17)) for a in Activity]
        series = build_sessions("u", events, (date(2018, 8, 13), date(2018, 8, 19)))
        assert [s.value for s in series.sessions] == [0, 4]

    def test_events_outside_period_ignored(self):
        events = [ev("u", Activity.PHYSICAL, date(2018, 8, 10))]
        series = build_sessions("u", events, (date(2018, 8, 13), date(2018, 8, 19)))
        assert [s.value for s in series.sessions] == [0, 0]

    def test_sessions_alternate_and_dates_contiguous(self):
        series = build_sessions("u", [], (date(2018, 8, 13), date(2018, 9, 9)))
        kinds = [s.kind for s in series.sessions]
        assert kinds == [SessionKind.MON_THU, SessionKind.FRI_SUN] * 4
        for a, b in zip(series.sessions, series.sessions[1:]):
            gap = (b.start - a.start).days
            assert gap == (4 if a.kind is SessionKind.MON_THU else 3)


def series_of(values, user="u"):
    sessions = []
    start = date(2018, 8, 13)
    for i, v in enumerate(values):
        if i % 2 == 0:
            sessions.append(Session(start, SessionKind.MON_THU, v))
        else:
            sessions.append(Session(start + timedelta(days=4), SessionKind.FRI_SUN, v))
            start += timedelta(days=7)
    return SessionSeries(user_id=user, sessions=sessions)


class TestLabelAdherence:
    def test_truth_table(self):
        # Exhaustive: exactly the vectors with sum >= 2 are high adherence.
        ones = 0
        for fs in itertools.product((0, 1), repeat=3):
            expected = 1 if sum(fs) >= 2 else 0
            assert label_adherence(fs) == expected
            ones += label_adherence(fs)
        assert ones == 4  # 4 of the 8 combinations map to each class

    def test_examples(self):
        assert label_adherence((0, 0, 1)) == 0
        assert label_adherence((1, 1, 0)) == 1
        assert label_adherence((1, 1, 1)) == 1

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            label_adherence((0, 2, 0))
        with pytest.raises(ValueError):
            label_adherence((1, 1))


class TestExtractWindows:
    def test_fifteen_sessions_one_sample(self):
        assert len(extract_windows(series_of([1] * 15))) == 1

    def test_fourteen_sessions_no_sample(self):
        assert extract_windows(series_of([1] * 14)) == []

    def test_future_binarized_before_sum(self):
        # raw futures (0,2,0) binarize to (0,1,0): one active session -> low
        samples = extract_windows(series_of([1] * 12 + [0, 2, 0]))
        assert samples[0].future == (0, 1, 0)
        assert samples[0].label == 0

    def test_window_end_date_is_twelfth_session_start(self):
        series = series_of(list(range(15)))
        sample = extract_windows(series)[0]
        assert sample.window_end_date == series.sessions[11].start

    def test_window_count_formula(self):
        for n in (0, 5, 14, 15, 16, 29, 30):
            assert len(extract_windows(series_of([1] * n))) == max(0, n - 14)

    @given(st.lists(st.integers(0, 4), max_size=30))
    def test_matches_naive_enumeration(self, values):
        samples = extract_windows(series_of(values))
        naive = []
        for i in range(len(values)):
            chunk = values[i : i + 15]
            if len(chunk) < 15:
                break
            fs = tuple(1 if v >= 1 else 0 for v in chunk[12:])
            naive.append((tuple(chunk[:12]), fs, 0 if sum(fs) < 2 else 1))
        assert [(s.values, s.future, s.label) for s in samples] == naive


class TestDatabaseWindows:
    def test_session_values_bounded(self, small_cleansed):
        for series in sessionize_database(small_cleansed):
            assert all(0 <= s.value <= 4 for s in series.sessions)

    def test_windows_merged_in_user_order(self, small_cleansed):
        samples = windows_for_database(small_cleansed)
        users = [s.user_id for s in samples]
        assert users == sorted(users)

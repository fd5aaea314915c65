import itertools
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from adherence.ingestion import Activity
from adherence.sessionize import (
    label_adherence,
    round_active_period,
    session_values,
    windows_for_database,
)
from reference import AcquisitionEvent, assert_same_windows, reference_database_windows

from conftest import make_db, one_series


def ev(user, activity, d):
    return AcquisitionEvent(user, activity, d)


def events_db(events):
    """A database of these event records alone: every user is a ghost."""
    return make_db(events=[(e.user_id, e.activity, e.timestamp) for e in events])


def series(events):
    """The session values of each user of the events, as lists."""
    _, _, start, values = session_values(events_db(events).events)
    return [values[a:b].tolist() for a, b in zip(start, start[1:])]


@st.composite
def event_sets(draw):
    """Events of 1-4 users: a first day on any weekday, a span of 0-150 days (many under 15 sessions),
    repeated (day, activity) events, and sometimes all four activities on one day."""
    events = []
    for u in range(draw(st.integers(1, 4))):
        first = date(2018, 8, 13) + timedelta(days=draw(st.integers(0, 6)))
        span = draw(st.integers(0, 150))
        days = [0, span, *draw(st.lists(st.integers(0, span), max_size=40))]
        user = [ev(f"u{u}", draw(st.sampled_from(list(Activity))), first + timedelta(days=d)) for d in days]
        for _ in range(draw(st.integers(0, 2))):
            day = first + timedelta(days=draw(st.integers(0, span)))
            user += [ev(f"u{u}", a, day) for a in Activity]
        events += user + draw(st.lists(st.sampled_from(user), max_size=5))  # exact repeats
    return draw(st.permutations(events))


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
        assert series([ev("u", Activity.PHYSICAL, date(2018, 8, 15)), ev("u", Activity.PHYSICAL, date(2018, 8, 16))]) \
            == [[]]

    @given(st.dates(min_value=date(1965, 1, 1), max_value=date(2025, 1, 1)), st.integers(0, 400))
    def test_boundaries_are_calendar_correct(self, first, span):
        last = first + timedelta(days=span)
        monday, sunday = (d.item() for d in round_active_period(first, last))
        assert monday.weekday() == 0 and monday <= first and first - monday <= timedelta(days=6)
        assert sunday.weekday() == 6 and sunday <= last and last - sunday <= timedelta(days=6)


# The week of Monday 2018-08-13 to Sunday 2018-08-19, closed by an event on its Sunday.
SUNDAY = ev("u", Activity.MINDFULNESS, date(2018, 8, 19))


class TestBuildSessions:
    def test_distinct_activities_counted_once(self):
        # BrainGames Mon and Wed plus Physical Tue: MonThu value 2
        events = [
            ev("u", Activity.BRAIN_GAMES, date(2018, 8, 13)),
            ev("u", Activity.BRAIN_GAMES, date(2018, 8, 15)),
            ev("u", Activity.PHYSICAL, date(2018, 8, 14)),
        ]
        assert series(events + [SUNDAY]) == [[2, 1]]

    def test_empty_week_both_sessions_zero(self):
        # a quiet week between two active ones
        events = [ev("u", Activity.PHYSICAL, date(2018, 8, 13)), ev("u", Activity.PHYSICAL, date(2018, 9, 2))]
        assert series(events) == [[1, 0, 0, 0, 0, 1]]

    def test_all_four_on_friday(self):
        events = [ev("u", a, date(2018, 8, 17)) for a in Activity]
        assert series(events + [ev("u", Activity.PHYSICAL, date(2018, 8, 13)), SUNDAY]) == [[1, 4]]

    def test_events_outside_period_ignored(self):
        # the last day, a Wednesday, rounds back to the Sunday before it, so its week is left out
        events = [ev("u", Activity.PHYSICAL, date(2018, 8, 13)), ev("u", Activity.PHYSICAL, date(2018, 8, 22))]
        assert series(events) == [[1, 0]]

    def test_users_get_their_own_series(self):
        events = [ev("v", Activity.PHYSICAL, date(2018, 8, 13)), SUNDAY, ev("v", Activity.PHYSICAL, date(2018, 8, 26))]
        users, monday, _, _ = session_values(events_db(events).events)
        assert series(events) == [[0, 1], [1, 0, 0, 1]]
        assert users.tolist() == [0, 1] and monday.tolist() == [date(2018, 8, 13)] * 2

    def test_sessions_alternate_and_dates_contiguous(self):
        # one user active Monday 2018-08-13 to Sunday 2018-12-30: 40 sessions, 26 windows, whose
        # end dates are the starts of sessions 11..36
        events = [ev("u", Activity.PHYSICAL, date(2018, 8, 13)), ev("u", Activity.PHYSICAL, date(2018, 12, 30))]
        ends = windows_for_database(events_db(events)).end_date.tolist()
        assert len(ends) == 26 and ends[0] == date(2018, 9, 21)
        assert [d.weekday() for d in ends] == [4, 0] * 13
        for a, b in zip(ends, ends[1:]):
            assert (b - a).days == (4 if a.weekday() == 0 else 3)


class TestLabelAdherence:
    def test_truth_table(self):
        # Exhaustive: exactly the vectors with sum >= 2 are high adherence.
        ones = 0
        for fs in itertools.product((0, 1), repeat=3):
            expected = 1 if sum(fs) >= 2 else 0
            assert label_adherence(fs) == expected
            ones += label_adherence(fs)
        assert ones == 4  # 4 of the 8 combinations map to each class
        table = list(itertools.product((0, 1), repeat=3))
        assert label_adherence(table).tolist() == [int(sum(fs) >= 2) for fs in table]  # along the last axis

    def test_examples(self):
        assert label_adherence((0, 0, 1)) == 0
        assert label_adherence((1, 1, 0)) == 1
        assert label_adherence((1, 1, 1)) == 1

    def test_out_of_domain(self):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            label_adherence((0, 2, 0))
        with pytest.raises(ValueError, match="expected 3 future indicators"):
            label_adherence((1, 1))


class TestExtractWindows:
    def test_fifteen_sessions_one_sample(self):
        assert len(one_series([1] * 15)) == 1

    def test_fourteen_sessions_no_sample(self):
        w = one_series([1] * 14)
        assert len(w) == 0
        assert w.values.shape == (0, 12) and w.future.shape == (0, 3) and w.end_date.shape == (0,)

    def test_future_binarized_before_sum(self):
        # raw futures (0,2,0) binarize to (0,1,0): one active session -> low
        w = one_series([1] * 12 + [0, 2, 0])
        assert w.future[0].tolist() == [0, 1, 0]
        assert w.label[0] == 0

    def test_window_end_date_is_twelfth_session_start(self):
        # session 11 (the 12th) is the Friday-Sunday half of week 5
        w = one_series(list(range(15)))
        assert w.end_date.tolist() == [date(2018, 8, 13) + timedelta(days=7 * 5 + 4)]

    def test_window_count_formula(self):
        for n in (0, 5, 14, 15, 16, 29, 30):
            assert len(one_series([1] * n)) == max(0, n - 14)

    @given(st.lists(st.integers(0, 4), max_size=30))
    def test_matches_naive_enumeration(self, values):
        w = one_series(values)
        naive = []
        for i in range(len(values)):
            chunk = values[i : i + 15]
            if len(chunk) < 15:
                break
            fs = tuple(1 if v >= 1 else 0 for v in chunk[12:])
            naive.append((tuple(chunk[:12]), fs, 0 if sum(fs) < 2 else 1))
        assert list(zip(map(tuple, w.values.tolist()), map(tuple, w.future.tolist()), w.label.tolist())) == naive


class TestDatabaseWindows:
    def test_session_values_bounded(self, small_cleansed):
        users, _, start, values = session_values(small_cleansed.events)
        assert users.tolist() == list(range(len(small_cleansed.profiles)))
        assert len(values) == start[-1] and ((0 <= values) & (values <= 4)).all()

    def test_windows_merged_in_user_order(self, small_cleansed):
        users = windows_for_database(small_cleansed).user_id.tolist()
        assert users == sorted(users)

    def test_iterates_rows_as_python_values(self):
        w = one_series([1] * 12 + [0, 2, 0, 3])
        rows = list(w)
        assert [tuple(r) for r in rows] == [
            ("u", [1] * 12, [0, 1, 0], 0, date(2018, 9, 21)),
            ("u", [1] * 11 + [0], [1, 0, 1], 1, date(2018, 9, 24)),
        ]
        assert rows[1].user_id == "u" and rows[1].label == 1 and list(one_series([1] * 14)) == []

    def test_no_database_windows_keeps_column_shapes(self):
        w = windows_for_database(events_db([ev("u", Activity.PHYSICAL, date(2018, 8, 13))]))
        assert len(w) == 0
        assert [c.shape for c in (w.user_id, w.values, w.future, w.label, w.end_date)] == \
            [(0,), (0, 12), (0, 3), (0,), (0,)]
        assert [c.dtype.kind for c in (w.user_id, w.values, w.future, w.label)] == ["U", "i", "i", "i"]

    @settings(max_examples=200, deadline=None)
    @given(event_sets())
    def test_matches_record_reference(self, events):
        assert_same_windows(windows_for_database(events_db(events)), reference_database_windows(events))

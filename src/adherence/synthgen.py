"""Seeded synthetic database generator.

Each user runs a two-state Markov engagement chain over sessions: while ON
they attend the session and complete each of the four activities independently
with a fixed probability, while OFF they emit nothing. A per-user engagement
level drawn from a Beta prior sets the chain's stationary ON fraction, and the
slow transition rates make engagement come in streaks, so recent sessions
reveal the current state and the state drives near-future adherence. On top of
the chain, a per-session dropout hazard may fire; dropping out is gradual,
with attendance decaying over a short waning phase before the user goes silent
for good. Low-engagement users dominate the prior, keeping the windowed labels
majority-low-adherence. Questionnaire missingness is whole-response: a user
either answers a questionnaire instance fully or skips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .ingestion import (
    DEMOGRAPHIC_FIELDS,
    DEMOGRAPHIC_RANGES,
    QUESTIONNAIRE_INSTANCES,
    QUESTIONNAIRE_ITEMS,
    STATIC_COLUMNS,
    STATUS_VALUES,
    Activity,
    Events,
    Profiles,
    RawDatabase,
    answer_columns,
)
from .rng import substream

# Default non-response rates per (questionnaire, instance), mirroring the
# diagnostics the real data shows.
DEFAULT_NULL_RATES = {
    ("spq", 1): 0.0,
    ("spq", 3): 0.2117,
    ("ucla", 1): 0.5335,
    ("ucla", 3): 0.8121,
    ("eq5d3l", 1): 0.4082,
    ("eq5d3l", 3): 0.5572,
    ("utaut", 3): 0.2527,
}

# Likert scale per questionnaire (synthetic choice; only the shape matters).
QUESTIONNAIRE_SCALES = {"spq": (1, 5), "ucla": (1, 4), "eq5d3l": (1, 3), "utaut": (1, 7)}

DEFAULT_DEMOGRAPHIC_RANGES: dict[str, tuple[int, int]] = {"birth_year": (1924, 1974), **DEMOGRAPHIC_RANGES}


@dataclass
class SynthConfig:
    seed: int = 0
    n_users: int = 200
    start_date: date = date(2018, 8, 1)
    end_date: date = date(2021, 3, 31)
    # Per-user engagement level ~ Beta(alpha, beta): the stationary ON fraction
    # of the user's ON/OFF session chain.
    engagement_alpha: float = 0.5
    engagement_beta: float = 2.2
    # ON->OFF rate is switch_base + switch_scale*(1 - level); OFF->ON swaps the
    # level term. Small rates mean long streaks, i.e. a readable state.
    switch_base: float = 0.03
    switch_scale: float = 0.15
    # Per-activity completion probability within an attended (ON) session.
    activity_prob: float = 0.75
    # Probability of dropping out after each session.
    dropout_hazard: float = 0.02
    # Dropout is gradual: attendance decays for this many sessions, then stops.
    waning_sessions: int = 4
    waning_decay: float = 0.5
    # Planned program length; users stop cleanly when they complete it.
    program_weeks_min: int = 20
    program_weeks_max: int = 44
    # each holds every instance or field: the ones a partial dict leaves out keep their defaults
    null_rates: dict[tuple[str, int], float] = field(default_factory=dict)
    demographic_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.null_rates = {**DEFAULT_NULL_RATES, **self.null_rates}
        self.demographic_ranges = {**DEFAULT_DEMOGRAPHIC_RANGES, **self.demographic_ranges}
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.start_date >= self.end_date:
            raise ValueError("start_date must precede end_date")
        if not (self.engagement_alpha > 0 and self.engagement_beta > 0):
            raise ValueError("engagement Beta parameters must be positive")
        for name in ("switch_base", "switch_scale", "activity_prob", "dropout_hazard", "waning_decay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.switch_base + self.switch_scale > 1.0:
            raise ValueError("switch_base + switch_scale must not exceed 1")
        if self.waning_sessions < 0:
            raise ValueError("waning_sessions must be >= 0")
        if not 1 <= self.program_weeks_min <= self.program_weeks_max:
            raise ValueError("program weeks must satisfy 1 <= min <= max")
        for key, rate in self.null_rates.items():
            if key not in DEFAULT_NULL_RATES:
                raise ValueError(f"unknown questionnaire instance {key}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"null rate for {key} must lie in [0, 1]")
        for name, (lo, hi) in self.demographic_ranges.items():
            if name not in DEFAULT_DEMOGRAPHIC_RANGES:
                raise ValueError(f"unknown demographic field {name!r}")
            if lo > hi:
                raise ValueError(f"degenerate range for {name}: ({lo}, {hi})")
            low, high = DEMOGRAPHIC_RANGES.get(name, (lo, hi))  # birth_year has no range to keep to
            if not low <= lo <= hi <= high:
                raise ValueError(f"range for {name} ({lo}, {hi}) reaches outside [{low},{high}], which ingest accepts")


def _monday_of(d: date) -> date:
    return d - timedelta(days=d.weekday())


_SESSION_OFFSETS = ((0, 1, 2, 3), (4, 5, 6))  # MonThu days, FriSun days


def generate(cfg: SynthConfig) -> RawDatabase:
    """Deterministically generate a database for the given config."""
    rng = substream(cfg.seed, "synthgen")
    total_days = (cfg.end_date - cfg.start_date).days
    first_day, last_day = cfg.start_date.toordinal(), cfg.end_date.toordinal()
    events: list[tuple[int, int, int]] = []  # (user number, activity code, date.toordinal())
    status = np.empty(cfg.n_users, dtype=np.int8)
    static = np.full((cfg.n_users, len(STATIC_COLUMNS)), np.nan)
    ranges = [cfg.demographic_ranges[name] for name in DEMOGRAPHIC_FIELDS]

    for i in range(cfg.n_users):
        static[i, : len(ranges)] = [int(rng.integers(lo, hi + 1)) for lo, hi in ranges]
        level = float(rng.beta(cfg.engagement_alpha, cfg.engagement_beta))
        to_off = cfg.switch_base + cfg.switch_scale * (1.0 - level)
        to_on = cfg.switch_base + cfg.switch_scale * level
        program_weeks = int(rng.integers(cfg.program_weeks_min, cfg.program_weeks_max + 1))
        offset = int(rng.integers(0, max(1, total_days - 56)))
        week = _monday_of(cfg.start_date + timedelta(days=offset)).toordinal()

        weeks_done = 0
        dropped = False
        stopped = False
        on = rng.random() < level
        wane_attend = 1.0
        wane_left = -1  # -1: engaged; >=0: sessions of waning remaining
        while weeks_done < program_weeks and not stopped:
            if week > last_day:
                break
            for offsets in _SESSION_OFFSETS:
                if wane_left == 0:
                    stopped = True
                    break
                if wane_left > 0:
                    wane_attend *= cfg.waning_decay
                    wane_left -= 1
                    attends = rng.random() < wane_attend
                else:
                    attends = on
                    on = (rng.random() >= to_off) if on else (rng.random() < to_on)
                if attends:
                    for activity in range(len(Activity)):
                        if rng.random() < cfg.activity_prob:
                            # the one integer rng.choice(offsets) draws, without its overhead
                            day = week + offsets[int(rng.integers(0, len(offsets)))]
                            if first_day <= day <= last_day:
                                events.append((i, activity, day))
                if wane_left < 0 and rng.random() < cfg.dropout_hazard:
                    dropped = True
                    wane_left = cfg.waning_sessions
            week += 7
            weeks_done += 1
        status[i] = STATUS_VALUES.index("Dropout" if dropped else "Finished" if weeks_done >= program_weeks
                                        else "StillUsing")

        for qid in sorted(QUESTIONNAIRE_ITEMS):  # the draw order; STATIC_COLUMNS orders them otherwise
            lo, hi = QUESTIONNAIRE_SCALES[qid]
            mid = (lo + hi) / 2.0
            for instance in QUESTIONNAIRE_INSTANCES[qid]:
                responds = rng.random() >= cfg.null_rates[(qid, instance)]
                latent = float(rng.normal())
                # one draw of every item gives the doubles of one draw per item; rint rounds half to even, as round does
                raw = mid + 0.9 * latent + rng.normal(size=QUESTIONNAIRE_ITEMS[qid]) * 0.6
                if responds:
                    static[i, answer_columns(qid, instance)] = np.clip(np.rint(raw), lo, hi)

    # the ids sort like the users' numbers only below 100,000 users
    user_id = np.array([f"u{i:05d}" for i in range(cfg.n_users)])
    order = np.argsort(user_id)
    row = np.argsort(order)  # each user's row in the sorted table
    profiles = Profiles(user_id[order], np.ones(cfg.n_users, dtype=bool), status[order], static[order])
    user, activity, day = np.array(events, dtype=np.int64).reshape(-1, 3).T
    return RawDatabase(profiles=profiles, events=Events.from_ordinals(row[user], activity, day))

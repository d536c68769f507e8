"""Exact coverage of the `measure` interval on fixed 2x2 truths.

Every count table of total N is weighed by its multinomial probability under
each truth. A table's interval does not depend on the truth, so one pass
over the tables serves every truth, and the coverage has no trial noise.
"""

import functools
import math

import pytest

import oracles
from infoeff import SampleSet, estimate_efficiency

N = 40
RESAMPLES = 200
PASS_LINE = 0.95  # the interval's nominal level: enumeration has no trial noise
DROPPED_WEIGHT = 1e-12  # the 1279 tables below it under every truth hold < 1.3e-9


def fair_coin(accuracy: float) -> list[list[float]]:
    """Joint [outcome][signal] of a fair coin seen through a symmetric signal."""
    hit, miss = accuracy / 2, (1.0 - accuracy) / 2
    return [[hit, miss], [miss, hit]]


TRUTHS = {accuracy: fair_coin(accuracy) for accuracy in (0.5, 0.55, 1.0)}


@functools.cache
def weighted_tables() -> tuple[list, dict[float, list[float]]]:
    tables = list(oracles.tables_2x2(N))
    weights = {a: [oracles.multinomial_weight(t, joint) for t in tables] for a, joint in TRUTHS.items()}
    return tables, weights


@functools.cache
def exact_coverage() -> dict[float, float]:
    """P(ci_low <= Eff <= ci_high) under each truth, from one interval per table."""
    tables, weights = weighted_tables()
    effs = {a: oracles.exact_eff(joint) for a, joint in TRUTHS.items()}
    coverage = dict.fromkeys(TRUTHS, 0.0)
    for i, table in enumerate(tables):
        if max(w[i] for w in weights.values()) < DROPPED_WEIGHT:
            continue
        samples = SampleSet(table, ("h", "t"), ("h", "t"))
        report = estimate_efficiency(samples, resamples=RESAMPLES, seed=0)
        for a, eff in effs.items():
            if report.ci_low <= eff <= report.ci_high:
                coverage[a] += weights[a][i]
    return coverage


def test_every_table_is_enumerated_once_with_its_weight():
    tables, weights = weighted_tables()
    assert len(tables) == len({str(t) for t in tables}) == math.comb(N + 3, 3) == 12341
    assert all(sum(map(sum, t)) == N and min(map(min, t)) >= 0 for t in tables)
    for w in weights.values():
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
    kept = sum(max(w[i] for w in weights.values()) >= DROPPED_WEIGHT for i in range(len(tables)))
    assert kept == 11062


def test_oracle_sampler_and_exact_eff():
    joint = [[0.5, 0.0], [0.2, 0.3]]
    first = oracles.sample_table(joint, N, seed=7)
    assert first == oracles.sample_table(joint, N, seed=7)
    assert sum(map(sum, first)) == N and first[0][1] == 0
    assert [oracles.exact_eff(TRUTHS[a]) for a in (0.5, 1.0)] == [1.0, 0.0]
    assert oracles.exact_eff(TRUTHS[0.55]) == pytest.approx(oracles.FROZEN_HB_055, abs=1e-15)


@pytest.mark.parametrize("accuracy", [
    # Eff = 1: a resample's plug-in Eff is below 1 unless its table is exactly
    # independent, so only such tables reach the truth.
    pytest.param(0.5, marks=pytest.mark.xfail(strict=True, reason="exact coverage 0.1291")),
    0.55,  # exact coverage 0.9772
    # Eff = 0: smoothing puts mass off the diagonal, so no interval reaches 0.
    pytest.param(1.0, marks=pytest.mark.xfail(strict=True, reason="exact coverage 0.0")),
])
def test_interval_covers_the_fair_coins_true_eff(accuracy):
    assert exact_coverage()[accuracy] >= PASS_LINE

"""Independent oracles for expected values, written before the library.

Pure math/stdlib, plus numpy for the seeded Kelly run — nothing here
imports the package, so these stay independent of the code paths they
check. The FROZEN_* constants were computed with these functions and
pinned.
"""

import math

import numpy as np

log2 = math.log2


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def entropy(probs) -> float:
    return -sum(p * log2(p) for p in probs if p > 0.0)


def cross_entropy(probs, quotes) -> float:
    return -sum(p * log2(q) for p, q in zip(probs, quotes) if p > 0.0)


def bayes_by_enumeration(prior, channel_rows, signal_index):
    """Posterior over outcomes via brute-force joint-cell enumeration."""
    cells = [prior[i] * channel_rows[i][signal_index] for i in range(len(prior))]
    total = sum(cells)
    return [c / total for c in cells]


def bayes_rows(prior, channel_rows):
    """Posterior rows p(x|y), one per signal, or None where p(y) = 0.

    `channel_rows` is indexed [outcome][signal]. Each signal's cells
    prior(x) * channel(y|x) are divided by their sum taken as one numpy
    vector, in numpy's pairwise order rather than bayes_by_enumeration's
    left-to-right one, so an implementation of the same rule matches it bit
    for bit.
    """
    prior = np.asarray(prior, dtype=float)
    rows = np.asarray(channel_rows, dtype=float)
    posteriors = []
    for j in range(rows.shape[1]):
        cells = prior * rows[:, j]
        total = cells.sum()
        posteriors.append(cells / total if total > 0.0 else None)
    return posteriors


def conditional_entropy(joint) -> float:
    """Direct double-sum evaluation of -sum_y p(y) sum_x p(x|y) log2 p(x|y)."""
    n_x, n_y = len(joint), len(joint[0])
    total = 0.0
    for j in range(n_y):
        p_y = sum(joint[i][j] for i in range(n_x))
        if p_y <= 0.0:
            continue
        inner = 0.0
        for i in range(n_x):
            p_xy = joint[i][j] / p_y
            if p_xy > 0.0:
                inner -= p_xy * log2(p_xy)
        total += p_y * inner
    return total


def expected_growth(joint, alphas, allocations) -> float:
    """sum_{x,y} p(x,y) log2(allocation[y][x] * alpha[x]) by direct loop.

    `allocations` is indexed [signal][outcome]; returns -inf on a zero stake
    against a possible (x, y) pair.
    """
    n_x, n_y = len(joint), len(joint[0])
    total = 0.0
    for j in range(n_y):
        for i in range(n_x):
            p = joint[i][j]
            if p <= 0.0:
                continue
            stake = allocations[j][i]
            if stake <= 0.0:
                return float("-inf")
            total += p * log2(stake * alphas[i])
    return total



def seeded_kelly_draw(joint, strategy_rows, quotes, prior, rounds, seed, run_index):
    """(flat log2 payout per cell, cell of each round) of one seeded run.

    `joint` is indexed [outcome][signal] and `strategy_rows` [signal][outcome].
    Round k takes the k-th double of PCG64(SeedSequence((seed, run_index)))
    and realizes the cell, in signal-major order, whose interval of the
    cumulative joint holds it. A cell pays log2(stake) - log2(quote), or 0 for
    an outcome of zero prior. The whole run is drawn at once.
    """
    joint = np.asarray(joint, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        pay = np.log2(np.asarray(strategy_rows, dtype=float)) - np.log2(quotes)
    pay[:, np.asarray(prior) == 0.0] = 0.0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, run_index))))
    cells = np.searchsorted(np.cumsum(joint.T)[:-1], rng.random(rounds), side="right")
    return pay.ravel(), cells


def seeded_kelly_run(joint, strategy_rows, quotes, prior, rounds, seed, run_index):
    """(final log2 wealth, first ruined 1-based round or None) of one seeded run.

    Takes the arguments of seeded_kelly_draw. The final log2 wealth is
    sum_c N_c * pay_c, where N_c counts the rounds drawn in cell c: cells in
    order, each added once from +0.0, and undrawn cells left out.
    """
    pay, cells = seeded_kelly_draw(joint, strategy_rows, quotes, prior, rounds, seed, run_index)
    total = 0.0
    for count, log2_pay in zip(np.bincount(cells, minlength=pay.size).tolist(), pay.tolist()):
        if count:
            total += count * log2_pay
    ruined = np.flatnonzero(np.isneginf(pay[cells]))
    return total, (int(ruined[0]) + 1 if len(ruined) else None)


def parse_samples(lines):
    """Line-by-line reference parse of a (signal, outcome) samples CSV.

    Returns (counts, signal_labels, outcome_labels), with counts mapping
    each (signal, outcome) pair to its number of records, or a triple for
    the first problem: ("ParseError", line, column), or ("EmptyInput",
    number of lines read, None) when no record follows the header.
    """
    counts, first_line, declared = {}, {}, {}
    header_seen = False
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line == "":
            continue
        if line.startswith("#"):
            key, colon, rest = line.lstrip("#").partition(":")
            key = key.strip().lower()
            if colon and key in ("signals", "outcomes"):
                labels = tuple(tok.strip() for tok in rest.split(","))
                if "" in labels or len(set(labels)) != len(labels):
                    return ("ParseError", line_no, 1)
                declared[key] = labels
            continue
        fields = [f.strip() for f in line.split(",")]
        if not header_seen:
            if fields != ["signal", "outcome"]:
                column = 2 if len(fields) == 2 and fields[0] == "signal" else 1
                return ("ParseError", line_no, column)
            header_seen = True
            continue
        if len(fields) != 2 or fields[0] == "":
            return ("ParseError", line_no, 1)
        if fields[1] == "":
            return ("ParseError", line_no, 2)
        pair = (fields[0], fields[1])
        counts[pair] = counts.get(pair, 0) + 1
        first_line.setdefault(pair, line_no)
    if not header_seen:
        return ("ParseError", 1, 1)
    if not counts:
        return ("EmptyInput", line_no, None)
    signals = declared.get("signals") or tuple(sorted({s for s, _ in counts}))
    outcomes = declared.get("outcomes") or tuple(sorted({o for _, o in counts}))
    for (signal, outcome), line in sorted(first_line.items(), key=lambda item: item[1]):
        if signal not in signals:
            return ("ParseError", line, 1)
        if outcome not in outcomes:
            return ("ParseError", line, 2)
    return counts, signals, outcomes


# Frozen expected values (computed with the functions above, then pinned).
FROZEN_HB_09 = 0.4689955935892811          # binary_entropy(0.9)
FROZEN_HB_055 = 0.9927744539878083         # binary_entropy(0.55)
FROZEN_DROP_055 = 0.007225546012191719     # 1 - binary_entropy(0.55)
FROZEN_HB_025 = 0.8112781244591328         # binary_entropy(0.25)
FROZEN_GMAX_09 = 0.5310044064107189        # 1 - binary_entropy(0.9)
FROZEN_HQ_005 = 2.1979643381655696         # cross_entropy([.5,.5], [.05,.95])
FROZEN_EFFQ_005 = 0.4549664353674656       # 1 / FROZEN_HQ_005
FROZEN_GMAXQ_005 = 1.1979643381655696      # FROZEN_HQ_005 - 1
FROZEN_HQ_0005 = 3.8255438795029           # cross_entropy([.5,.5], [.005,.995])
FROZEN_EFFQ_0005 = 0.2614007397374154      # 1 / FROZEN_HQ_0005
FROZEN_POSTERIOR_BIASED = (0.9878048780487805, 0.012195121951219514)
# bayes_by_enumeration([.9,.1], [[.9,.1],[.1,.9]], 0); equals (0.81/0.82, 0.01/0.82)

"""Experiment TR3 — §VI-B decision quadrants, measured.

The paper's guidance: update frequency (relative to transaction length)
picks the candidate pair — {Deferred, Punctual} at low churn,
{Incremental, Continuous} at high churn — and transaction length picks
within the pair (Deferred/Incremental for short, Punctual/Continuous for
long).  This bench measures all four quadrants (clients retry policy
aborts; score = total time per successful commit, aggregated over three
seeds) and asserts the measured pair winner matches the recommendation in
every quadrant.
"""

import pytest

from repro.analysis.tradeoff import empirical_quadrants

from _common import emit_table


def collect():
    # The quadrant × seed × approach grid (48 seeded points) fans out over
    # worker processes; scores equal a serial run.
    quadrants = empirical_quadrants(n_transactions=20)
    rows = []
    for quadrant in quadrants:
        scores = {name: score for name, score in quadrant.ranking()}
        winner = quadrant.pair_winner()
        rows.append(
            [
                quadrant.name,
                quadrant.recommended,
                winner,
                "agree" if winner == quadrant.recommended else "DIFFER",
                " vs ".join(
                    f"{name}:{scores[name]:.1f}" for name in quadrant.pair
                ),
            ]
        )
        assert winner == quadrant.recommended, quadrant.name
    return rows


@pytest.mark.benchmark(group="tradeoff")
def test_tradeoff_quadrants(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit_table(
        "tradeoff_quadrants",
        ["regime", "paper recommends", "measured winner", "verdict", "pair scores (lower=better)"],
        rows,
        title="TR3: Section VI-B decision quadrants (time per successful commit)",
        notes=[
            "Infrequent regimes inject occasional persistent policy flips;",
            "frequent regimes inject constant benign version churn.  All",
            "four measured winners match the paper's recommendations.",
        ],
    )

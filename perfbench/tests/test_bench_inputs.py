"""Seeded inputs: the seed moves targets, never the shape of the work."""

import checker
import inputs


def test_same_seed_same_inputs():
    assert inputs.grid_targets(3) == inputs.grid_targets(3)
    assert inputs.theta_rungs(3) == inputs.theta_rungs(3)
    assert inputs.cli_calls(3) == inputs.cli_calls(3)


def test_seed_changes_targets_but_not_rungs():
    a, b = inputs.theta_rungs(1), inputs.theta_rungs(2)
    assert [r["rung"] for r in a] == [r["rung"] for r in b]
    assert [r["theta"] for r in a] != [r["theta"] for r in b]
    assert sorted(r["rung"] for r in inputs.window_rungs(1)) == sorted(
        r["rung"] for r in inputs.window_rungs(2)
    )
    assert inputs.grid_targets(1) != inputs.grid_targets(2)
    shape = lambda calls: sorted((c["sub"], c["seq"], c["format"]) for c in calls)
    assert shape(inputs.cli_calls(1)) == shape(inputs.cli_calls(2))
    assert inputs.cli_calls(1) != inputs.cli_calls(2)


def test_grid_mix_has_a_fixed_composition():
    for seed in (1, 2):
        targets = inputs.grid_targets(seed)
        per_seq = len(targets) // len(inputs.GRID_SEQS)
        assert per_seq == inputs.GRID_GRID_TARGETS + inputs.GRID_WINDOW_TARGETS
        assert sum(text.endswith("/1000") for _, text in targets) >= 5 * inputs.GRID_GRID_TARGETS


def test_theta_rungs_have_the_stated_shape():
    for rung in inputs.theta_rungs(5):
        seeds = checker.seeds_of(rung["seq"])
        d = int(rung["rung"].split("-e")[1].split("-")[0])
        g1 = checker.smallest_index_below(seeds, rung["theta"], 1)
        if rung["rung"].endswith("-out"):
            k = rung["theta"] * 10**d
            assert k.denominator == 1 and 2 <= k <= 99 and g1 % 2 == 1
        else:
            left, right, _ = checker.window(seeds, g1 // 2 - 1, rung["seq"])
            assert g1 % 2 == 0 and left < rung["theta"] <= right
            # denominators of about 10^d, like the outside target's
            assert abs(rung["theta"].denominator.bit_length() - 3.32 * d) <= 0.33 * d + 8

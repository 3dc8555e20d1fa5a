import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spa_compressor.analytics import (
    RatioInput,
    compression_ratio,
    format_csv,
    format_table,
    published_note,
    published_sweep_check,
    sweep,
)


def test_worked_example_reproduces():
    report = compression_ratio(RatioInput(64, 32))
    assert abs(report.ratio - 0.1741) < 1e-4
    assert abs(report.reduction_percent - 82.59) < 0.01
    assert report.display_ratio() == "0.1741"
    assert report.display_reduction() == "82.59"


@pytest.mark.parametrize(
    "s,e,printed",
    [
        (16, 32, 89.40),
        (32, 32, 87.13),
        (64, 32, 82.59),
        (64, 8, 88.84),
        (64, 16, 86.76),
        (64, 64, 74.26),
    ],
)
def test_published_consistent_rows_within_two_hundredths(s, e, printed):
    report = compression_ratio(RatioInput(s, e))
    assert abs(report.reduction_percent - printed) <= 0.02


def test_published_small_scene_row_is_flagged_inconsistent():
    report = compression_ratio(RatioInput(8, 32))
    # direct evaluation of the ratio formula gives ~90.53%, not the
    # printed 93.38%; the discrepancy must be surfaced, not hidden
    assert abs(report.reduction_percent - 90.53) < 0.01
    note = published_note(report)
    assert "INCONSISTENT" in note
    assert "93.38" in note

    rows = published_sweep_check()
    flagged = [r for r in rows if r["flag"]]
    assert len(flagged) == 1
    assert (flagged[0]["s"], flagged[0]["e"]) == (8, 32)
    assert abs(flagged[0]["computed_reduction"] - 90.53) < 0.01


@pytest.mark.parametrize("n_avg, dv", [(3.0, 384), (1.836, 100), (2.0, 192)])
def test_published_note_needs_the_published_averages(n_avg, dv):
    # S=64, E=32 is a published row only at the default N and D_v
    assert published_note(compression_ratio(RatioInput(64, 32, n_avg, dv))) == ""
    assert published_note(compression_ratio(RatioInput(64, 32))) == "matches published 82.59"


def test_reduction_definition_is_exact():
    report = compression_ratio(RatioInput(10, 10, 2.0, 100))
    assert report.reduction_percent + 100.0 * report.ratio == 100.0


def test_events_matching_original_tokens_do_not_compress():
    # with E = D_v the ratio is 1 + S/(N*D_v) > 1: no reduction at all
    report = compression_ratio(RatioInput(4, 384, 2.0, 384))
    assert report.ratio > 1.0
    assert abs(report.ratio - (1.0 + 4 / (2.0 * 384))) < 1e-12


def test_monotonicity_in_both_token_counts():
    reductions_s = [compression_ratio(RatioInput(s, 32)).reduction_percent for s in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(reductions_s, reductions_s[1:]))
    reductions_e = [compression_ratio(RatioInput(64, e)).reduction_percent for e in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(reductions_e, reductions_e[1:]))


@given(
    s=st.floats(0.5, 500),
    e=st.floats(0.5, 500),
    n=st.floats(0.1, 50),
    dv=st.floats(1, 2000),
)
@settings(max_examples=200, deadline=None)
def test_algebraic_split_identity(s, e, n, dv):
    report = compression_ratio(RatioInput(s, e, n, dv))
    assert report.ratio == pytest.approx(s / (n * dv) + e / dv, rel=1e-12)


@pytest.mark.parametrize("bad", [0, -1, -0.5, float("nan"), float("inf"), float("-inf")])
def test_non_positive_inputs_are_errors(bad):
    with pytest.raises(ValueError, match="strictly positive"):
        RatioInput(bad, 32)
    with pytest.raises(ValueError, match="strictly positive"):
        RatioInput(64, 32, frames_per_sentence=bad)


@pytest.mark.parametrize("e, n, dv", [(1e308, 1e308, 1), (1, 1e-200, 1e-200)], ids=["overflow", "underflow"])
def test_non_finite_ratio_is_an_error(e, n, dv):
    with pytest.raises(ValueError, match="compression ratio is not finite"):
        compression_ratio(RatioInput(1, e, n, dv))


def test_sweep_covers_full_grid():
    reports = sweep([16, 64], [8, 32])
    assert len(reports) == 4
    assert {(r.inputs.scene_tokens, r.inputs.event_tokens) for r in reports} == {
        (16, 8), (16, 32), (64, 8), (64, 32),
    }


def test_sweep_empty_grid_is_an_error():
    with pytest.raises(ValueError, match="non-empty"):
        sweep([], [32])


def test_table_and_csv_formats():
    reports = sweep([8, 64], [32])
    table = format_table(reports)
    assert "INCONSISTENT" in table
    assert "82.59" in table
    csv_text = format_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "s,e,n_avg,dv,ratio,reduction_percent,note"
    assert len(lines) == 3

import csv
import random

import pytest

from dualthink.errors import ConfigError
from dualthink.presets import (
    DUAL_PRESET_NAME,
    ablation_presets,
    preset,
    preset_names,
)
from dualthink.runner import (
    QuestionResult,
    Report,
    accuracy_vs_tokens,
    stratified_trigger_report,
    write_accuracy_vs_tokens_csv,
    write_ablation_csv,
    write_stratified_csv,
)
from dualthink.types import (
    SYSTEM2_STAGES,
    Agent,
    Difficulty,
    PipelineConfig,
    QuestionKind,
    TokenUsage,
)

# (difficulty, answered by system 2, correct count, incorrect count)
CELLS = [
    (Difficulty.VERY_EASY, False, 85, 3),
    (Difficulty.VERY_EASY, True, 12, 0),
    (Difficulty.EASY, False, 76, 6),
    (Difficulty.EASY, True, 14, 4),
    (Difficulty.MEDIUM, False, 60, 10),
    (Difficulty.MEDIUM, True, 24, 6),
    (Difficulty.HARD, False, 28, 22),
    (Difficulty.HARD, True, 32, 18),
    (Difficulty.VERY_HARD, False, 20, 36),
    (Difficulty.VERY_HARD, True, 24, 20),
]

EXPECTED_ACCURACY = [
    96.59,
    100.00,
    92.68,
    77.78,
    85.71,
    80.00,
    56.00,
    64.00,
    35.71,
    54.55,
]


def make_result(qid, difficulty, triggered, correct, completion_tokens=5):
    return QuestionResult(
        question_id=qid,
        predicted="A" if correct else "B",
        gold="A",
        kind=QuestionKind.MCQ,
        correct=correct,
        em=None,
        f1=None,
        system2_triggered=triggered,
        usage=TokenUsage(10, completion_tokens),
        difficulty=difficulty,
    )


def synthetic_results(seed=202):
    results = []
    n = 0
    for difficulty, triggered, n_correct, n_incorrect in CELLS:
        for correct in [True] * n_correct + [False] * n_incorrect:
            n += 1
            results.append(make_result(f"q{n:04d}", difficulty, triggered, correct))
    random.Random(seed).shuffle(results)
    return results


# --- stratified table ---------------------------------------------------------


def test_ten_cell_table_matches_hand_computed_rates():
    rows = stratified_trigger_report(synthetic_results())
    assert len(rows) == 10
    assert [
        (r.difficulty, r.mode == "System 2", r.correct, r.incorrect) for r in rows
    ] == CELLS
    assert [r.accuracy_pct for r in rows] == EXPECTED_ACCURACY


def test_rows_come_out_in_difficulty_then_mode_order():
    rows = stratified_trigger_report(synthetic_results(seed=9))
    assert [r.difficulty for r in rows] == [c[0] for c in CELLS]
    assert [r.mode for r in rows] == ["System 1", "System 2"] * 5


def test_empty_strata_are_omitted():
    results = [
        make_result("q1", Difficulty.EASY, False, True),
        make_result("q2", Difficulty.VERY_HARD, True, False),
    ]
    rows = stratified_trigger_report(results)
    assert [(r.difficulty, r.mode) for r in rows] == [
        (Difficulty.EASY, "System 1"),
        (Difficulty.VERY_HARD, "System 2"),
    ]
    assert [(r.correct, r.incorrect) for r in rows] == [(1, 0), (0, 1)]


def test_stratification_requires_difficulty_everywhere():
    results = [
        make_result("q1", Difficulty.EASY, False, True),
        make_result("q2", None, False, True),
    ]
    with pytest.raises(ConfigError, match="q2"):
        stratified_trigger_report(results)


def test_stratification_requires_scored_results():
    unscored = QuestionResult(
        question_id="q1",
        predicted="x",
        gold=None,
        kind=QuestionKind.OPEN,
        correct=None,
        em=None,
        f1=None,
        system2_triggered=False,
        usage=TokenUsage(),
        difficulty=Difficulty.EASY,
    )
    with pytest.raises(ConfigError, match="q1"):
        stratified_trigger_report([unscored])


def test_stratified_csv_round_trip(tmp_path):
    rows = stratified_trigger_report(synthetic_results())
    path = tmp_path / "stratified.csv"
    write_stratified_csv(rows, path)
    with path.open(encoding="utf-8", newline="") as handle:
        raw = list(csv.reader(handle))
    assert raw[0] == ["difficulty", "mode", "correct", "incorrect", "accuracy_pct"]
    assert len(raw) == 11
    assert raw[1] == ["Very Easy", "System 1", "85", "3", "96.59"]
    assert raw[10] == ["Very Hard", "System 2", "24", "20", "54.55"]


# --- presets -------------------------------------------------------------------


def test_ablation_list_has_the_eight_canonical_rows_in_order():
    names = [name for name, _ in ablation_presets()]
    assert names == [
        "System 1",
        "System 2 (Full)",
        "System 2 (Planning + Search + Hypothesis + Integration + Decision)",
        "System 2 (Planning + Search + Reading + Hypothesis + Decision)",
        "System 2 (Planning + Search + Hypothesis + Decision)",
        "System 2 (Planning + Search + Reading + Decision)",
        "System 2 (Planning + Search + Decision)",
        "System 2 (Hypothesis + Decision)",
    ]


def test_every_preset_validates_and_matches_its_name():
    for name, config in ablation_presets():
        if name == "System 1":
            assert config.system1_enabled and not config.stages
            assert not config.force_system2
            continue
        assert not config.system1_enabled
        assert config.force_system2
        inner = name[len("System 2 (") : -1]
        if inner == "Full":
            assert config.stages == frozenset(SYSTEM2_STAGES)
        else:
            expected = frozenset(Agent[part.upper()] for part in inner.split(" + "))
            assert config.stages == expected


def test_combined_preset_is_the_engine_default():
    config = preset(DUAL_PRESET_NAME)
    assert config == PipelineConfig()
    assert config.system1_enabled and config.reflection_enabled
    assert not config.force_system2
    assert config.stages == frozenset(SYSTEM2_STAGES)
    assert DUAL_PRESET_NAME in preset_names()
    assert DUAL_PRESET_NAME not in [name for name, _ in ablation_presets()]


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("System 3")


# --- cost/quality rows ------------------------------------------------------------


def _report(name, results):
    return Report(name=name, config=PipelineConfig(), results=results)


def test_accuracy_vs_tokens_reads_off_the_reports():
    cheap = _report(
        "cheap",
        [
            make_result("q1", Difficulty.EASY, False, True, completion_tokens=10),
            make_result("q2", Difficulty.EASY, False, False, completion_tokens=20),
        ],
    )
    costly = _report(
        "costly",
        [
            make_result("q1", Difficulty.EASY, True, True, completion_tokens=100),
            make_result("q2", Difficulty.EASY, True, True, completion_tokens=101),
        ],
    )
    rows = accuracy_vs_tokens([("cheap", cheap), ("costly", costly)])
    assert rows == [("cheap", 15.0, 50.0), ("costly", 100.5, 100.0)]


def test_accuracy_vs_tokens_skips_empty_reports(caplog):
    empty = _report("empty", [])
    full = _report("full", [make_result("q1", Difficulty.EASY, False, True)])
    with caplog.at_level("WARNING"):
        rows = accuracy_vs_tokens([("empty", empty), ("full", full)])
    assert [name for name, _, _ in rows] == ["full"]
    assert any("empty" in record.message for record in caplog.records)


def test_tradeoff_and_ablation_csv_writers(tmp_path):
    report = _report(
        "System 1", [make_result("q1", Difficulty.EASY, False, True)]
    )
    ablation_path = tmp_path / "ablation.csv"
    write_ablation_csv([("System 1", report)], ablation_path)
    with ablation_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["preset", "questions", "accuracy_pct", "em_pct", "f1_pct"]
    assert rows[1][:3] == ["System 1", "1", "100.0"]

    tradeoff_path = tmp_path / "tradeoff.csv"
    write_accuracy_vs_tokens_csv(accuracy_vs_tokens([("System 1", report)]), tradeoff_path)
    with tradeoff_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["name", "mean_completion_tokens", "accuracy_pct"]
    assert rows[1] == ["System 1", "5.0", "100.0"]

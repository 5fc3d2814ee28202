import dataclasses
import json

import pytest

from dualthink.errors import ConfigError
from dualthink.types import (
    SYSTEM2_STAGES,
    Agent,
    AgentStep,
    Difficulty,
    PipelineConfig,
    Question,
    QuestionKind,
    ReasoningTrace,
    TokenUsage,
    stage_sequence,
    sum_usage,
    to_jsonable,
)


def test_question_kind_follows_options():
    mcq = Question(id="q1", text="Pick one", options=(("A", "x"), ("B", "y")))
    open_q = Question(id="q2", text="Name it")
    assert mcq.kind is QuestionKind.MCQ
    assert open_q.kind is QuestionKind.OPEN
    assert mcq.option_labels == ("A", "B")


def test_question_validation_rejects_bad_gold_and_dup_labels():
    with pytest.raises(ConfigError):
        Question(id="q", text="t", options=(("A", "x"),), gold="Z")
    with pytest.raises(ConfigError):
        Question(id="q", text="t", options=(("A", "x"), ("A", "y")))
    with pytest.raises(ConfigError):
        Question(id="", text="t")
    with pytest.raises(ConfigError):
        Question(id="q", text="   ")


def test_option_labels_that_differ_only_in_case_are_rejected():
    # A reply names a label in any case, so the second of "A" and "a" could
    # never be chosen, nor its gold scored.
    for labels in (("A", "a"), ("ß", "SS"), ("Yes", "no", "YES")):
        options = tuple((label, f"text {i}") for i, label in enumerate(labels))
        with pytest.raises(ConfigError, match="option labels must be unique, ignoring case"):
            Question(id="q", text="t", options=options, gold=labels[-1])


def test_difficulty_from_label_is_forgiving():
    assert Difficulty.from_label("very easy") is Difficulty.VERY_EASY
    assert Difficulty.from_label("Very_Hard") is Difficulty.VERY_HARD
    assert Difficulty.from_label("MEDIUM") is Difficulty.MEDIUM
    with pytest.raises(ValueError):
        Difficulty.from_label("impossible")


def test_token_usage_adds_componentwise():
    a = TokenUsage(10, 3)
    b = TokenUsage(7, 5)
    assert a + b == TokenUsage(17, 8)
    assert (a + b).total == 25
    assert sum_usage([a, b, TokenUsage()]) == TokenUsage(17, 8)


def test_default_config_enables_everything():
    config = PipelineConfig()
    assert config.stages == frozenset(SYSTEM2_STAGES)
    assert config.system1_enabled and config.reflection_enabled
    assert not config.force_system2
    assert stage_sequence(config) == list(SYSTEM2_STAGES)


def test_stage_sequence_is_canonical_order_regardless_of_set_order():
    config = PipelineConfig(
        stages=frozenset([Agent.DECISION, Agent.PLANNING, Agent.SEARCH]),
        system1_enabled=False,
        reflection_enabled=False,
        force_system2=True,
    )
    assert stage_sequence(config) == [Agent.PLANNING, Agent.SEARCH, Agent.DECISION]


@pytest.mark.parametrize(
    "stages",
    [
        frozenset([Agent.PLANNING]),  # no decision
        frozenset([Agent.SEARCH, Agent.DECISION]),  # search without planning
        frozenset([Agent.PLANNING, Agent.READING, Agent.DECISION]),  # reading without search
        frozenset([Agent.INTEGRATION, Agent.DECISION]),  # integration without hypothesis
    ],
)
def test_stage_dependencies_are_enforced(stages):
    with pytest.raises(ConfigError):
        PipelineConfig(
            stages=stages, system1_enabled=False, reflection_enabled=False, force_system2=True
        )


def test_modes_that_need_deliberation_require_stages():
    with pytest.raises(ConfigError):
        PipelineConfig(stages=frozenset(), force_system2=True)
    with pytest.raises(ConfigError):
        PipelineConfig(
            stages=frozenset(), system1_enabled=False, reflection_enabled=False
        )
    with pytest.raises(ConfigError):
        PipelineConfig(stages=frozenset(), reflection_enabled=True)
    # reflection needs the fast pass
    with pytest.raises(ConfigError):
        PipelineConfig(system1_enabled=False, reflection_enabled=True)


def test_system1_only_config_is_valid():
    PipelineConfig(
        stages=frozenset(), system1_enabled=True, reflection_enabled=False
    )


def test_numeric_bounds_are_checked():
    for kwargs in (
        {"k_retrieval": 0},
        {"max_subquestions": 0},
        {"max_hypotheses": 0},
        {"max_parse_retries": -1},
        {"temperature": -0.1},
        {"max_tokens": 0},
        {"max_inject_chars": 0},
    ):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_temperature_that_is_not_finite_is_rejected(temperature):
    # Over HTTP every call with it would fail: JSON has no NaN or Infinity.
    with pytest.raises(ConfigError, match="temperature must be >= 0 and finite"):
        PipelineConfig(temperature=temperature)


def test_replace_checks_the_same_invariants():
    with pytest.raises(ConfigError):
        dataclasses.replace(PipelineConfig(), k_retrieval=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(PipelineConfig(), stages=frozenset([Agent.PLANNING]))
    with pytest.raises(ConfigError):
        dataclasses.replace(Question(id="q", text="t"), text=" ")


def test_config_dict_round_trip():
    config = PipelineConfig(
        stages=frozenset([Agent.PLANNING, Agent.SEARCH, Agent.DECISION]),
        system1_enabled=False,
        reflection_enabled=False,
        force_system2=True,
        k_retrieval=3,
    )
    data = config.to_dict()
    assert data["stages"] == ["planning", "search", "decision"]
    # A run directory's config.json is compared with this dict as JSON reads it back.
    assert json.loads(json.dumps(data)) == data
    assert PipelineConfig().to_dict() != data


def test_trace_serializes_to_plain_json():
    step = AgentStep(
        agent=Agent.QUICK,
        attempt=1,
        prompt="p",
        completion="c",
        parsed={"final_answer": "x"},
        usage=TokenUsage(5, 2),
        wall_ms=1,
    )
    trace = ReasoningTrace(
        question_id="q1",
        steps=(step,),
        system2_triggered=False,
        final_answer="x",
        chosen_option=None,
        total_usage=TokenUsage(5, 2),
    )
    data = json.loads(json.dumps(trace.to_dict()))
    assert data["steps"][0]["agent"] == "quick"
    assert data["total_usage"] == {"prompt_tokens": 5, "completion_tokens": 2}
    assert trace.agent_sequence() == [Agent.QUICK]


def test_to_jsonable_handles_nested_structures():
    assert to_jsonable((Agent.QUICK, [TokenUsage(1, 2)])) == [
        "quick",
        [{"prompt_tokens": 1, "completion_tokens": 2}],
    ]

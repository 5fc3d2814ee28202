"""Domain types for the dual-process answering engine.

Everything here is an immutable value object; the orchestration logic lives
in :mod:`dualthink.engine` and the textual protocol in
:mod:`dualthink.parsers`. :class:`Question` and :class:`PipelineConfig` check
their invariants when built, so an invalid one raises ConfigError and never
exists (``dataclasses.replace`` builds anew, so it checks too).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from .errors import ConfigError


class Agent(str, Enum):
    """The eight agents, in pipeline order."""

    QUICK = "quick"
    REFLECTION = "reflection"
    PLANNING = "planning"
    SEARCH = "search"
    READING = "reading"
    HYPOTHESIS = "hypothesis"
    INTEGRATION = "integration"
    DECISION = "decision"


#: Deliberation stages in canonical execution order.
SYSTEM2_STAGES: tuple[Agent, ...] = (
    Agent.PLANNING,
    Agent.SEARCH,
    Agent.READING,
    Agent.HYPOTHESIS,
    Agent.INTEGRATION,
    Agent.DECISION,
)

#: (stage, prerequisite) pairs: a stage may only be enabled with its prerequisite.
_STAGE_DEPENDENCIES: tuple[tuple[Agent, Agent], ...] = (
    (Agent.SEARCH, Agent.PLANNING),
    (Agent.READING, Agent.SEARCH),
    (Agent.INTEGRATION, Agent.HYPOTHESIS),
)


class QuestionKind(str, Enum):
    MCQ = "mcq"
    OPEN = "open"


class Difficulty(str, Enum):
    VERY_EASY = "Very Easy"
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"
    VERY_HARD = "Very Hard"

    @classmethod
    def from_label(cls, label: str) -> "Difficulty":
        """Accepts 'Very Easy', 'VeryEasy', 'very_easy', etc."""
        key = "".join(ch for ch in label.lower() if ch.isalpha())
        for level in cls:
            if key == "".join(ch for ch in level.value.lower() if ch.isalpha()):
                return level
        raise ValueError(f"unknown difficulty label: {label!r}")


@dataclass(frozen=True)
class Question:
    """One task instance: prompt text, optional MCQ options, gold answer.

    ``gold`` is the gold option label for MCQ questions or the primary gold
    answer for open questions; ``gold_aliases`` carries all acceptable
    answer strings for open questions (EM/F1 take the best over aliases).
    """

    id: str
    text: str
    options: tuple[tuple[str, str], ...] = ()
    gold: str | None = None
    gold_aliases: tuple[str, ...] = ()
    difficulty: Difficulty | None = None

    @property
    def kind(self) -> QuestionKind:
        return QuestionKind.MCQ if self.options else QuestionKind.OPEN

    @property
    def option_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.options)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigError("question id must be non-empty")
        if not self.text.strip():
            raise ConfigError(f"question {self.id}: text must be non-empty")
        labels = self.option_labels
        if len(set(labels)) != len(labels):
            raise ConfigError(f"question {self.id}: option labels must be unique")
        if self.kind is QuestionKind.MCQ and self.gold is not None and self.gold not in labels:
            raise ConfigError(
                f"question {self.id}: gold label {self.gold!r} is not one of {list(labels)}"
            )


@dataclass(frozen=True, slots=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.prompt_tokens + other.prompt_tokens,
            self.completion_tokens + other.completion_tokens,
        )

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class SubStep:
    """One subquestion/subanswer pair from the fast reasoning pass."""

    index: int
    subquestion: str
    subanswer: str


@dataclass(frozen=True)
class QuickAnswer:
    """Fast-pass output: ordered substeps plus the synthesized final answer."""

    steps: tuple[SubStep, ...]
    final_answer: str


class Verdict(str, Enum):
    ACCEPT = "accept"
    ESCALATE = "escalate"


@dataclass(frozen=True)
class ReflectionVerdict:
    """Gate outcome: accept the fast answer, or escalate to deliberation."""

    decision: Verdict
    rationale: str = ""
    flagged_steps: tuple[int, ...] = ()


@dataclass(frozen=True)
class PlanItem:
    id: str
    text: str


@dataclass(frozen=True)
class Plan:
    subquestions: tuple[PlanItem, ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item.id for item in self.subquestions)


@dataclass(frozen=True)
class SearchDecision:
    """Per-subquestion retrieval verdict: look it up, or answer internally."""

    subquestion_id: str
    needs_retrieval: bool
    queries: tuple[str, ...] = ()


@dataclass(frozen=True)
class RetrievedDoc:
    doc_id: str
    text: str
    score: float


@dataclass(frozen=True)
class KeyInsight:
    """A distilled takeaway for one plan subquestion, citing its sources.

    ``source_doc_ids`` is empty when the insight comes from internal
    knowledge rather than retrieved material.
    """

    id: str
    subquestion_id: str
    text: str
    source_doc_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Hypothesis:
    id: str
    statement: str
    option_label: str | None = None


class HypothesisStatus(str, Enum):
    SUPPORTED = "supported"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HypothesisVerdict:
    """Evidence check for one hypothesis.

    ``cited_insights`` holds insight ids, or raw document ids when the
    reading stage was ablated; SUPPORTED/REFUTED verdicts must cite at
    least one.
    """

    hypothesis_id: str
    status: HypothesisStatus
    cited_insights: tuple[str, ...] = ()
    justification: str = ""


@dataclass(frozen=True)
class IntegratedHypothesis:
    text: str
    supporting_hypothesis_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Decision:
    answer: str
    chosen_option: str | None = None
    ranking: tuple[str, ...] = ()
    justification: str = ""


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages run, plus retrieval/decoding parameters.

    ``stages`` is the enabled subset of :data:`SYSTEM2_STAGES`; execution
    order is always canonical. ``force_system2`` makes deliberation run
    unconditionally so stage-subset configurations are runnable without the
    fast pass.
    """

    stages: frozenset[Agent] = frozenset(SYSTEM2_STAGES)
    system1_enabled: bool = True
    reflection_enabled: bool = True
    force_system2: bool = False
    k_retrieval: int = 5
    max_subquestions: int = 5
    max_hypotheses: int = 4
    max_parse_retries: int = 2
    temperature: float = 0.0
    max_tokens: int = 1024
    max_inject_chars: int = 1500

    def __post_init__(self) -> None:
        bad = set(self.stages) - set(SYSTEM2_STAGES)
        if bad:
            raise ConfigError(f"not deliberation stages: {sorted(a.value for a in bad)}")
        if self.stages and Agent.DECISION not in self.stages:
            raise ConfigError("a non-empty stage set must include the decision stage")
        for stage, prereq in _STAGE_DEPENDENCIES:
            if stage in self.stages and prereq not in self.stages:
                raise ConfigError(f"stage {stage.value!r} requires stage {prereq.value!r}")
        if self.reflection_enabled and not self.system1_enabled:
            raise ConfigError("reflection requires system 1 to be enabled")
        needs_system2 = (
            ("force_system2", self.force_system2),
            ("reflection_enabled", self.reflection_enabled),
            ("system 1 disabled", not self.system1_enabled),
        )
        for label, flag in needs_system2:
            if flag and not self.stages:
                raise ConfigError(f"{label} needs a non-empty stage set to escalate to")
        positive = (
            ("k_retrieval", self.k_retrieval),
            ("max_subquestions", self.max_subquestions),
            ("max_hypotheses", self.max_hypotheses),
            ("max_tokens", self.max_tokens),
            ("max_inject_chars", self.max_inject_chars),
        )
        for name, value in positive:
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.max_parse_retries < 0:
            raise ConfigError(f"max_parse_retries must be >= 0, got {self.max_parse_retries}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["stages"] = [s.value for s in SYSTEM2_STAGES if s in self.stages]
        return data


def stage_sequence(config: PipelineConfig) -> list[Agent]:
    """Active deliberation stages in canonical execution order."""
    return [stage for stage in SYSTEM2_STAGES if stage in config.stages]


@dataclass(frozen=True)
class AgentStep:
    """One backend call: prompt, raw completion, parse outcome, usage.

    A stage that needed parse retries contributes one step per attempt;
    ``parsed`` is None for attempts whose completion could not be parsed.
    ``start_ms`` is when the call began, in ms since the answer began, and
    ``wall_ms`` how long it took; stages that overlap have overlapping spans.
    ``cached`` marks a step replayed from an identical earlier stage instead
    of billed; its ``start_ms`` is when the replay began, and ``wall_ms`` 0.
    """

    agent: Agent
    attempt: int
    prompt: str
    completion: str
    parsed: dict[str, Any] | None
    usage: TokenUsage
    wall_ms: int
    usage_estimated: bool = False
    start_ms: int = 0
    cached: bool = False


@dataclass(frozen=True)
class ReasoningTrace:
    """Ordered record of every backend call made while answering a question.

    ``total_usage`` sums the billed steps and ``cached_usage`` the replayed
    ones; together they are what the answer would cost alone.
    """

    question_id: str
    steps: tuple[AgentStep, ...]
    system2_triggered: bool
    final_answer: str
    chosen_option: str | None
    total_usage: TokenUsage
    cached_usage: TokenUsage = TokenUsage()

    def agent_sequence(self, *, parsed_only: bool = False) -> list[Agent]:
        """Agent names in call order; ``parsed_only`` keeps successful parses."""
        return [s.agent for s in self.steps if s.parsed is not None or not parsed_only]

    def stage_agents(self) -> list[Agent]:
        """Successfully executed deliberation stages, in order."""
        return [
            s.agent
            for s in self.steps
            if s.agent in SYSTEM2_STAGES and s.parsed is not None
        ]

    def to_dict(self) -> dict[str, Any]:
        return to_jsonable(self)


#: Types ``to_jsonable`` returns as they are, matched by exact type so that
#: str-valued enums are not among them.
_AS_IS = frozenset({str, int, float, bool, type(None), dict})


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses, enums, tuples and lists into
    JSON-safe values, dispatching on the exact type, plain types first.

    A ``dict`` is returned unchanged, not walked: the only dicts met are
    steps' ``parsed`` values, which ``Engine._call`` has already converted.
    """
    kind = type(value)
    if kind in _AS_IS:
        return value
    if isinstance(value, Enum):
        return value.value
    if kind is tuple or kind is list:
        return [to_jsonable(item) for item in value]
    if dataclasses.is_dataclass(kind):
        return {
            f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    return value


def sum_usage(usages: Iterable[TokenUsage]) -> TokenUsage:
    total = TokenUsage()
    for usage in usages:
        total = total + usage
    return total

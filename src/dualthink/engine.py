"""Orchestration: the fast pass, the reflection gate, and the slow pipeline.

A question first gets a quick stepwise answer. The reflection gate then
either accepts that answer or escalates to the deliberation pipeline
(planning, search, reading, hypothesis, integration, decision), any suffix
of which can be ablated via the config's stage set. Deliberation also runs
when the fast pass is disabled or ``force_system2`` is set.

All eight agent calls are rows of one table, :data:`_STAGES`: each row says
how to fill the agent's prompt from the outputs so far, how to parse the
reply, and where the parsed outputs go. One call loop drives every row.

Deliberation walks the enabled stages in canonical order. Hypothesis reads
only the question: a memo hit (below) is replayed at once, before the walk,
and a hypothesis that must call the backend runs on a thread of its own
beside planning, search and reading; a backend whose replies depend on call
order (``ordered``) gets every call in turn instead. Steps stay in canonical
order, each ``start_ms`` showing the overlap. The thread is joined before
``answer`` returns or raises. When both branches fail, a replayed failure
too, the error of the stage first in canonical order is raised.

Every backend call is recorded on the trace, including failed parse
attempts; a stage that needed a retry therefore shows up once per attempt.
Given a ``memo`` dict, a temperature-0 stage is stored under its agent, its
first request, and the config values its parser or search may read unshown
in the prompt: ``max_parse_retries``, ``max_hypotheses``, ``k_retrieval``.
A hit still renders the prompt, but makes no call, parse or search: it
appends the stored steps, marked ``cached`` (counted in ``cached_usage``),
then sets the parsed outputs (for search, also its docs) or raises the
stage's used-up ``ParseError`` again. A ``BackendError`` is never stored.
A memo serves one backend, retriever and prompt library.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .backend import ChatRequest, LLMBackend
from .errors import BackendError, ConfigError, ParseError
from .parsers import (
    extract_choice,
    parse_decision,
    parse_hypotheses,
    parse_integration,
    parse_plan,
    parse_quick,
    parse_reading,
    parse_reflection,
    parse_search,
)
from .prompts import RANKING_INSTRUCTION, PromptLibrary, quote_injected
from .retrieval import Retriever
from .types import (
    Agent,
    AgentStep,
    Decision,
    Hypothesis,
    HypothesisVerdict,
    IntegratedHypothesis,
    KeyInsight,
    PipelineConfig,
    Plan,
    Question,
    QuestionKind,
    QuickAnswer,
    ReasoningTrace,
    ReflectionVerdict,
    RetrievedDoc,
    SearchDecision,
    Verdict,
    stage_sequence,
    sum_usage,
    to_jsonable,
)

logger = logging.getLogger(__name__)

#: Retry feedback appended to the prompt after an unparseable completion.
_RETRY_SUFFIX = (
    "\n\nYour previous reply could not be parsed: {reason}\n"
    "Reply again, following the required format exactly."
)


@dataclass(frozen=True)
class AnswerResult:
    final_answer: str
    chosen_option: str | None
    trace: ReasoningTrace


@dataclass
class _Run:
    """One question in flight: its inputs, the stage outputs so far, every call."""

    question: Question
    config: PipelineConfig
    started: float = field(default_factory=time.monotonic)
    steps: list[AgentStep] = field(default_factory=list)
    system2_triggered: bool = False
    quick: QuickAnswer | None = None
    reflection: ReflectionVerdict | None = None
    plan: Plan | None = None
    decisions: tuple[SearchDecision, ...] = ()
    docs_by_subquestion: dict[str, list[RetrievedDoc]] = field(default_factory=dict)
    insights: tuple[KeyInsight, ...] = ()
    hypotheses: tuple[Hypothesis, ...] = ()
    verdicts: tuple[HypothesisVerdict, ...] = ()
    integrated: IntegratedHypothesis | None = None
    decision: Decision | None = None

    def evidence_ids(self) -> tuple[str, ...]:
        """Citable evidence ids: insight ids, or doc ids when reading is off."""
        if self.insights:
            return tuple(i.id for i in self.insights)
        seen: dict[str, None] = {}
        for pid in self.plan.ids if self.plan else ():
            for doc in self.docs_by_subquestion.get(pid, ()):
                seen.setdefault(doc.doc_id)
        return tuple(seen)

    def trace(self, final_answer: str = "", chosen_option: str | None = None) -> ReasoningTrace:
        return ReasoningTrace(
            question_id=self.question.id,
            steps=tuple(self.steps),
            system2_triggered=self.system2_triggered,
            final_answer=final_answer,
            chosen_option=chosen_option,
            total_usage=sum_usage(step.usage for step in self.steps if not step.cached),
            cached_usage=sum_usage(step.usage for step in self.steps if step.cached),
        )


@dataclass(frozen=True)
class _Stage:
    """One agent call: its prompt values, its parser, and where results go.

    ``parse`` returns the value for the one name in ``fields``, or a tuple
    with one value per name when there are several; each is stored on the
    :class:`_Run` under its name. The trace step's ``parsed`` is the value's
    own fields when ``flat``, else a dict from each name to its value.
    """

    values: Callable[[_Run], dict[str, str]]
    parse: Callable[[str, _Run], Any]
    fields: tuple[str, ...]
    flat: bool = False


def _parse_quick(raw: str, run: _Run) -> QuickAnswer:
    quick = parse_quick(raw)
    if run.question.kind is QuestionKind.MCQ:
        extract_choice(quick.final_answer, run.question.option_labels)
    return quick


def _planning_values(run: _Run) -> dict[str, str]:
    prior = ""
    if run.quick is not None:
        parts = [_quick_summary(run.quick)]
        if run.reflection is not None and run.reflection.rationale:
            parts.append(f"Reflection: {run.reflection.rationale}")
            if run.reflection.flagged_steps:
                flagged = ", ".join(str(i) for i in run.reflection.flagged_steps)
                parts.append(f"Suspect steps: {flagged}")
        prior = (
            "\nAn earlier quick attempt, kept here for context only:\n"
            + quote_injected("\n".join(parts), run.config.max_inject_chars)
            + "\n"
        )
    return {
        "question": run.question.text,
        "max_subquestions": str(run.config.max_subquestions),
        "prior_context": prior,
    }


def _reading_values(run: _Run) -> dict[str, str]:
    sections = []
    for item in run.plan.subquestions:
        docs = run.docs_by_subquestion.get(item.id, [])
        lines = [f"{item.id}: {item.text}"]
        if docs:
            for doc in docs:
                lines.append(f"[{doc.doc_id}]")
                lines.append(quote_injected(doc.text, run.config.max_inject_chars))
        else:
            lines.append("(no documents retrieved; answer from internal knowledge)")
        sections.append("\n".join(lines))
    return {"question": run.question.text, "material": "\n\n".join(sections)}


def _retrieved_ids(run: _Run) -> dict[str, list[str]]:
    return {
        item.id: [doc.doc_id for doc in run.docs_by_subquestion.get(item.id, [])]
        for item in run.plan.subquestions
    }


def _hypothesis_values(run: _Run) -> dict[str, str]:
    question = run.question
    if question.kind is QuestionKind.MCQ:
        lines = ["The question has these options:"]
        lines += [f"{label}: {text}" for label, text in question.options]
        lines.append("State exactly one hypothesis per option, tagged with its OPTION label.")
        brief = "\n".join(lines)
    else:
        brief = (
            f"State between 1 and {run.config.max_hypotheses} distinct candidate "
            "answers as hypotheses. Omit OPTION lines."
        )
    return {"question": question.text, "hypothesis_brief": brief}


def _integration_values(run: _Run) -> dict[str, str]:
    return {
        "question": run.question.text,
        "hypotheses": "\n".join(_hypothesis_line(h) for h in run.hypotheses),
        "evidence": _format_evidence(run),
    }


def _decision_values(run: _Run) -> dict[str, str]:
    return {
        "question": run.question.text,
        "context": _decision_context(run) or "(none; answer directly)",
        "ranking_instruction": RANKING_INSTRUCTION if run.hypotheses else "",
        "answer_hint": _answer_hint(run.question),
    }


# The parsers are looked up by name on every call (hence the lambdas), so
# that a patched ``dualthink.engine.parse_*`` is the one that runs.
_STAGES: dict[Agent, _Stage] = {
    Agent.QUICK: _Stage(
        values=lambda run: {
            "question": run.question.text,
            "answer_hint": _answer_hint(run.question),
        },
        parse=_parse_quick,
        fields=("quick",),
        flat=True,
    ),
    Agent.REFLECTION: _Stage(
        values=lambda run: {
            "question": run.question.text,
            "quick_trace": quote_injected(_quick_summary(run.quick), run.config.max_inject_chars),
        },
        parse=lambda raw, run: parse_reflection(raw, [step.index for step in run.quick.steps]),
        fields=("reflection",),
        flat=True,
    ),
    Agent.PLANNING: _Stage(
        values=_planning_values,
        parse=lambda raw, run: parse_plan(raw, run.config.max_subquestions),
        fields=("plan",),
        flat=True,
    ),
    Agent.SEARCH: _Stage(
        values=lambda run: {"question": run.question.text, "subquestions": _listing(run.plan)},
        parse=lambda raw, run: parse_search(raw, run.plan),
        fields=("decisions",),
    ),
    Agent.READING: _Stage(
        values=_reading_values,
        parse=lambda raw, run: parse_reading(raw, _retrieved_ids(run)),
        fields=("insights",),
    ),
    Agent.HYPOTHESIS: _Stage(
        values=_hypothesis_values,
        parse=lambda raw, run: parse_hypotheses(
            raw, run.question.option_labels, run.config.max_hypotheses
        ),
        fields=("hypotheses",),
    ),
    Agent.INTEGRATION: _Stage(
        values=_integration_values,
        parse=lambda raw, run: parse_integration(raw, run.hypotheses, run.evidence_ids()),
        fields=("verdicts", "integrated"),
    ),
    Agent.DECISION: _Stage(
        values=_decision_values,
        parse=lambda raw, run: parse_decision(raw, run.hypotheses, run.question.option_labels),
        fields=("decision",),
        flat=True,
    ),
}


def check_retriever(config: PipelineConfig, retriever: Retriever | None) -> None:
    if Agent.SEARCH in config.stages and retriever is None:
        raise ConfigError("the search stage is enabled but no retriever was given")


class Engine:
    """Binds a backend, an optional retriever, prompts, and a stage memo."""

    def __init__(
        self,
        backend: LLMBackend,
        retriever: Retriever | None = None,
        prompts: PromptLibrary | None = None,
        memo: dict[tuple, tuple[tuple[AgentStep, ...], dict[str, Any] | str]] | None = None,
    ):
        self._backend = backend
        self._retriever = retriever
        self._prompts = prompts or PromptLibrary.default()
        self._memo = memo

    def answer(self, question: Question, config: PipelineConfig | None = None) -> AnswerResult:
        """Answer one question.

        A ParseError or BackendError raised here has the partial trace of
        the calls made so far attached as ``trace``.
        """
        config = config or PipelineConfig()
        check_retriever(config, self._retriever)
        run = _Run(question, config)
        try:
            return self._answer(run)
        except (ParseError, BackendError) as exc:
            exc.trace = run.trace()
            raise

    def _answer(self, run: _Run) -> AnswerResult:
        question, config = run.question, run.config
        if config.system1_enabled:
            self._stage(Agent.QUICK, run, run.steps)
            if not config.force_system2 and self._gate_accepts(run):
                final = run.quick.final_answer
                chosen = None
                if question.kind is QuestionKind.MCQ:
                    chosen = extract_choice(final, question.option_labels)
                return AnswerResult(final, chosen, run.trace(final, chosen))

        run.system2_triggered = True
        sequence = stage_sequence(config)
        steps: dict[Agent, list[AgentStep]] = {agent: [] for agent in sequence}
        early = Agent.HYPOTHESIS in sequence[1:] and not getattr(self._backend, "ordered", False)
        try:
            # Leaving the block joins a hypothesis thread, if one was started. An error
            # of the walk before hypothesis outranks hypothesis's own, replayed or not.
            with ExitStack() as threads:
                if early:
                    hypothesis = self._start_hypothesis(run, steps[Agent.HYPOTHESIS], threads)
                for agent in sequence:
                    if early and agent is Agent.HYPOTHESIS:
                        hypothesis.result()
                    else:
                        self._stage(agent, run, steps[agent])
        finally:
            run.steps.extend(step for agent in sequence for step in steps[agent])
        decision = run.decision
        trace = run.trace(decision.answer, decision.chosen_option)
        return AnswerResult(decision.answer, decision.chosen_option, trace)

    def _gate_accepts(self, run: _Run) -> bool:
        if not run.config.reflection_enabled:
            return True
        try:
            self._stage(Agent.REFLECTION, run, run.steps)
        except ParseError as exc:
            # The gate fails open: an unreadable verdict means escalate.
            logger.warning("reflection unparseable (%s); escalating", exc.reason)
            run.reflection = ReflectionVerdict(
                decision=Verdict.ESCALATE,
                rationale=f"reflection output unparseable: {exc.reason}",
            )
        return run.reflection.decision is Verdict.ACCEPT

    def _start_hypothesis(self, run: _Run, steps: list[AgentStep], threads: ExitStack) -> Future:
        """Replays a memoized hypothesis now or starts it on a thread of its own;
        the walk joins the future in hypothesis's place, raising a replay's parse failure."""
        _, key = keyed = self._keyed(Agent.HYPOTHESIS, run)
        if key is None or key not in self._memo:
            pool = threads.enter_context(ThreadPoolExecutor(max_workers=1))
            return pool.submit(self._stage, Agent.HYPOTHESIS, run, steps, keyed)
        replayed = Future()
        try:
            replayed.set_result(self._stage(Agent.HYPOTHESIS, run, steps, keyed))
        except ParseError as exc:
            replayed.set_exception(exc)
        return replayed

    def _keyed(self, agent: Agent, run: _Run) -> tuple[ChatRequest, tuple | None]:
        """Renders a stage's first request; its key is None if it may not be memoized."""
        config = run.config
        system_text, user_text = self._prompts.get(agent).render(**_STAGES[agent].values(run))
        request = ChatRequest(system_text, user_text, config.temperature, config.max_tokens)
        key = (agent, request, config.max_parse_retries, config.max_hypotheses, config.k_retrieval)
        return request, (key if self._memo is not None and config.temperature == 0 else None)

    def _stage(self, agent: Agent, run: _Run, steps: list, keyed: tuple | None = None) -> None:
        """Runs one row of the stage table, or replays it from the memo (``keyed`` is its
        :meth:`_keyed`, if built), then sets its outputs or raises its parse failure."""
        request, key = keyed or self._keyed(agent, run)
        if key is not None and key in self._memo:
            stored, outcome = self._memo[key]
            start_ms = int((time.monotonic() - run.started) * 1000)
            steps.extend(replace(s, wall_ms=0, start_ms=start_ms, cached=True) for s in stored)
        else:
            first = len(steps)
            outcome = self._call(agent, run, request, steps)
            if agent is Agent.SEARCH and not isinstance(outcome, str):
                outcome["docs_by_subquestion"] = self._retrieve(run, outcome["decisions"])
            if key is not None:
                self._memo[key] = (tuple(steps[first:]), outcome)
        if isinstance(outcome, str):
            raise ParseError(outcome, agent.value)
        for name, value in outcome.items():
            setattr(run, name, value)

    def _retrieve(
        self, run: _Run, decisions: tuple[SearchDecision, ...]
    ) -> dict[str, list[RetrievedDoc]]:
        docs_by_sq: dict[str, list[RetrievedDoc]] = {pid: [] for pid in run.plan.ids}
        for decision in decisions:
            if not decision.needs_retrieval:
                continue
            merged: dict[str, RetrievedDoc] = {}
            for query in decision.queries:
                for doc in self._retriever.search(query, run.config.k_retrieval):
                    merged.setdefault(doc.doc_id, doc)
            docs_by_sq[decision.subquestion_id] = list(merged.values())
        return docs_by_sq

    def _call(self, agent: Agent, run: _Run, request: ChatRequest, steps: list) -> dict | str:
        """Sends a stage's request, retrying unparseable replies; each
        attempt's step goes to ``steps``. Returns the parsed outputs by name,
        or the last parse failure's reason once the retries are used up."""
        stage = _STAGES[agent]
        config = run.config
        user_text = request.user_text
        for attempt in range(1, config.max_parse_retries + 2):
            started = time.monotonic()
            try:
                completion = self._backend.complete(request)
            except BackendError as exc:
                if exc.agent is None:
                    exc.agent = agent.value
                raise
            wall_ms = int((time.monotonic() - started) * 1000)
            failure: ParseError | None = None
            parsed = None
            try:
                value = stage.parse(completion.text, run)
            except ParseError as exc:
                failure = exc
            else:
                outputs = value if len(stage.fields) > 1 else (value,)
                if stage.flat:
                    parsed = to_jsonable(value)
                else:
                    parsed = {name: to_jsonable(v) for name, v in zip(stage.fields, outputs)}
            steps.append(
                AgentStep(
                    agent=agent,
                    attempt=attempt,
                    prompt=request.user_text,
                    completion=completion.text,
                    parsed=parsed,
                    usage=completion.usage,
                    wall_ms=wall_ms,
                    usage_estimated=completion.usage_estimated,
                    start_ms=int((started - run.started) * 1000),
                )
            )
            if failure is None:
                return dict(zip(stage.fields, outputs))
            if attempt > config.max_parse_retries:
                return failure.reason
            logger.info(
                "%s attempt %d unparseable (%s); retrying", agent.value, attempt, failure.reason
            )
            retry_text = user_text + _RETRY_SUFFIX.format(reason=failure.reason)
            request = replace(request, user_text=retry_text)


# -- prompt assembly helpers ----------------------------------------------


def _format_evidence(run: _Run) -> str:
    if run.insights:
        lines = []
        for insight in run.insights:
            cited = ", ".join(insight.source_doc_ids) or "internal"
            lines.append(f"{insight.id} (for {insight.subquestion_id}; from {cited}):")
            lines.append(quote_injected(insight.text, run.config.max_inject_chars))
        return "\n".join(lines)
    doc_ids = run.evidence_ids()
    if doc_ids:
        by_id = {doc.doc_id: doc for docs in run.docs_by_subquestion.values() for doc in docs}
        lines = []
        for doc_id in doc_ids:
            lines.append(f"{doc_id}:")
            lines.append(quote_injected(by_id[doc_id].text, run.config.max_inject_chars))
        return "\n".join(lines)
    return "(no evidence was collected)"


def _decision_context(run: _Run) -> str:
    sections: list[str] = []
    if run.plan is not None:
        sections.append("Subquestions:\n" + _listing(run.plan))
    if run.insights or run.docs_by_subquestion:
        sections.append("Evidence:\n" + _format_evidence(run))
    if run.hypotheses:
        verdict_by_id = {v.hypothesis_id: v for v in run.verdicts}
        lines = []
        for hyp in run.hypotheses:
            line = _hypothesis_line(hyp)
            verdict = verdict_by_id.get(hyp.id)
            if verdict is not None:
                line += f" [{verdict.status.value.upper()}]"
            lines.append(line)
        sections.append("Hypotheses:\n" + "\n".join(lines))
    if run.integrated is not None:
        section = "Integrated conclusion:\n" + quote_injected(
            run.integrated.text, run.config.max_inject_chars
        )
        if run.integrated.supporting_hypothesis_ids:
            section += "\n(rests on: " + ", ".join(
                run.integrated.supporting_hypothesis_ids
            ) + ")"
        sections.append(section)
    return "\n\n".join(sections)


def _answer_hint(question: Question) -> str:
    if question.kind is not QuestionKind.MCQ:
        return ""
    lines = ["", "", "Options:"]
    lines += [f"{label}: {text}" for label, text in question.options]
    lines += ["", "Your ANSWER line must be exactly one of the option labels."]
    return "\n".join(lines)


def _quick_summary(quick: QuickAnswer) -> str:
    lines = []
    for step in quick.steps:
        lines.append(f"SQ{step.index}: {step.subquestion}")
        lines.append(f"SA{step.index}: {step.subanswer}")
    lines.append(f"ANSWER: {quick.final_answer}")
    return "\n".join(lines)


def _listing(plan: Plan) -> str:
    return "\n".join(f"{item.id}: {item.text}" for item in plan.subquestions)


def _hypothesis_line(hyp: Hypothesis) -> str:
    if hyp.option_label is not None:
        return f"{hyp.id} (option {hyp.option_label}): {hyp.statement}"
    return f"{hyp.id}: {hyp.statement}"

"""Builders for scripted engine runs.

The ``serialize_*`` writers render domain objects into each agent's
canonical reply block, the inverse of the matching ``parse_*`` in
``dualthink.parsers``: parse(serialize(x)) recovers x for any payload whose
strings are single-line and comma-free where ids meet commas.

`entries_for` lays out exactly the completions one question needs under a
given config, in call order, each keyed to its agent by the block marker
that only that agent's prompt contains. Runs driven this way double as call
-count checks: a leftover or missing entry shows up as test failure.
"""

from __future__ import annotations

from typing import Sequence

from dualthink.backend import ScriptedBackend, ScriptEntry
from dualthink.types import (
    SYSTEM2_STAGES,
    Agent,
    Decision,
    Hypothesis,
    HypothesisStatus,
    HypothesisVerdict,
    IntegratedHypothesis,
    KeyInsight,
    PipelineConfig,
    Plan,
    PlanItem,
    Question,
    QuickAnswer,
    ReasoningTrace,
    ReflectionVerdict,
    SearchDecision,
    SubStep,
    Verdict,
    stage_sequence,
)


# --- reply writers -------------------------------------------------------


def format_block(tag: str, entries: list[tuple[str, str]] | tuple[tuple[str, str], ...]) -> str:
    """Render entries back into fenced form, each key as the reader
    normalizes it: uppercased, its whitespace collapsed."""
    body = [f"{' '.join(key.upper().split())}: {value}" for key, value in entries]
    return "\n".join([f"BEGIN {tag}", *body, f"END {tag}"])


def serialize_quick(quick: QuickAnswer) -> str:
    entries: list[tuple[str, str]] = []
    for step in quick.steps:
        entries.append((f"SQ{step.index}", step.subquestion))
        entries.append((f"SA{step.index}", step.subanswer))
    entries.append(("ANSWER", quick.final_answer))
    return format_block("QUICK", entries)


def serialize_reflection(verdict: ReflectionVerdict) -> str:
    entries = [("DECISION", verdict.decision.value.upper())]
    if verdict.rationale:
        entries.append(("RATIONALE", verdict.rationale))
    if verdict.flagged_steps:
        entries.append(("FLAGGED", ", ".join(str(i) for i in verdict.flagged_steps)))
    return format_block("REFLECTION", entries)


def serialize_plan(plan: Plan) -> str:
    return format_block("PLAN", [(item.id, item.text) for item in plan.subquestions])


def serialize_search(decisions: Sequence[SearchDecision]) -> str:
    entries: list[tuple[str, str]] = []
    for decision in decisions:
        entries.append(
            (decision.subquestion_id, "RETRIEVE" if decision.needs_retrieval else "INTERNAL")
        )
        for j, query in enumerate(decision.queries, start=1):
            entries.append((f"{decision.subquestion_id}.Q{j}", query))
    return format_block("SEARCH", entries)


def serialize_reading(insights: Sequence[KeyInsight]) -> str:
    entries: list[tuple[str, str]] = []
    for insight in insights:
        entries.append((f"{insight.id} SUBQUESTION", insight.subquestion_id))
        entries.append((f"{insight.id} SOURCES", ", ".join(insight.source_doc_ids)))
        entries.append((f"{insight.id} TEXT", insight.text))
    return format_block("READING", entries)


def serialize_hypotheses(hypotheses: Sequence[Hypothesis]) -> str:
    entries: list[tuple[str, str]] = []
    for hyp in hypotheses:
        if hyp.option_label is not None:
            entries.append((f"{hyp.id} OPTION", hyp.option_label))
        entries.append((f"{hyp.id} STATEMENT", hyp.statement))
    return format_block("HYPOTHESES", entries)


def serialize_integration(
    verdicts: Sequence[HypothesisVerdict], integrated: IntegratedHypothesis
) -> str:
    entries: list[tuple[str, str]] = []
    for verdict in verdicts:
        entries.append((f"{verdict.hypothesis_id} STATUS", verdict.status.value.upper()))
        entries.append((f"{verdict.hypothesis_id} EVIDENCE", ", ".join(verdict.cited_insights)))
        if verdict.justification:
            entries.append((f"{verdict.hypothesis_id} JUSTIFICATION", verdict.justification))
    entries.append(("INTEGRATED", integrated.text))
    entries.append(("INTEGRATED FROM", ", ".join(integrated.supporting_hypothesis_ids)))
    return format_block("INTEGRATION", entries)


def serialize_decision(decision: Decision) -> str:
    entries = [("ANSWER", decision.answer)]
    if decision.ranking:
        entries.append(("RANKING", ", ".join(decision.ranking)))
    if decision.justification:
        entries.append(("JUSTIFICATION", decision.justification))
    return format_block("DECISION", entries)


# --- scripted runs -------------------------------------------------------


def scripted_backend(*entries: str | tuple[str, str] | ScriptEntry) -> ScriptedBackend:
    """Shorthand: strings, (matcher, completion) pairs, or ScriptEntry values."""
    built = []
    for entry in entries:
        if isinstance(entry, ScriptEntry):
            built.append(entry)
        elif isinstance(entry, tuple):
            matcher, completion = entry
            built.append(ScriptEntry(completion=completion, matcher=matcher))
        else:
            built.append(ScriptEntry(completion=entry))
    return ScriptedBackend(built)


def stage_agents(trace: ReasoningTrace) -> list[Agent]:
    """Successfully executed deliberation stages, in order."""
    return [s.agent for s in trace.steps if s.agent in SYSTEM2_STAGES and s.parsed is not None]


_PROSE = "Here is my reply.\n\n{block}\n\nEnd of reply."


def wrap(block: str) -> str:
    """Surround a block with prose, which parsers must tolerate."""
    return _PROSE.format(block=block)


def quick_completion(answer: str, n_steps: int = 2) -> str:
    steps = tuple(
        SubStep(index=i, subquestion=f"step {i} question?", subanswer=f"step {i} answer")
        for i in range(1, n_steps + 1)
    )
    return wrap(serialize_quick(QuickAnswer(steps=steps, final_answer=answer)))


def reflection_completion(decision: Verdict, rationale: str = "checked") -> str:
    return wrap(serialize_reflection(ReflectionVerdict(decision=decision, rationale=rationale)))


def entries_for(
    question: Question,
    config: PipelineConfig,
    answer: str,
    *,
    reflect: Verdict = Verdict.ESCALATE,
    quick_answer: str | None = None,
) -> list[ScriptEntry]:
    """Completions for one question: fast pass, gate, then enabled stages.

    The scripted scenario never requests retrieval (every subquestion is
    INTERNAL), so it runs under any preset given any retriever.
    """
    entries: list[ScriptEntry] = []
    escalates = False
    if config.system1_enabled:
        entries.append(
            ScriptEntry(quick_completion(quick_answer or answer), matcher="BEGIN QUICK")
        )
        if not config.force_system2 and config.reflection_enabled:
            entries.append(
                ScriptEntry(reflection_completion(reflect), matcher="BEGIN REFLECTION")
            )
            escalates = reflect is Verdict.ESCALATE
    triggered = config.force_system2 or not config.system1_enabled or escalates
    if not triggered:
        return entries

    plan = Plan(subquestions=(PlanItem("P1", "what is the key fact?"),))
    hypotheses: tuple[Hypothesis, ...] = ()
    stages = stage_sequence(config)
    for stage in stages:
        if stage is Agent.PLANNING:
            block = serialize_plan(plan)
        elif stage is Agent.SEARCH:
            block = serialize_search(
                (SearchDecision(subquestion_id="P1", needs_retrieval=False),)
            )
        elif stage is Agent.READING:
            block = serialize_reading(
                (KeyInsight(id="K1", subquestion_id="P1", text="the key fact"),)
            )
        elif stage is Agent.HYPOTHESIS:
            if question.options:
                hypotheses = tuple(
                    Hypothesis(id=f"H{i}", statement=f"answer is {label}", option_label=label)
                    for i, (label, _) in enumerate(question.options, start=1)
                )
            else:
                hypotheses = (Hypothesis(id="H1", statement="the candidate answer"),)
            block = serialize_hypotheses(hypotheses)
        elif stage is Agent.INTEGRATION:
            evidence_ids = ("K1",) if Agent.READING in config.stages else ()
            verdicts = tuple(
                HypothesisVerdict(
                    hypothesis_id=h.id,
                    status=HypothesisStatus.SUPPORTED if evidence_ids else HypothesisStatus.INCONCLUSIVE,
                    cited_insights=evidence_ids,
                )
                for h in hypotheses
            )
            block = serialize_integration(
                verdicts, IntegratedHypothesis(text="merged view of the evidence")
            )
        else:
            block = serialize_decision(
                Decision(answer=answer, ranking=tuple(h.id for h in hypotheses))
            )
        block_tag = block.splitlines()[0]
        entries.append(ScriptEntry(wrap(block), matcher=block_tag))
    return entries


def entries_for_many(
    questions: list[Question],
    config: PipelineConfig,
    answers: dict[str, str],
    **kwargs,
) -> list[ScriptEntry]:
    entries = []
    for question in questions:
        entries.extend(entries_for(question, config, answers[question.id], **kwargs))
    return entries

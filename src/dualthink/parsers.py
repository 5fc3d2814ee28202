"""Per-agent parsing of fenced blocks into domain values, and the inverses.

Each ``parse_*`` takes the raw completion text plus whatever context is
needed to validate references (plan ids, document ids, hypothesis ids) and
returns domain objects, raising ParseError with a reason suitable for
feeding back to the model on retry. Each ``serialize_*`` renders domain
objects into the canonical block form; parse(serialize(x)) recovers x for
any payload whose strings are single-line and comma-free where ids meet
commas.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from .blocks import StructuredBlock, format_block, parse_block
from .errors import ParseError
from .types import (
    Decision,
    Hypothesis,
    HypothesisStatus,
    HypothesisVerdict,
    IntegratedHypothesis,
    KeyInsight,
    Plan,
    PlanItem,
    QuickAnswer,
    ReflectionVerdict,
    SearchDecision,
    SubStep,
    Verdict,
)

_LEADING_WRAP = "([{'\""
_TRAILING_WRAP = ")]}.:;,'\"-"


def _split_ids(value: str, what: str) -> tuple[str, ...]:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if len(set(items)) != len(items):
        raise ParseError(f"duplicate entries in {what}: {value!r}")
    return tuple(items)


def _contiguous_indices(indices: Iterable[int], what: str) -> list[int]:
    ordered = sorted(set(indices))
    if not ordered:
        raise ParseError(f"no {what} found in block")
    if ordered[0] != 1 or ordered[-1] != len(ordered):
        raise ParseError(f"{what} must be numbered 1..{len(ordered)} with no gaps")
    return ordered


def _require_nonempty(value: str, what: str) -> str:
    if not value:
        raise ParseError(f"{what} must not be empty")
    return value


# --- quick pass ---------------------------------------------------------


def parse_quick(raw: str) -> QuickAnswer:
    block = parse_block(raw, "QUICK")
    subq: dict[int, str] = {}
    suba: dict[int, str] = {}
    answer: str | None = None
    for key, value in block.entries:
        if key == "ANSWER":
            answer = value
            continue
        match = re.fullmatch(r"S([QA])(\d+)", key)
        if not match:
            raise ParseError(f"unexpected key in QUICK block: {key!r}")
        target = subq if match.group(1) == "Q" else suba
        target[int(match.group(2))] = value
    if answer is None:
        raise ParseError("QUICK block is missing the ANSWER line")
    _require_nonempty(answer, "ANSWER")
    indices = _contiguous_indices(subq.keys() | suba.keys(), "SQn/SAn steps")
    steps = []
    for i in indices:
        if i not in subq:
            raise ParseError(f"SA{i} has no matching SQ{i}")
        if i not in suba:
            raise ParseError(f"SQ{i} has no matching SA{i}")
        steps.append(
            SubStep(
                index=i,
                subquestion=_require_nonempty(subq[i], f"SQ{i}"),
                subanswer=_require_nonempty(suba[i], f"SA{i}"),
            )
        )
    return QuickAnswer(steps=tuple(steps), final_answer=answer)


def serialize_quick(quick: QuickAnswer) -> str:
    entries: list[tuple[str, str]] = []
    for step in quick.steps:
        entries.append((f"SQ{step.index}", step.subquestion))
        entries.append((f"SA{step.index}", step.subanswer))
    entries.append(("ANSWER", quick.final_answer))
    return format_block("QUICK", entries)


# --- reflection gate ----------------------------------------------------


def parse_reflection(raw: str, valid_steps: Sequence[int] = ()) -> ReflectionVerdict:
    block = parse_block(raw, "REFLECTION")
    for key in block.keys:
        if key not in ("DECISION", "RATIONALE", "FLAGGED"):
            raise ParseError(f"unexpected key in REFLECTION block: {key!r}")
    decision_raw = block.require("DECISION").upper()
    if decision_raw not in ("ACCEPT", "ESCALATE"):
        raise ParseError(f"DECISION must be ACCEPT or ESCALATE, got {decision_raw!r}")
    flagged: list[int] = []
    for item in _split_ids(block.get("FLAGGED", "") or "", "FLAGGED"):
        if not item.isdigit():
            raise ParseError(f"FLAGGED entries must be step numbers, got {item!r}")
        flagged.append(int(item))
    if valid_steps:
        unknown = [i for i in flagged if i not in valid_steps]
        if unknown:
            raise ParseError(f"FLAGGED references unknown steps: {unknown}")
    return ReflectionVerdict(
        decision=Verdict.ACCEPT if decision_raw == "ACCEPT" else Verdict.ESCALATE,
        rationale=block.get("RATIONALE", "") or "",
        flagged_steps=tuple(flagged),
    )


def serialize_reflection(verdict: ReflectionVerdict) -> str:
    entries = [("DECISION", verdict.decision.value.upper())]
    if verdict.rationale:
        entries.append(("RATIONALE", verdict.rationale))
    if verdict.flagged_steps:
        entries.append(("FLAGGED", ", ".join(str(i) for i in verdict.flagged_steps)))
    return format_block("REFLECTION", entries)


# --- planning -----------------------------------------------------------


def parse_plan(raw: str, max_subquestions: int) -> Plan:
    block = parse_block(raw, "PLAN")
    numbered: dict[int, str] = {}
    for key, value in block.entries:
        match = re.fullmatch(r"P?(\d+)", key)
        if not match:
            raise ParseError(f"unexpected key in PLAN block: {key!r}")
        index = int(match.group(1))
        if index in numbered:
            raise ParseError(f"duplicate plan item P{index}")
        numbered[index] = _require_nonempty(value, f"P{index}")
    indices = _contiguous_indices(numbered.keys(), "plan items")
    if len(indices) > max_subquestions:
        raise ParseError(
            f"plan has {len(indices)} subquestions; at most {max_subquestions} allowed"
        )
    return Plan(subquestions=tuple(PlanItem(f"P{i}", numbered[i]) for i in indices))


def serialize_plan(plan: Plan) -> str:
    return format_block("PLAN", [(item.id, item.text) for item in plan.subquestions])


# --- search decisions ---------------------------------------------------


def parse_search(raw: str, plan: Plan) -> tuple[SearchDecision, ...]:
    block = parse_block(raw, "SEARCH")
    plan_ids = set(plan.ids)
    verdicts: dict[str, bool] = {}
    queries: dict[str, dict[int, str]] = {pid: {} for pid in plan.ids}
    for key, value in block.entries:
        query_match = re.fullmatch(r"(P\d+)\.Q(\d+)", key)
        if query_match:
            pid = query_match.group(1)
            if pid not in plan_ids:
                raise ParseError(f"query for unknown plan item {pid!r}")
            queries[pid][int(query_match.group(2))] = _require_nonempty(value, key)
            continue
        if re.fullmatch(r"P\d+", key):
            if key not in plan_ids:
                raise ParseError(f"verdict for unknown plan item {key!r}")
            verdict = value.upper()
            if verdict not in ("RETRIEVE", "INTERNAL"):
                raise ParseError(
                    f"{key} must be RETRIEVE or INTERNAL, got {value!r}"
                )
            verdicts[key] = verdict == "RETRIEVE"
            continue
        raise ParseError(f"unexpected key in SEARCH block: {key!r}")
    missing = [pid for pid in plan.ids if pid not in verdicts]
    if missing:
        raise ParseError(f"no RETRIEVE/INTERNAL verdict for: {missing}")
    decisions = []
    for pid in plan.ids:
        indices = queries[pid]
        if indices:
            ordered = _contiguous_indices(indices.keys(), f"queries for {pid}")
            query_list = tuple(indices[i] for i in ordered)
        else:
            query_list = ()
        if verdicts[pid] and not query_list:
            raise ParseError(f"{pid} is marked RETRIEVE but has no {pid}.Q1 query line")
        if not verdicts[pid] and query_list:
            raise ParseError(f"{pid} is marked INTERNAL but has query lines")
        decisions.append(
            SearchDecision(subquestion_id=pid, needs_retrieval=verdicts[pid], queries=query_list)
        )
    return tuple(decisions)


def serialize_search(decisions: Sequence[SearchDecision]) -> str:
    entries: list[tuple[str, str]] = []
    for decision in decisions:
        entries.append(
            (decision.subquestion_id, "RETRIEVE" if decision.needs_retrieval else "INTERNAL")
        )
        for j, query in enumerate(decision.queries, start=1):
            entries.append((f"{decision.subquestion_id}.Q{j}", query))
    return format_block("SEARCH", entries)


# --- reading ------------------------------------------------------------


def parse_reading(raw: str, available: Mapping[str, Sequence[str]]) -> tuple[KeyInsight, ...]:
    """``available`` maps each plan id to the doc ids retrieved for it."""
    block = parse_block(raw, "READING")
    fields: dict[int, dict[str, str]] = {}
    for key, value in block.entries:
        match = re.fullmatch(r"K(\d+) (SUBQUESTION|SOURCES|TEXT)", key)
        if not match:
            raise ParseError(f"unexpected key in READING block: {key!r}")
        fields.setdefault(int(match.group(1)), {})[match.group(2)] = value
    indices = _contiguous_indices(fields.keys(), "insights")
    insights = []
    for i in indices:
        parts = fields[i]
        for part in ("SUBQUESTION", "SOURCES", "TEXT"):
            if part not in parts:
                raise ParseError(f"insight K{i} is missing its {part} line")
        sq_id = parts["SUBQUESTION"]
        if sq_id not in available:
            raise ParseError(f"insight K{i} references unknown subquestion {sq_id!r}")
        sources = _split_ids(parts["SOURCES"], f"K{i} SOURCES")
        unknown = [d for d in sources if d not in available[sq_id]]
        if unknown:
            raise ParseError(
                f"insight K{i} cites documents not retrieved for {sq_id}: {unknown}"
            )
        insights.append(
            KeyInsight(
                id=f"K{i}",
                subquestion_id=sq_id,
                text=_require_nonempty(parts["TEXT"], f"K{i} TEXT"),
                source_doc_ids=sources,
            )
        )
    return tuple(insights)


def serialize_reading(insights: Sequence[KeyInsight]) -> str:
    entries: list[tuple[str, str]] = []
    for insight in insights:
        entries.append((f"{insight.id} SUBQUESTION", insight.subquestion_id))
        entries.append((f"{insight.id} SOURCES", ", ".join(insight.source_doc_ids)))
        entries.append((f"{insight.id} TEXT", insight.text))
    return format_block("READING", entries)


# --- hypothesis generation ----------------------------------------------


def parse_hypotheses(
    raw: str, option_labels: Sequence[str], max_hypotheses: int
) -> tuple[Hypothesis, ...]:
    block = parse_block(raw, "HYPOTHESES")
    fields: dict[int, dict[str, str]] = {}
    for key, value in block.entries:
        match = re.fullmatch(r"H(\d+) (OPTION|STATEMENT)", key)
        if not match:
            raise ParseError(f"unexpected key in HYPOTHESES block: {key!r}")
        fields.setdefault(int(match.group(1)), {})[match.group(2)] = value
    indices = _contiguous_indices(fields.keys(), "hypotheses")
    hypotheses = []
    if option_labels:
        if len(indices) != len(option_labels):
            raise ParseError(
                f"expected one hypothesis per option "
                f"({len(option_labels)} total), got {len(indices)}"
            )
        seen_labels: dict[str, int] = {}
        for i in indices:
            parts = fields[i]
            if "OPTION" not in parts:
                raise ParseError(f"hypothesis H{i} is missing its OPTION line")
            label = _match_label(parts["OPTION"], option_labels, f"H{i} OPTION")
            if label in seen_labels:
                raise ParseError(
                    f"option {label!r} claimed by both H{seen_labels[label]} and H{i}"
                )
            seen_labels[label] = i
            hypotheses.append(
                Hypothesis(
                    id=f"H{i}",
                    statement=_require_nonempty(
                        parts.get("STATEMENT", ""), f"H{i} STATEMENT"
                    ),
                    option_label=label,
                )
            )
    else:
        if len(indices) > max_hypotheses:
            raise ParseError(
                f"got {len(indices)} hypotheses; at most {max_hypotheses} allowed"
            )
        for i in indices:
            parts = fields[i]
            if "OPTION" in parts:
                raise ParseError(
                    f"H{i} has an OPTION line but the question has no options"
                )
            hypotheses.append(
                Hypothesis(
                    id=f"H{i}",
                    statement=_require_nonempty(
                        parts.get("STATEMENT", ""), f"H{i} STATEMENT"
                    ),
                )
            )
    return tuple(hypotheses)


def serialize_hypotheses(hypotheses: Sequence[Hypothesis]) -> str:
    entries: list[tuple[str, str]] = []
    for hyp in hypotheses:
        if hyp.option_label is not None:
            entries.append((f"{hyp.id} OPTION", hyp.option_label))
        entries.append((f"{hyp.id} STATEMENT", hyp.statement))
    return format_block("HYPOTHESES", entries)


# --- integration --------------------------------------------------------


def parse_integration(
    raw: str, hypotheses: Sequence[Hypothesis], evidence_ids: Sequence[str]
) -> tuple[tuple[HypothesisVerdict, ...], IntegratedHypothesis]:
    block = parse_block(raw, "INTEGRATION")
    known = {hyp.id for hyp in hypotheses}
    fields: dict[str, dict[str, str]] = {}
    integrated_text: str | None = None
    integrated_from = ""
    for key, value in block.entries:
        if key == "INTEGRATED":
            integrated_text = value
            continue
        if key == "INTEGRATED FROM":
            integrated_from = value
            continue
        match = re.fullmatch(r"(H\d+) (STATUS|EVIDENCE|JUSTIFICATION)", key)
        if not match:
            raise ParseError(f"unexpected key in INTEGRATION block: {key!r}")
        hid = match.group(1)
        if hid not in known:
            raise ParseError(f"verdict for unknown hypothesis {hid!r}")
        fields.setdefault(hid, {})[match.group(2)] = value
    if integrated_text is None:
        raise ParseError("INTEGRATION block is missing the INTEGRATED line")
    _require_nonempty(integrated_text, "INTEGRATED")

    verdicts = []
    evidence_set = set(evidence_ids)
    for hyp in hypotheses:
        parts = fields.get(hyp.id, {})
        if "STATUS" not in parts:
            raise ParseError(f"no STATUS line for hypothesis {hyp.id}")
        status_raw = parts["STATUS"].upper()
        try:
            status = HypothesisStatus(status_raw.lower())
        except ValueError:
            raise ParseError(
                f"{hyp.id} STATUS must be SUPPORTED, REFUTED, or INCONCLUSIVE, "
                f"got {parts['STATUS']!r}"
            ) from None
        cited = _split_ids(parts.get("EVIDENCE", ""), f"{hyp.id} EVIDENCE")
        unknown = [e for e in cited if e not in evidence_set]
        if unknown:
            raise ParseError(f"{hyp.id} cites unknown evidence: {unknown}")
        if status is not HypothesisStatus.INCONCLUSIVE and not cited:
            raise ParseError(
                f"{hyp.id} is {status_raw} but cites no evidence; "
                "SUPPORTED/REFUTED verdicts must cite at least one id"
            )
        verdicts.append(
            HypothesisVerdict(
                hypothesis_id=hyp.id,
                status=status,
                cited_insights=cited,
                justification=parts.get("JUSTIFICATION", ""),
            )
        )

    supported = {v.hypothesis_id for v in verdicts if v.status is HypothesisStatus.SUPPORTED}
    from_ids = _split_ids(integrated_from, "INTEGRATED FROM")
    bad = [h for h in from_ids if h not in supported]
    if bad:
        raise ParseError(
            f"INTEGRATED FROM may only list SUPPORTED hypotheses; got {bad}"
        )
    return tuple(verdicts), IntegratedHypothesis(
        text=integrated_text, supporting_hypothesis_ids=from_ids
    )


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


# --- decision -----------------------------------------------------------


def parse_decision(
    raw: str, hypotheses: Sequence[Hypothesis], option_labels: Sequence[str]
) -> Decision:
    block = parse_block(raw, "DECISION")
    for key in block.keys:
        if key not in ("ANSWER", "RANKING", "JUSTIFICATION"):
            raise ParseError(f"unexpected key in DECISION block: {key!r}")
    answer = _require_nonempty(block.require("ANSWER"), "ANSWER")
    chosen = extract_choice(answer, option_labels) if option_labels else None
    ranking = _split_ids(block.get("RANKING", "") or "", "RANKING")
    if hypotheses:
        expected = {hyp.id for hyp in hypotheses}
        if not ranking:
            raise ParseError("DECISION block is missing the RANKING line")
        if set(ranking) != expected or len(ranking) != len(expected):
            raise ParseError(
                f"RANKING must order all hypothesis ids exactly once "
                f"({sorted(expected)}), got {list(ranking)}"
            )
    elif ranking:
        raise ParseError("RANKING given but no hypotheses were generated")
    return Decision(
        answer=answer,
        chosen_option=chosen,
        ranking=ranking,
        justification=block.get("JUSTIFICATION", "") or "",
    )


def serialize_decision(decision: Decision) -> str:
    entries = [("ANSWER", decision.answer)]
    if decision.ranking:
        entries.append(("RANKING", ", ".join(decision.ranking)))
    if decision.justification:
        entries.append(("JUSTIFICATION", decision.justification))
    return format_block("DECISION", entries)


# --- option-label extraction ---------------------------------------------


def extract_choice(text: str, labels: Sequence[str]) -> str:
    """Map a free-text answer onto one of the option labels.

    The whole text (stripped) is tried first, then the first whitespace
    token with wrapping punctuation removed; both comparisons are
    case-insensitive. Anything else is a ParseError.
    """
    if not labels:
        raise ParseError("no option labels to match against")
    candidates = [text.strip()]
    tokens = text.split()
    if tokens:
        candidates.append(tokens[0].lstrip(_LEADING_WRAP).rstrip(_TRAILING_WRAP))
    for candidate in candidates:
        folded = candidate.casefold()
        for label in labels:
            if folded == label.casefold():
                return label
    raise ParseError(
        f"answer {text!r} does not start with one of the option labels {list(labels)}"
    )


def _match_label(value: str, labels: Sequence[str], what: str) -> str:
    folded = value.strip().casefold()
    for label in labels:
        if folded == label.casefold():
            return label
    raise ParseError(f"{what} must be one of {list(labels)}, got {value!r}")

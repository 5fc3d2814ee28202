"""Per-agent parsing of fenced blocks into domain values.

Each ``parse_*`` reads its block through one record reader, :func:`_read_block`,
then checks what is specific to its agent (references to plan, document and
hypothesis ids, option labels, limits, statuses) and returns domain objects,
raising ParseError with a reason suitable for feeding back to the model on
retry. The inverse writers, which build scripted replies, live with the
tests (``tests/scripting.py``).
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping, Sequence

from .blocks import parse_block
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


def _read_block(
    raw: str, tag: str, pattern: str | None = None, singles: tuple[str, ...] = ()
) -> tuple[dict[str, str], dict[Any, dict[Any, str]]]:
    """Read the ``tag`` block into its single lines and its numbered fields.

    Returns ``(single values by key, {id: {part: value}})``. A key listed in
    ``singles`` is a single line; any other key must fully match
    ``pattern``, whose ``id`` group and optional ``part`` group (None when
    absent) name the field. Groups made of digits become ints, so ``P1.Q1``
    and ``P1.Q01`` name the same field; a field given twice is a ParseError,
    and so is a key that is neither a single line nor a field.
    """
    block = parse_block(raw, tag)
    fields: dict[Any, dict[Any, str]] = {}
    for key, value in block.items():
        if key in singles:
            continue
        match = re.fullmatch(pattern, key) if pattern else None
        if not match:
            raise ParseError(f"unexpected key in {tag} block: {key!r}")
        field_id, part = (
            int(group) if group and group.isdecimal() else group
            for group in (match["id"], match.groupdict().get("part"))
        )
        parts = fields.setdefault(field_id, {})
        if part in parts:
            raise ParseError(f"{key!r} repeats a field already given in the {tag} block")
        parts[part] = value
    return {key: block[key] for key in singles if key in block}, fields


def _field(values: Mapping[Any, str], key: Any, what: str, allow_empty: bool = False) -> str:
    """``values[key]``; a missing line, or an empty one, is a ParseError."""
    value = values.get(key)
    if value is None:
        raise ParseError(f"missing the {what} line")
    if not value and not allow_empty:
        raise ParseError(f"{what} must not be empty")
    return value


def _split_ids(value: str, what: str) -> tuple[str, ...]:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if len(set(items)) != len(items):
        raise ParseError(f"duplicate entries in {what}: {value!r}")
    return tuple(items)


def _contiguous_indices(indices: Iterable[int], what: str) -> list[int]:
    ordered = sorted(indices)
    if not ordered:
        raise ParseError(f"no {what} found in block")
    if ordered[0] != 1 or ordered[-1] != len(ordered):
        raise ParseError(f"{what} must be numbered 1..{len(ordered)} with no gaps")
    return ordered


def _find_label(text: str, labels: Sequence[str]) -> str | None:
    """The option label ``text`` names, compared case-insensitively."""
    folded = text.casefold()
    return next((label for label in labels if label.casefold() == folded), None)


# --- quick pass ---------------------------------------------------------


def parse_quick(raw: str) -> QuickAnswer:
    singles, fields = _read_block(raw, "QUICK", r"S(?P<part>[QA])(?P<id>\d+)", ("ANSWER",))
    answer = _field(singles, "ANSWER", "ANSWER")
    steps = tuple(
        SubStep(
            index=i,
            subquestion=_field(fields[i], "Q", f"SQ{i}"),
            subanswer=_field(fields[i], "A", f"SA{i}"),
        )
        for i in _contiguous_indices(fields, "SQn/SAn steps")
    )
    return QuickAnswer(steps=steps, final_answer=answer)



# --- reflection gate ----------------------------------------------------


def parse_reflection(raw: str, valid_steps: Sequence[int] = ()) -> ReflectionVerdict:
    singles, _ = _read_block(raw, "REFLECTION", singles=("DECISION", "RATIONALE", "FLAGGED"))
    decision_raw = _field(singles, "DECISION", "DECISION").upper()
    if decision_raw not in ("ACCEPT", "ESCALATE"):
        raise ParseError(f"DECISION must be ACCEPT or ESCALATE, got {decision_raw!r}")
    flagged: list[int] = []
    for item in _split_ids(singles.get("FLAGGED", ""), "FLAGGED"):
        if not item.isdecimal():
            raise ParseError(f"FLAGGED entries must be step numbers, got {item!r}")
        flagged.append(int(item))
    if valid_steps:
        unknown = [i for i in flagged if i not in valid_steps]
        if unknown:
            raise ParseError(f"FLAGGED references unknown steps: {unknown}")
    return ReflectionVerdict(
        decision=Verdict.ACCEPT if decision_raw == "ACCEPT" else Verdict.ESCALATE,
        rationale=singles.get("RATIONALE", ""),
        flagged_steps=tuple(flagged),
    )



# --- planning -----------------------------------------------------------


def parse_plan(raw: str, max_subquestions: int) -> Plan:
    _, fields = _read_block(raw, "PLAN", r"P?(?P<id>\d+)")
    indices = _contiguous_indices(fields, "plan items")
    if len(indices) > max_subquestions:
        raise ParseError(
            f"plan has {len(indices)} subquestions; at most {max_subquestions} allowed"
        )
    items = tuple(PlanItem(f"P{i}", _field(fields[i], None, f"P{i}")) for i in indices)
    return Plan(subquestions=items)



# --- search decisions ---------------------------------------------------


def parse_search(raw: str, plan: Plan) -> tuple[SearchDecision, ...]:
    _, fields = _read_block(raw, "SEARCH", r"(?P<id>P\d+)(?:\.Q(?P<part>\d+))?")
    unknown = [pid for pid in fields if pid not in plan.ids]
    if unknown:
        raise ParseError(f"verdicts or queries for unknown plan items: {unknown}")
    decisions = []
    for pid in plan.ids:
        numbered = fields.get(pid, {})
        verdict = _field(numbered, None, pid)
        del numbered[None]
        if verdict.upper() not in ("RETRIEVE", "INTERNAL"):
            raise ParseError(f"{pid} must be RETRIEVE or INTERNAL, got {verdict!r}")
        retrieve = verdict.upper() == "RETRIEVE"
        if retrieve and not numbered:
            raise ParseError(f"{pid} is marked RETRIEVE but has no {pid}.Q1 query line")
        if not retrieve and numbered:
            raise ParseError(f"{pid} is marked INTERNAL but has query lines")
        indices = _contiguous_indices(numbered, f"queries for {pid}") if retrieve else ()
        queries = tuple(_field(numbered, j, f"{pid}.Q{j}") for j in indices)
        decisions.append(
            SearchDecision(subquestion_id=pid, needs_retrieval=retrieve, queries=queries)
        )
    return tuple(decisions)



# --- reading ------------------------------------------------------------


def parse_reading(raw: str, available: Mapping[str, Sequence[str]]) -> tuple[KeyInsight, ...]:
    """``available`` maps each plan id to the doc ids retrieved for it."""
    _, fields = _read_block(raw, "READING", r"K(?P<id>\d+) (?P<part>SUBQUESTION|SOURCES|TEXT)")
    insights = []
    for i in _contiguous_indices(fields, "insights"):
        parts = fields[i]
        sq_id = _field(parts, "SUBQUESTION", f"K{i} SUBQUESTION")
        if sq_id not in available:
            raise ParseError(f"insight K{i} references unknown subquestion {sq_id!r}")
        sources = _split_ids(
            _field(parts, "SOURCES", f"K{i} SOURCES", allow_empty=True), f"K{i} SOURCES"
        )
        unknown = [d for d in sources if d not in available[sq_id]]
        if unknown:
            raise ParseError(f"insight K{i} cites documents not retrieved for {sq_id}: {unknown}")
        text = _field(parts, "TEXT", f"K{i} TEXT")
        insights.append(
            KeyInsight(id=f"K{i}", subquestion_id=sq_id, text=text, source_doc_ids=sources)
        )
    return tuple(insights)



# --- hypothesis generation ----------------------------------------------


def parse_hypotheses(
    raw: str, option_labels: Sequence[str], max_hypotheses: int
) -> tuple[Hypothesis, ...]:
    _, fields = _read_block(raw, "HYPOTHESES", r"H(?P<id>\d+) (?P<part>OPTION|STATEMENT)")
    indices = _contiguous_indices(fields, "hypotheses")
    if option_labels and len(indices) != len(option_labels):
        raise ParseError(
            f"expected one hypothesis per option ({len(option_labels)} total), got {len(indices)}"
        )
    if not option_labels and len(indices) > max_hypotheses:
        raise ParseError(f"got {len(indices)} hypotheses; at most {max_hypotheses} allowed")
    hypotheses = []
    claimed: dict[str, int] = {}
    for i in indices:
        parts = fields[i]
        label = None
        if option_labels:
            option = _field(parts, "OPTION", f"H{i} OPTION")
            label = _find_label(option, option_labels)
            if label is None:
                raise ParseError(
                    f"H{i} OPTION must be one of {list(option_labels)}, got {option!r}"
                )
            if label in claimed:
                raise ParseError(f"option {label!r} claimed by both H{claimed[label]} and H{i}")
            claimed[label] = i
        elif "OPTION" in parts:
            raise ParseError(f"H{i} has an OPTION line but the question has no options")
        statement = _field(parts, "STATEMENT", f"H{i} STATEMENT")
        hypotheses.append(Hypothesis(id=f"H{i}", statement=statement, option_label=label))
    return tuple(hypotheses)



# --- integration --------------------------------------------------------


def parse_integration(
    raw: str, hypotheses: Sequence[Hypothesis], evidence_ids: Sequence[str]
) -> tuple[tuple[HypothesisVerdict, ...], IntegratedHypothesis]:
    singles, fields = _read_block(
        raw, "INTEGRATION", r"(?P<id>H\d+) (?P<part>STATUS|EVIDENCE|JUSTIFICATION)",
        ("INTEGRATED", "INTEGRATED FROM"),
    )
    known = {hyp.id for hyp in hypotheses}
    unknown = [hid for hid in fields if hid not in known]
    if unknown:
        raise ParseError(f"verdicts for unknown hypotheses: {unknown}")
    integrated_text = _field(singles, "INTEGRATED", "INTEGRATED")

    verdicts = []
    evidence_set = set(evidence_ids)
    for hyp in hypotheses:
        parts = fields.get(hyp.id, {})
        status_raw = _field(parts, "STATUS", f"{hyp.id} STATUS").upper()
        if status_raw not in ("SUPPORTED", "REFUTED", "INCONCLUSIVE"):
            raise ParseError(
                f"{hyp.id} STATUS must be SUPPORTED, REFUTED, or INCONCLUSIVE, "
                f"got {parts['STATUS']!r}"
            )
        status = HypothesisStatus(status_raw.lower())
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
    from_ids = _split_ids(singles.get("INTEGRATED FROM", ""), "INTEGRATED FROM")
    bad = [h for h in from_ids if h not in supported]
    if bad:
        raise ParseError(f"INTEGRATED FROM may only list SUPPORTED hypotheses; got {bad}")
    integrated = IntegratedHypothesis(text=integrated_text, supporting_hypothesis_ids=from_ids)
    return tuple(verdicts), integrated



# --- decision -----------------------------------------------------------


def parse_decision(
    raw: str, hypotheses: Sequence[Hypothesis], option_labels: Sequence[str]
) -> Decision:
    singles, _ = _read_block(raw, "DECISION", singles=("ANSWER", "RANKING", "JUSTIFICATION"))
    answer = _field(singles, "ANSWER", "ANSWER")
    chosen = extract_choice(answer, option_labels) if option_labels else None
    ranking = _split_ids(singles.get("RANKING", ""), "RANKING")
    expected = {hyp.id for hyp in hypotheses}
    if set(ranking) != expected:
        raise ParseError(
            f"RANKING must order all hypothesis ids exactly once "
            f"({sorted(expected)}), got {list(ranking)}"
        )
    justification = singles.get("JUSTIFICATION", "")
    return Decision(
        answer=answer, chosen_option=chosen, ranking=ranking, justification=justification
    )



# --- option-label extraction ---------------------------------------------


def extract_choice(text: str, labels: Sequence[str]) -> str:
    """Map a free-text answer onto one of the option labels.

    The whole text (stripped) is tried first, then the first whitespace
    token with wrapping punctuation removed; both comparisons are
    case-insensitive. Anything else is a ParseError.
    """
    candidates = [text.strip()]
    tokens = text.split()
    if tokens:
        candidates.append(tokens[0].lstrip(_LEADING_WRAP).rstrip(_TRAILING_WRAP))
    for candidate in candidates:
        label = _find_label(candidate, labels)
        if label is not None:
            return label
    raise ParseError(f"answer {text!r} does not start with one of the option labels {list(labels)}")

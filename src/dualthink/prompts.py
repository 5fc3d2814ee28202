"""Prompt templates for all eight agents.

Templates use ``string.Template`` placeholders (``${question}`` etc.) and are
rendered with total substitution: a missing or unknown placeholder raises
TemplateError rather than passing through silently.

Every template spells out the fenced block the agent must reply in, so the
parsers in :mod:`dualthink.parsers` and these prompts form matched pairs.
Deployments can override any template by dropping ``<agent>.txt`` files into
a directory (see :meth:`PromptLibrary.from_dir`).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

from .errors import TemplateError
from .types import Agent

#: Separator line splitting an override file into system and user parts.
OVERRIDE_SEPARATOR = "---"


@dataclass(frozen=True)
class PromptTemplate:
    agent: Agent
    system_text: str
    user_template: str

    def placeholders(self) -> set[str]:
        found: set[str] = set()
        for match in string.Template.pattern.finditer(self.user_template):
            name = match.group("named") or match.group("braced")
            if name:
                found.add(name)
        return found

    def render(self, **values: str) -> tuple[str, str]:
        """Returns (system_text, user_text); all placeholders must be supplied."""
        try:
            user_text = string.Template(self.user_template).substitute(values)
        except (KeyError, ValueError) as exc:
            raise TemplateError(
                f"{self.agent.value} template: bad or missing placeholder ({exc})"
            ) from exc
        return self.system_text, user_text


_QUICK_SYSTEM = (
    "You answer questions by thinking in quick, explicit steps. "
    "Decompose the question into a few subquestions, answer each in one line, "
    "then commit to a final answer. Follow the output format exactly."
)

_QUICK_USER = """\
Question:
${question}

Work through the question as numbered subquestion/subanswer pairs, then give
your final answer.${answer_hint}

Reply with exactly one block in this format:

BEGIN QUICK
SQ1: <first subquestion>
SA1: <answer to SQ1>
SQ2: <second subquestion>
SA2: <answer to SQ2>
ANSWER: <final answer>
END QUICK

Use as many SQn/SAn pairs as you need (at least one). Number them 1, 2, 3, ...
with no gaps, and keep every value on a single line.
"""

_REFLECTION_SYSTEM = (
    "You audit a quick chain of reasoning for errors, gaps, and unsupported "
    "leaps. You do not solve the question yourself; you only judge whether "
    "the quick answer can be trusted."
)

_REFLECTION_USER = """\
Question:
${question}

Quick reasoning to audit:
${quick_trace}

Decide whether the final answer can be accepted as-is, or whether the
question should be escalated to slower, evidence-based deliberation.
Escalate if any step is wrong, unsupported, or the answer does not follow.

Reply with exactly one block in this format:

BEGIN REFLECTION
DECISION: <ACCEPT or ESCALATE>
RATIONALE: <one line explaining the decision>
FLAGGED: <comma-separated step numbers that are suspect, or omit this line>
END REFLECTION
"""

_PLANNING_SYSTEM = (
    "You break a hard question into a short sequence of answerable "
    "subquestions. Good subquestions are specific, self-contained, and "
    "together sufficient to settle the original question."
)

_PLANNING_USER = """\
Question:
${question}
${prior_context}
Produce at most ${max_subquestions} subquestions. Each must be answerable on
its own and phrased as a question.

Reply with exactly one block in this format:

BEGIN PLAN
P1: <first subquestion>
P2: <second subquestion>
END PLAN

Number the lines P1, P2, ... with no gaps.
"""

_SEARCH_SYSTEM = (
    "You decide, per subquestion, whether external documents are needed or "
    "internal knowledge suffices, and you write search queries for the ones "
    "that need retrieval."
)

_SEARCH_USER = """\
Question:
${question}

Subquestions:
${subquestions}

For every subquestion, decide RETRIEVE (documents needed) or INTERNAL
(answerable from general knowledge). For each RETRIEVE, also write one or
more short keyword queries.

Reply with exactly one block in this format:

BEGIN SEARCH
P1: RETRIEVE
P1.Q1: <first query for P1>
P1.Q2: <second query for P1>
P2: INTERNAL
END SEARCH

Give a verdict line for every subquestion. Add Pn.Qm lines only for
subquestions marked RETRIEVE (at least one each), numbered from Q1 with no
gaps.
"""

_READING_SYSTEM = (
    "You read retrieved material and distill it into key insights, one or "
    "more per subquestion, each citing the documents it came from. Insights "
    "must be faithful to the material; do not invent sources."
)

_READING_USER = """\
Question:
${question}

Material, grouped by subquestion:
${material}

Extract the key insights needed to answer the question. Each insight serves
one subquestion and cites the ids of the documents it draws on (leave SOURCES
empty for an insight from internal knowledge).

Reply with exactly one block in this format:

BEGIN READING
K1 SUBQUESTION: P1
K1 SOURCES: d3, d7
K1 TEXT: <the insight, one line>
K2 SUBQUESTION: P2
K2 SOURCES:
K2 TEXT: <the insight, one line>
END READING

Number insights K1, K2, ... with no gaps; give all three lines for each.
Cite only document ids that appear in the material for that subquestion.
"""

_HYPOTHESIS_SYSTEM = (
    "You enumerate candidate answers as explicit, testable hypotheses. "
    "Each hypothesis is a single declarative sentence asserting one candidate "
    "answer to the question."
)

_HYPOTHESIS_USER = """\
Question:
${question}

${hypothesis_brief}

Reply with exactly one block in this format:

BEGIN HYPOTHESES
H1 OPTION: A
H1 STATEMENT: <declarative sentence asserting candidate A>
H2 OPTION: B
H2 STATEMENT: <declarative sentence asserting candidate B>
END HYPOTHESES

Number hypotheses H1, H2, ... with no gaps. Include an OPTION line only when
the question has lettered options; otherwise give STATEMENT lines only.
"""

_INTEGRATION_SYSTEM = (
    "You weigh each hypothesis against the collected evidence, mark it "
    "SUPPORTED, REFUTED, or INCONCLUSIVE, and merge what survives into one "
    "integrated conclusion. Cite evidence ids; never cite what is not there."
)

_INTEGRATION_USER = """\
Question:
${question}

Hypotheses:
${hypotheses}

Evidence:
${evidence}

For every hypothesis give a STATUS (SUPPORTED, REFUTED, or INCONCLUSIVE), the
EVIDENCE ids that ground the verdict (required for SUPPORTED and REFUTED,
empty allowed for INCONCLUSIVE), and a one-line JUSTIFICATION. Then state the
integrated conclusion and which hypotheses it rests on.

Reply with exactly one block in this format:

BEGIN INTEGRATION
H1 STATUS: SUPPORTED
H1 EVIDENCE: K1, K3
H1 JUSTIFICATION: <one line>
H2 STATUS: REFUTED
H2 EVIDENCE: K2
H2 JUSTIFICATION: <one line>
INTEGRATED: <one-line integrated conclusion>
INTEGRATED FROM: H1
END INTEGRATION

Give all three H-lines for every hypothesis. INTEGRATED FROM lists the
supported hypotheses the conclusion rests on (may be empty).
"""

_DECISION_SYSTEM = (
    "You commit to a final answer. Weigh the deliberation so far, pick the "
    "best-supported answer, and state it plainly. Follow the output format "
    "exactly."
)

_DECISION_USER = """\
Question:
${question}

Deliberation so far:
${context}

Commit to the final answer.${answer_hint}

Reply with exactly one block in this format:

BEGIN DECISION
ANSWER: <the final answer>
${ranking_instruction}JUSTIFICATION: <one line>
END DECISION
"""

#: Extra DECISION block line requested when hypotheses exist.
RANKING_INSTRUCTION = "RANKING: <all hypothesis ids, best first, comma-separated>\n"

_DEFAULTS: dict[Agent, PromptTemplate] = {
    Agent.QUICK: PromptTemplate(Agent.QUICK, _QUICK_SYSTEM, _QUICK_USER),
    Agent.REFLECTION: PromptTemplate(Agent.REFLECTION, _REFLECTION_SYSTEM, _REFLECTION_USER),
    Agent.PLANNING: PromptTemplate(Agent.PLANNING, _PLANNING_SYSTEM, _PLANNING_USER),
    Agent.SEARCH: PromptTemplate(Agent.SEARCH, _SEARCH_SYSTEM, _SEARCH_USER),
    Agent.READING: PromptTemplate(Agent.READING, _READING_SYSTEM, _READING_USER),
    Agent.HYPOTHESIS: PromptTemplate(Agent.HYPOTHESIS, _HYPOTHESIS_SYSTEM, _HYPOTHESIS_USER),
    Agent.INTEGRATION: PromptTemplate(Agent.INTEGRATION, _INTEGRATION_SYSTEM, _INTEGRATION_USER),
    Agent.DECISION: PromptTemplate(Agent.DECISION, _DECISION_SYSTEM, _DECISION_USER),
}


class PromptLibrary:
    """Lookup table from agent to template, with file-based overrides."""

    def __init__(self, templates: dict[Agent, PromptTemplate]):
        missing = set(Agent) - set(templates)
        if missing:
            raise TemplateError(
                f"missing templates for: {sorted(a.value for a in missing)}"
            )
        self._templates = dict(templates)

    def get(self, agent: Agent) -> PromptTemplate:
        return self._templates[agent]

    @classmethod
    def default(cls) -> "PromptLibrary":
        return cls(dict(_DEFAULTS))

    @classmethod
    def from_dir(cls, path: str | Path) -> "PromptLibrary":
        """Defaults, with any ``<agent>.txt`` files in ``path`` overriding.

        An override file is either the user template alone, or a system text
        and user template separated by a line containing only ``---``. Only
        a newline, CRLF or CR ends a line; a U+2028, form feed or other break
        is kept as written. Its user template must use exactly the default
        template's placeholders, and every other ``$`` must be written ``$$``.
        """
        directory = Path(path)
        if not directory.is_dir():
            raise TemplateError(f"prompt override directory not found: {directory}")
        templates = dict(_DEFAULTS)
        for agent in Agent:
            file = directory / f"{agent.value}.txt"
            if not file.is_file():
                continue
            try:
                raw = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise TemplateError(f"cannot read override {file}: {exc}") from exc
            system_text, user_template = _split_override(raw, templates[agent].system_text)
            if not user_template.strip():
                raise TemplateError(f"override {file} has an empty user template")
            matches = string.Template.pattern.finditer(user_template)
            if any(m["invalid"] is not None for m in matches):
                raise TemplateError(f"override {file} has a stray '$'; write '$$' for one")
            template = PromptTemplate(agent, system_text, user_template)
            found, wanted = template.placeholders(), templates[agent].placeholders()
            if found != wanted:
                raise TemplateError(
                    f"override {file} must use the placeholders {sorted(wanted)}; "
                    f"missing {sorted(wanted - found)}, unknown {sorted(found - wanted)}"
                )
            templates[agent] = template
        return cls(templates)


def _split_override(raw: str, default_system: str) -> tuple[str, str]:
    # "\n" is the only break: reading the file in text mode has already made
    # "\r\n" and "\r" into "\n", and a U+2028 or form feed is the author's text.
    lines = raw.removesuffix("\n").split("\n")
    for i, line in enumerate(lines):
        if line.strip() == OVERRIDE_SEPARATOR:
            system = "\n".join(lines[:i]).strip()
            user = "\n".join(lines[i + 1 :]).lstrip("\n")
            return system, user
    return default_system, raw


def quote_injected(value: str, max_chars: int) -> str:
    """Indent-quote a value before splicing it into a prompt.

    Every line gets a ``  | `` prefix so injected text can never produce a
    bare ``BEGIN``/``END`` fence or a parseable ``KEY: value`` line. Text
    beyond ``max_chars`` is dropped with a visible marker.
    """
    if len(value) > max_chars:
        value = value[:max_chars] + " ...[truncated]"
    lines = value.splitlines() or [""]
    return "\n".join("  | " + line for line in lines)

"""Loading question sets from JSONL files.

Multiple-choice records look like::

    {"id": "q1", "question": "...", "options": {"A": "...", "B": "..."},
     "answer": "B", "difficulty": "Hard"}

Open-ended records replace "options"/"answer" with either "answer" (one
string) or "answers" (list of acceptable strings). Malformed lines raise
FormatError carrying the 1-based line number.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ConfigError, FormatError
from .types import Difficulty, Question

DATASET_KINDS = ("auto", "mcq", "open")


@dataclass(frozen=True)
class DatasetSpec:
    """Where to load from, plus optional shuffling and truncation."""

    path: str
    kind: str = "auto"
    limit: int | None = None
    shuffle_seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise FormatError(f"dataset kind must be auto, mcq, or open; got {self.kind!r}")
        if self.limit is not None and self.limit < 1:
            raise FormatError(f"dataset limit must be >= 1, got {self.limit}")


def load_dataset(spec: DatasetSpec | str | Path) -> list[Question]:
    if not isinstance(spec, DatasetSpec):
        spec = DatasetSpec(path=str(spec))
    try:
        lines = Path(spec.path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read dataset {spec.path}: {exc}") from exc
    questions = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise FormatError(f"invalid JSON ({exc})", line=lineno) from exc
        if not isinstance(record, dict):
            raise FormatError("each line must be a JSON object", line=lineno)
        questions.append(_parse_record(record, lineno, spec.kind))
    if spec.shuffle_seed is not None:
        random.Random(spec.shuffle_seed).shuffle(questions)
    if spec.limit is not None:
        questions = questions[: spec.limit]
    return questions


def _parse_record(record: dict[str, Any], lineno: int, kind: str) -> Question:
    text = record.get("question")
    if not isinstance(text, str) or not text.strip():
        raise FormatError("missing or empty 'question' field", line=lineno)
    qid = str(record.get("id") or f"q{lineno:04d}")

    options_raw = record.get("options")
    has_options = bool(options_raw)
    if kind == "mcq" and not has_options:
        raise FormatError("mcq dataset but record has no 'options'", line=lineno)
    if kind == "open" and has_options:
        raise FormatError("open dataset but record has 'options'", line=lineno)

    difficulty = None
    if record.get("difficulty") is not None:
        try:
            difficulty = Difficulty.from_label(str(record["difficulty"]))
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from exc

    options: tuple[tuple[str, str], ...] = ()
    aliases: list[str] = []
    if has_options:
        if not isinstance(options_raw, dict):
            raise FormatError("'options' must be an object of label: text", line=lineno)
        options = tuple(
            (str(label), str(option_text)) for label, option_text in options_raw.items()
        )
        if record.get("answer") is not None:
            gold = str(record["answer"])
            if gold not in dict(options):
                raise FormatError(
                    f"'answer' {gold!r} is not an option label", line=lineno
                )
            aliases = [gold]
    elif "answers" in record:
        raw = record["answers"]
        if not isinstance(raw, list) or not all(isinstance(a, str) for a in raw):
            raise FormatError("'answers' must be a list of strings", line=lineno)
        aliases = [a for a in raw if a.strip()]
    elif record.get("answer") is not None:
        aliases = [str(record["answer"])]
    try:
        return Question(
            id=qid,
            text=text,
            options=options,
            gold=aliases[0] if aliases else None,
            gold_aliases=tuple(aliases),
            difficulty=difficulty,
        )
    except ConfigError as exc:
        raise FormatError(str(exc), line=lineno) from exc

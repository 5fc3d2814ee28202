"""Loading question sets from JSONL files.

Multiple-choice records look like::

    {"id": "q1", "question": "...", "options": {"A": "...", "B": "..."},
     "answer": "B", "difficulty": "Hard"}

Open-ended records replace "options"/"answer" with either "answer" (one
string) or "answers" (list of acceptable strings). A missing, null or empty
"id" becomes "q" and the 4-digit line number; any other id is ``str(id)``. Malformed lines raise
FormatError carrying the 1-based line number. :func:`read_jsonl` reads every
JSONL file a line at a time; :func:`write_atomic` writes every whole file.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, FormatError
from .types import Difficulty, Question

DATASET_KINDS = ("auto", "mcq", "open")


def load_dataset(
    path: str | Path, kind: str = "auto", limit: int | None = None, shuffle_seed: int | None = None
) -> list[Question]:
    """The questions in ``path``, each checked against ``kind``, shuffled
    when ``shuffle_seed`` is given, then cut to the first ``limit``."""
    if kind not in DATASET_KINDS:
        raise FormatError(f"dataset kind must be auto, mcq, or open; got {kind!r}")
    if limit is not None and limit < 1:
        raise FormatError(f"dataset limit must be >= 1, got {limit}")
    questions = []
    try:
        for lineno, record in read_jsonl(path, FormatError):
            if not isinstance(record, dict):
                raise FormatError("each line must be a JSON object", line=lineno)
            questions.append(_parse_record(record, lineno, kind))
    except OSError as exc:
        raise FormatError(f"cannot read dataset {path}: {exc}") from exc
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(questions)
    return questions[:limit]


def read_jsonl(
    path: str | Path, error: Callable[[str, int], Exception]
) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, JSON value) for each non-blank line, read a
    line at a time and split on ``\\n`` only: a JSON string may hold a raw
    U+2028, U+2029 or U+0085. A line that is not UTF-8 or not JSON raises
    ``error(message, lineno)``; an ``OSError`` is the caller's to wrap."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                message = f"{path} is not UTF-8 ({exc.reason} at byte {exc.start})"
                raise error(message, lineno) from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise error(f"invalid JSON ({exc})", lineno) from exc
            yield lineno, record


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or its pieces in order, to a sibling temp
    file, then rename it over ``path``, so a crash leaves the old file or the
    new one, never half of one. The temp name ends in ``.tmp``, never
    ``.json``. Nothing is fsynced: a power loss can still tear the file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the write's own error
            tmp.unlink()
        raise


def _parse_record(record: dict[str, Any], lineno: int, kind: str) -> Question:
    text = record.get("question")
    if not isinstance(text, str) or not text.strip():
        raise FormatError("missing or empty 'question' field", line=lineno)
    raw_id = record.get("id")
    qid = f"q{lineno:04d}" if raw_id in (None, "") else str(raw_id)

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
            aliases = [str(record["answer"])]
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

import json

import pytest

from dualthink.dataset import load_dataset
from dualthink.errors import FormatError
from dualthink.types import Difficulty, QuestionKind


def _write(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_loads_mcq_records(tmp_path):
    path = _write(
        tmp_path,
        [
            json.dumps(
                {
                    "id": "q1",
                    "question": "Pick the capital.",
                    "options": {"A": "Paris", "B": "Rome"},
                    "answer": "A",
                    "difficulty": "Very Easy",
                }
            )
        ],
    )
    questions = load_dataset(path)
    assert len(questions) == 1
    q = questions[0]
    assert q.kind is QuestionKind.MCQ
    assert q.options == (("A", "Paris"), ("B", "Rome"))
    assert q.gold == "A"
    assert q.gold_aliases == ("A",)
    assert q.difficulty is Difficulty.VERY_EASY


def test_loads_open_records_with_aliases(tmp_path):
    path = _write(
        tmp_path,
        [
            json.dumps({"id": "q1", "question": "Who?", "answers": ["Obama", "Barack Obama"]}),
            json.dumps({"id": "q2", "question": "Where?", "answer": "Paris"}),
            json.dumps({"question": "Ungraded?"}),
        ],
    )
    questions = load_dataset(path)
    assert questions[0].gold_aliases == ("Obama", "Barack Obama")
    assert questions[0].gold == "Obama"
    assert questions[1].gold_aliases == ("Paris",)
    assert questions[2].gold is None
    assert questions[2].id == "q0003"  # line-number fallback id


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"id": "a", "question": "one?"}\n\n\n{"id": "b", "question": "two?"}\n',
        encoding="utf-8",
    )
    assert [q.id for q in load_dataset(path)] == ["a", "b"]


def test_format_error_carries_line_number(tmp_path):
    lines = [json.dumps({"id": f"q{i}", "question": f"n {i}?"}) for i in range(1, 17)]
    lines.append("{broken json")
    path = _write(tmp_path, lines)
    with pytest.raises(FormatError) as info:
        load_dataset(path)
    assert "line 17" in str(info.value)


@pytest.mark.parametrize(
    "record",
    [
        {"id": "q", "question": ""},
        {"id": "q"},
        {"id": "q", "question": "x?", "options": {"A": "1"}, "answer": "B"},
        {"id": "q", "question": "x?", "options": "not a dict"},
        {"id": "q", "question": "x?", "answers": "not a list"},
        {"id": "q", "question": "x?", "difficulty": "insane"},
    ],
)
def test_bad_records_are_rejected(tmp_path, record):
    path = _write(tmp_path, [json.dumps(record)])
    with pytest.raises(FormatError):
        load_dataset(path)


def test_only_a_missing_null_or_empty_id_takes_the_line_number(tmp_path):
    lines = [
        json.dumps({"id": 0, "question": "zero?"}),
        json.dumps({"id": 1, "question": "one?"}),
        json.dumps({"question": "missing?"}),
        json.dumps({"id": None, "question": "null?"}),
        json.dumps({"id": "", "question": "empty?"}),
        json.dumps({"id": False, "question": "false?"}),
    ]
    path = _write(tmp_path, lines)
    ids = [q.id for q in load_dataset(path)]
    assert ids == ["0", "1", "q0003", "q0004", "q0005", "False"]


def test_option_labels_that_differ_only_in_case_name_their_line(tmp_path):
    good = {"id": "q1", "question": "x?", "options": {"A": "1", "B": "2"}, "answer": "A"}
    bad = {"id": "q2", "question": "y?", "options": {"A": "1", "a": "2"}, "answer": "a"}
    path = _write(tmp_path, [json.dumps(good), json.dumps(bad)])
    with pytest.raises(FormatError) as info:
        load_dataset(path)
    assert "line 2" in str(info.value) and "ignoring case" in str(info.value)


def test_kind_constraint_is_enforced(tmp_path):
    mcq_line = json.dumps(
        {"id": "q", "question": "x?", "options": {"A": "1", "B": "2"}, "answer": "A"}
    )
    open_line = json.dumps({"id": "q", "question": "x?", "answer": "y"})
    path = _write(tmp_path, [mcq_line])
    load_dataset(path, kind="mcq")
    with pytest.raises(FormatError):
        load_dataset(path, kind="open")
    path2 = _write(tmp_path, [open_line], name="open.jsonl")
    load_dataset(path2, kind="open")
    with pytest.raises(FormatError):
        load_dataset(path2, kind="mcq")


def test_limit_and_shuffle(tmp_path):
    lines = [json.dumps({"id": f"q{i}", "question": f"n {i}?"}) for i in range(10)]
    path = _write(tmp_path, lines)
    limited = load_dataset(path, limit=3)
    assert [q.id for q in limited] == ["q0", "q1", "q2"]
    # limit larger than the dataset is clamped, not an error
    assert len(load_dataset(path, limit=99)) == 10

    shuffled = load_dataset(path, shuffle_seed=42)
    assert sorted(q.id for q in shuffled) == sorted(f"q{i}" for i in range(10))
    assert [q.id for q in shuffled] != [f"q{i}" for i in range(10)]
    again = load_dataset(path, shuffle_seed=42)
    assert [q.id for q in again] == [q.id for q in shuffled]
    # shuffle happens before the limit, so the prefix differs too
    head = load_dataset(path, shuffle_seed=42, limit=4)
    assert [q.id for q in head] == [q.id for q in shuffled][:4]


def test_spec_validation(tmp_path):
    # kind and limit are checked before the file is opened
    absent = tmp_path / "absent.jsonl"
    with pytest.raises(FormatError, match="dataset kind must be auto, mcq, or open"):
        load_dataset(absent, kind="weird")
    with pytest.raises(FormatError, match="dataset limit must be >= 1"):
        load_dataset(absent, limit=0)


def test_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "absent.jsonl")


def test_dataset_lines_split_on_newline_only(tmp_path):
    # U+2028, U+2029 and U+0085 may stand unescaped in a JSON string, and
    # json.dumps(..., ensure_ascii=False) writes them so.
    texts = ["one?", "two\u2028lines\u2029or\x85three?", "four?"]
    lines = [
        json.dumps({"id": f"q{i}", "question": text}, ensure_ascii=False)
        for i, text in enumerate(texts)
    ]
    path = _write(tmp_path, [*lines, "{broken json"])
    with pytest.raises(FormatError, match="line 4: invalid JSON"):
        load_dataset(path)
    path = _write(tmp_path, lines)
    assert [q.text for q in load_dataset(path)] == texts


def test_dataset_that_is_not_utf8_names_the_file_and_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"question": "ok?"}\n\n{"question": "café?"}\n'.encode("latin-1"))
    with pytest.raises(FormatError) as info:
        load_dataset(path)
    assert info.value.line == 3
    assert str(info.value).startswith(f"line 3: {path} is not UTF-8")

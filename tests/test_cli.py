import argparse
import json
import re

import pytest

import dualthink.cli
from dualthink.backend import RetryPolicy
from dualthink.cli import build_parser, main
from dualthink.errors import BackendError
from dualthink.presets import preset
from dualthink.retrieval import BM25Index, Doc
from dualthink.types import PipelineConfig, Question, Verdict

from scripting import entries_for, entries_for_many, quick_completion

S1_ONLY = PipelineConfig(stages=frozenset(), reflection_enabled=False)
HD = preset("System 2 (Hypothesis + Decision)")


def write_script(path, entries):
    data = []
    for entry in entries:
        item = {"completion": entry.completion}
        if entry.matcher:
            item["matcher"] = entry.matcher
        data.append(item)
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def write_dataset(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


def mcq_rows(n, gold="A", difficulty=None):
    rows = []
    for i in range(1, n + 1):
        row = {
            "id": f"q{i:02d}",
            "question": f"Benchmark question {i}?",
            "options": {"A": "first", "B": "second"},
            "answer": gold,
        }
        if difficulty:
            row["difficulty"] = difficulty
        rows.append(row)
    return rows


def dataset_questions(rows):
    return [
        Question(
            id=r["id"],
            text=r["question"],
            options=tuple(r["options"].items()),
            gold=r["answer"],
        )
        for r in rows
    ]


# --- ask -------------------------------------------------------------------


def test_ask_open_question_with_scripted_backend(tmp_path, capsys):
    question = Question(id="cli", text="Which gas dominates air?")
    script = write_script(
        tmp_path / "s.json", entries_for(question, S1_ONLY, "nitrogen")
    )
    code = main(
        [
            "ask",
            "Which gas dominates air?",
            "--preset",
            "System 1",
            "--backend",
            "scripted",
            "--script",
            script,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "nitrogen\n"
    assert "[system 1;" in captured.err


def test_ask_mcq_prints_label_and_writes_trace(tmp_path, capsys):
    question = Question(
        id="cli", text="Pick one.", options=(("A", "yes"), ("B", "no"))
    )
    script = write_script(tmp_path / "s.json", entries_for(question, HD, "A"))
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "ask",
            "Pick one.",
            "--option",
            "A=yes",
            "--option",
            "B=no",
            "--preset",
            "System 2 (Hypothesis + Decision)",
            "--backend",
            "scripted",
            "--script",
            script,
            "--trace",
            str(trace_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("A:")
    assert "[system 2;" in captured.err
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["question_id"] == "cli"
    assert trace["chosen_option"] == "A"


def test_ask_bad_option_syntax_is_a_usage_error(capsys):
    code = main(["ask", "Pick.", "--option", "nonsense", "--backend", "scripted"])
    assert code == 2
    assert "LABEL=TEXT" in capsys.readouterr().err


def test_ask_parse_failure_exits_one(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", [])
    (tmp_path / "s.json").write_text(json.dumps(["garbage"]), encoding="utf-8")
    code = main(
        [
            "ask",
            "Anything?",
            "--preset",
            "System 1",
            "--max-parse-retries",
            "0",
            "--backend",
            "scripted",
            "--script",
            script,
        ]
    )
    assert code == 1
    assert "error: [quick] no 'BEGIN QUICK' line found" in capsys.readouterr().err


def test_malformed_script_entry_exits_two(tmp_path, capsys):
    script = tmp_path / "s.json"
    for entry in ({"completion": "x", "usage": 5}, {"completion": "x", "matcher": 5}):
        script.write_text(json.dumps([entry]), encoding="utf-8")
        code = main(["ask", "Hm?", "--backend", "scripted", "--script", str(script)])
        assert code == 2
        assert f"script {script} entry 0:" in capsys.readouterr().err


def test_unknown_preset_exits_two(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", [])
    code = main(
        ["ask", "Hm?", "--preset", "System 3", "--backend", "scripted", "--script", script]
    )
    assert code == 2
    assert "unknown preset" in capsys.readouterr().err


def test_missing_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# --- config file ----------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    question = Question(id="cli", text="Which gas dominates air?")
    file_script = write_script(
        tmp_path / "file.json", entries_for(question, S1_ONLY, "nitrogen")
    )
    config_path = tmp_path / "dualthink.ini"
    config_path.write_text(
        "[pipeline]\npreset = System 1\n\n"
        f"[backend]\nkind = scripted\nscript = {file_script}\n",
        encoding="utf-8",
    )
    # file values apply when no flags are given
    code = main(["--config", str(config_path), "ask", "Which gas dominates air?"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "nitrogen\n"
    assert "[system 1;" in captured.err

    # a --preset flag overrides the file's preset
    mcq = Question(id="cli", text="Pick.", options=(("A", "x"), ("B", "y")))
    flag_script = write_script(tmp_path / "flag.json", entries_for(mcq, HD, "B"))
    code = main(
        [
            "--config",
            str(config_path),
            "ask",
            "Pick.",
            "--option",
            "A=x",
            "--option",
            "B=y",
            "--preset",
            "System 2 (Hypothesis + Decision)",
            "--script",
            flag_script,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("B:")
    assert "[system 2;" in captured.err


def test_missing_config_file_exits_two(capsys):
    code = main(["--config", "/nonexistent/dualthink.ini", "ask", "Hm?"])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def ask_with_config(tmp_path, config_text, *flags, backend="scripted"):
    question = Question(id="cli", text="Which gas dominates air?")
    script = write_script(tmp_path / "s.json", entries_for(question, S1_ONLY, "nitrogen"))
    config_path = tmp_path / "dualthink.ini"
    config_path.write_text(config_text, encoding="utf-8")
    argv = ["--config", str(config_path), "ask", question.text, "--preset", "System 1"]
    return main(argv + ["--backend", backend, "--script", script, *flags])


@pytest.mark.parametrize(
    "config_text, named",
    [
        ("[pipeline]\nk_retrieval = abc\n", "[pipeline] k_retrieval = 'abc' is not a valid int"),
        ("[pipeline]\nforce_system2 = maybe\n", "[pipeline] force_system2 = 'maybe'"),
        ("[backend]\nkind = telepathy\n", "[backend] kind = 'telepathy'"),
        ("[pipeline]\nk = 3\n", "unknown setting [pipeline] k"),
        ("[pipeline]\nmax_subquestion = 2\n", "unknown setting [pipeline] max_subquestion"),
        ("[backnd]\n", "unknown section [backnd]"),
        ("[DEFAULT]\nk_retrieval = abc\n", "unknown section [DEFAULT]"),
    ],
    ids=["int", "bool", "choice", "unknown-key", "misspelt-key", "unknown-section", "default"],
)
def test_bad_config_values_and_unknown_keys_exit_two(tmp_path, capsys, config_text, named):
    assert ask_with_config(tmp_path, config_text) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, flags, named",
    [
        ("max_attempts = 0\n", [], "max_attempts must be >= 1"),
        ("", ["--timeout", "0"], "timeout must be > 0"),
    ],
    ids=["max-attempts-0", "timeout-0"],
)
def test_retry_and_timeout_values_that_cannot_work_exit_two(
    tmp_path, capsys, setting, flags, named
):
    config_text = "[backend]\nendpoint = http://127.0.0.1:9\nmodel = m\n" + setting
    assert ask_with_config(tmp_path, config_text, *flags, backend="http") == 2
    assert named in capsys.readouterr().err


def test_backend_settings_build_both_kinds(tmp_path, monkeypatch, capsys):
    built = []

    class RecordingHttp:
        def __init__(self, *args, **kwargs):
            built.append((args, kwargs))

        def complete(self, request):
            raise BackendError("offline")

    config = "[backend]\nendpoint = http://x\nmodel = m\ntimeout = 5\nmax_attempts = 2\n"
    monkeypatch.setattr(dualthink.cli, "HttpChatBackend", RecordingHttp)
    assert ask_with_config(tmp_path, config, "--api-key-env", "K", backend="http") == 1
    assert built == [
        (("http://x", "m"), {"api_key_env": "K", "timeout": 5.0, "retry": RetryPolicy(2)})
    ]
    monkeypatch.undo()
    assert ask_with_config(tmp_path, config, "--timeout", "9") == 0
    capsys.readouterr()
    for config_text, flags, message in (
        ("[backend]\nkind = scripted\n", [], "needs --script"),
        ("[backend]\nkind = telepathy\n", [], "[backend] kind"),
        ("[backend]\nendpoint =\nmodel = m\n", ["--backend", "http"], "endpoint"),
    ):
        (tmp_path / "bad.ini").write_text(config_text, encoding="utf-8")
        argv = ["--config", str(tmp_path / "bad.ini"), "ask", "Hm?", *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def subcommand_flags(*path):
    parser = build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}


_RUN_FLAGS = {
    "--k", "--max-subquestions", "--max-hypotheses", "--max-parse-retries", "--temperature",
    "--max-tokens", "--prompt-dir", "--backend", "--endpoint", "--model", "--api-key-env",
    "--timeout", "--script", "--index", "--corpus", "--k1", "--b",
}
_DATA_FLAGS = {"--dataset", "--dataset-kind", "--limit", "--shuffle-seed", "--out", "--parallelism"}


@pytest.mark.parametrize(
    "path, flags",
    [
        (("ask",), _RUN_FLAGS | {"--preset", "--force-system2", "--option", "--trace"}),
        (("bench",), _RUN_FLAGS | _DATA_FLAGS | {"--preset", "--force-system2", "--name", "--stratified"}),
        (("ablate",), _RUN_FLAGS | _DATA_FLAGS | {"--presets"}),
        (("index", "build"), {"--corpus", "--out", "--k1", "--b"}),
        (("trace", "show"), {"--full"}),
    ],
    ids=["ask", "bench", "ablate", "index-build", "trace-show"],
)
def test_each_subcommand_has_its_flag_set(path, flags):
    assert subcommand_flags(*path) == flags


# --- bench ------------------------------------------------------------------------


def test_bench_scores_a_dataset_and_writes_the_run_dir(tmp_path, capsys):
    rows = mcq_rows(3)
    dataset = write_dataset(tmp_path / "data.jsonl", rows)
    questions = dataset_questions(rows)
    answers = {"q01": "A", "q02": "A", "q03": "B"}
    script = write_script(
        tmp_path / "s.json", entries_for_many(questions, S1_ONLY, answers)
    )
    out = tmp_path / "run"
    code = main(
        [
            "bench",
            "--dataset",
            dataset,
            "--preset",
            "System 1",
            "--backend",
            "scripted",
            "--script",
            script,
            "--out",
            str(out),
            "--name",
            "smoke",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "smoke: 3 questions (mcq)" in captured.out
    assert "accuracy: 66.67%" in captured.out
    assert "system 2 triggered on 0/3" in captured.out
    assert (out / "report.json").is_file()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["accuracy_pct"] == 66.67
    lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


def test_bench_with_errors_exits_one(tmp_path, capsys):
    rows = mcq_rows(2)
    dataset = write_dataset(tmp_path / "data.jsonl", rows)
    script = write_script(
        tmp_path / "s.json",
        entries_for(dataset_questions(rows)[0], S1_ONLY, "A"),
    )
    code = main(
        [
            "bench",
            "--dataset",
            dataset,
            "--preset",
            "System 1",
            "--backend",
            "scripted",
            "--script",
            script,
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "1 question(s) errored" in captured.err


def test_bench_stratified_prints_the_table_and_csv(tmp_path, capsys):
    rows = mcq_rows(2, difficulty="Easy") + [
        {
            "id": "q03",
            "question": "Benchmark question 3?",
            "options": {"A": "first", "B": "second"},
            "answer": "A",
            "difficulty": "Very Hard",
        }
    ]
    dataset = write_dataset(tmp_path / "data.jsonl", rows)
    questions = dataset_questions(rows)
    answers = {"q01": "A", "q02": "B", "q03": "A"}
    script = write_script(
        tmp_path / "s.json", entries_for_many(questions, S1_ONLY, answers)
    )
    out = tmp_path / "run"
    code = main(
        [
            "bench",
            "--dataset",
            dataset,
            "--preset",
            "System 1",
            "--backend",
            "scripted",
            "--script",
            script,
            "--out",
            str(out),
            "--stratified",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Easy" in captured.out and "Very Hard" in captured.out
    assert (out / "stratified.csv").is_file()
    csv_text = (out / "stratified.csv").read_text(encoding="utf-8")
    assert "Easy,System 1,1,1,50.0" in csv_text
    assert "Very Hard,System 1,1,0,100.0" in csv_text


def test_bench_without_dataset_exits_two(capsys):
    code = main(["bench", "--backend", "scripted", "--script", "x.json"])
    assert code == 2
    assert "no dataset" in capsys.readouterr().err


# --- ablate ------------------------------------------------------------------------


def test_ablate_named_presets_writes_summary_tables(tmp_path, capsys):
    rows = mcq_rows(2)
    dataset = write_dataset(tmp_path / "data.jsonl", rows)
    questions = dataset_questions(rows)
    answers = {"q01": "A", "q02": "A"}
    entries = entries_for_many(questions, preset("System 1"), answers)
    entries += entries_for_many(questions, HD, answers)
    script = write_script(tmp_path / "s.json", entries)
    out = tmp_path / "sweep"
    code = main(
        [
            "ablate",
            "--dataset",
            dataset,
            "--presets",
            "System 1,System 2 (Hypothesis + Decision)",
            "--backend",
            "scripted",
            "--script",
            script,
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "System 1" in captured.out
    assert "System 2 (Hypothesis + Decision)" in captured.out
    assert (out / "ablation.csv").is_file()
    assert (out / "accuracy_vs_tokens.csv").is_file()
    ablation = (out / "ablation.csv").read_text(encoding="utf-8")
    assert "System 1,2,100.0" in ablation
    assert (out / "system-1" / "report.json").is_file()


def test_ablate_applies_pipeline_settings_to_each_preset(tmp_path, capsys):
    rows = mcq_rows(2)
    dataset = write_dataset(tmp_path / "data.jsonl", rows)
    answers = {"q01": "A", "q02": "A"}
    entries = entries_for_many(dataset_questions(rows), preset("System 1"), answers)
    script = write_script(tmp_path / "s.json", entries)
    out = tmp_path / "d"
    config_path = tmp_path / "dualthink.ini"
    config_path.write_text("[pipeline]\ntemperature = 0.5\n", encoding="utf-8")
    argv = ["--config", str(config_path), "ablate", "--dataset", dataset, "--presets", "System 1"]
    argv += ["--max-tokens", "64", "--backend", "scripted", "--script", script, "--out", str(out)]
    assert main(argv) == 0
    config = json.loads((out / "system-1" / "config.json").read_text(encoding="utf-8"))
    assert (config["max_tokens"], config["temperature"]) == (64, 0.5)


@pytest.mark.parametrize(
    "presets, message",
    [(None, "no retriever was given"), ("System 1,System 1", "'system-1'")],
    ids=["search-without-retriever", "repeated-preset"],
)
def test_ablate_that_cannot_run_every_preset_exits_two_before_any_call(
    tmp_path, capsys, presets, message
):
    rows = mcq_rows(2)
    dataset = write_dataset(tmp_path / "data.jsonl", rows)
    entries = entries_for_many(dataset_questions(rows), preset("System 1"), {"q01": "A", "q02": "A"})
    script = write_script(tmp_path / "s.json", entries)
    out = tmp_path / "sweep"
    argv = ["ablate", "--dataset", dataset, "--backend", "scripted", "--script", script]
    argv += ["--out", str(out)] + (["--presets", presets] if presets else [])
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- index -------------------------------------------------------------------------


def test_index_build_writes_a_loadable_snapshot(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"id": "d1", "text": "eiffel tower paris landmark"})
        + "\n"
        + json.dumps({"id": "d2", "text": "london bridge"})
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "index.json"
    code = main(["index", "build", "--corpus", str(corpus), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "indexed 2 documents" in captured.out
    index = BM25Index.load(out)
    hits = index.search("eiffel tower", k=2)
    assert [h.doc_id for h in hits] == ["d1"]

    config_path = tmp_path / "dualthink.ini"
    config_path.write_text("[retrieval]\nk1 = 2.0\nb = 0.5\n", encoding="utf-8")
    argv = ["--config", str(config_path), "index", "build", "--corpus", str(corpus)]
    assert main(argv + ["--out", str(out), "--b", "0.25"]) == 0
    index = BM25Index.load(out)
    assert (index.k1, index.b) == (2.0, 0.25)


def test_index_with_corpus_or_bm25_settings_exits_two(tmp_path, capsys):
    snapshot = tmp_path / "index.json"
    BM25Index.build([Doc("d1", "eiffel tower paris")], k1=0.5).save(snapshot)
    assert ask_with_config(tmp_path, "", "--index", str(snapshot)) == 0
    capsys.readouterr()
    for flags, named in (
        (["--k1", "2.0"], "--k1"),
        (["--b", "0.5"], "--b"),
        (["--corpus", "/nope.jsonl"], "--corpus"),
    ):
        assert ask_with_config(tmp_path, "", "--index", str(snapshot), *flags) == 2
        err = capsys.readouterr().err
        assert named in err and "index build" in err
    assert ask_with_config(tmp_path, "[retrieval]\nk1 = 2.0\n", "--index", str(snapshot)) == 2
    assert "--k1" in capsys.readouterr().err


def test_index_of_format_version_one_exits_two_and_says_to_rebuild(tmp_path, capsys):
    snapshot = tmp_path / "old-index.json"
    snapshot.write_text(
        json.dumps(
            {
                "format_version": 1,
                "k1": 1.2,
                "b": 0.75,
                "avgdl": 3.0,
                "doc_lengths": [3],
                "docs": [{"id": "d1", "text": "eiffel tower paris"}],
                "postings": {"eiffel": [[0, 1]], "tower": [[0, 1]], "paris": [[0, 1]]},
            }
        ),
        encoding="utf-8",
    )
    assert ask_with_config(tmp_path, "", "--index", str(snapshot)) == 2
    err = capsys.readouterr().err
    assert str(snapshot) in err and "index build" in err


def test_index_build_to_an_unwritable_path_exits_two(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "d1", "text": "eiffel tower"}) + "\n", encoding="utf-8")
    out = tmp_path / "missing-dir" / "index.json"
    assert main(["index", "build", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert f"cannot write index {out}" in capsys.readouterr().err


def test_index_build_rejects_a_bad_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("not json\n", encoding="utf-8")
    code = main(
        ["index", "build", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


# --- trace show ----------------------------------------------------------------------


def ask_and_trace(tmp_path):
    question = Question(id="cli", text="Which gas dominates air?")
    script = write_script(
        tmp_path / "s.json", entries_for(question, S1_ONLY, "nitrogen")
    )
    trace_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "ask",
                "Which gas dominates air?",
                "--preset",
                "System 1",
                "--backend",
                "scripted",
                "--script",
                script,
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    return trace_path


def test_trace_show_summarizes_the_saved_run(tmp_path, capsys):
    trace_path = ask_and_trace(tmp_path)
    capsys.readouterr()
    code = main(["trace", "show", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "question: cli" in captured.out
    assert "system 2 triggered: False" in captured.out
    assert "final answer: nitrogen" in captured.out
    assert "[1] quick (attempt 1, ok," in captured.out
    assert re.search(r"tokens, at \+\d+ ms\)", captured.out)
    text = trace_path.read_text(encoding="utf-8")
    assert "\n" not in text  # written compact
    trace_path.write_text(json.dumps(json.loads(text), indent=2), encoding="utf-8")
    assert main(["trace", "show", str(trace_path)]) == 0  # as older runs wrote it
    assert capsys.readouterr().out == captured.out


def test_trace_show_truncates_long_completions_unless_full(tmp_path, capsys):
    trace = {
        "question_id": "q9",
        "system2_triggered": True,
        "final_answer": "x",
        "chosen_option": None,
        "total_usage": {"prompt_tokens": 1, "completion_tokens": 2},
        "steps": [
            {
                "agent": "quick",
                "attempt": 1,
                "parsed": {},
                "completion": "y" * 500,
                "usage": {"prompt_tokens": 1, "completion_tokens": 2},
            }
        ],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    assert main(["trace", "show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "...[truncated; use --full]" in out
    assert "[1] quick (attempt 1, ok, 1+2 tokens)" in out  # no start_ms: an older trace
    assert main(["trace", "show", str(path), "--full"]) == 0
    out = capsys.readouterr().out
    assert "truncated" not in out
    assert "y" * 500 in out


def test_trace_show_marks_replayed_steps(tmp_path, capsys):
    step = {"agent": "planning", "attempt": 1, "parsed": {}, "completion": "c", "start_ms": 0}
    trace = {
        "question_id": "q1",
        "system2_triggered": True,
        "final_answer": "x",
        "total_usage": {"prompt_tokens": 5, "completion_tokens": 1},
        "cached_usage": {"prompt_tokens": 30, "completion_tokens": 7},
        "steps": [
            {**step, "usage": {"prompt_tokens": 30, "completion_tokens": 7}, "cached": True},
            {**step, "agent": "decision", "usage": {"prompt_tokens": 5, "completion_tokens": 1},
             "cached": False},
        ],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    assert main(["trace", "show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tokens: 5 prompt + 1 completion\ncached: 30 prompt + 7 completion\n" in out
    assert "[1] planning (attempt 1, ok, 30+7 tokens, replayed, at +0 ms)" in out
    assert "[2] decision (attempt 1, ok, 5+1 tokens, at +0 ms)" in out
    trace["cached_usage"] = {"prompt_tokens": 0, "completion_tokens": 0}
    path.write_text(json.dumps(trace), encoding="utf-8")
    assert main(["trace", "show", str(path)]) == 0
    assert "cached:" not in capsys.readouterr().out


def test_trace_show_missing_file_exits_two(tmp_path, capsys):
    code = main(["trace", "show", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read trace" in capsys.readouterr().err

"""Command-line front end.

Subcommands: ``ask`` (one question), ``bench`` (score a dataset),
``ablate`` (preset sweep), ``index build`` (build a retrieval snapshot),
``trace show`` (pretty-print a saved trace). Every setting is one row of
``_OPTIONS``: its section and key in the INI config file, its type, its
flag, and the commands that read it. A flag beats the config file; a
setting given by neither is left out, so the callee's own default applies.

Exit codes: 0 success, 1 a question failed at runtime, 2 bad usage or
configuration, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Any, Sequence

from .backend import HttpChatBackend, LLMBackend, RetryPolicy, ScriptedBackend
from .dataset import DATASET_KINDS, load_dataset, write_atomic
from .engine import Engine
from .errors import BackendError, ConfigError, DualThinkError, ParseError
from .presets import DUAL_PRESET_NAME, ablation_presets, preset, preset_names
from .prompts import PromptLibrary
from .retrieval import BM25Index, load_corpus
from .runner import (
    ablation_sweep,
    accuracy_vs_tokens,
    check_stratifiable,
    run_benchmark,
    stratified_trigger_report,
    write_ablation_csv,
    write_accuracy_vs_tokens_csv,
    write_stratified_csv,
)
from .types import PipelineConfig, Question

_USAGE_EXIT = 2
_RUNTIME_EXIT = 1

_ONE_CONFIG = ("ask", "bench")
_RUNS = ("ask", "bench", "ablate")
_SWEEPS = ("bench", "ablate")

#: One row per setting: (section, key, type, flag or None, commands, help).
#: A tuple type lists the allowed strings.
_OPTIONS: tuple[tuple[str, str, Any, str | None, tuple[str, ...], str | None], ...] = (
    ("pipeline", "preset", str, "--preset", _ONE_CONFIG, f"one of: {', '.join(preset_names())}"),
    ("pipeline", "force_system2", bool, "--force-system2", _ONE_CONFIG, "always deliberate"),
    ("pipeline", "k_retrieval", int, "--k", _RUNS, "documents per query"),
    ("pipeline", "max_subquestions", int, "--max-subquestions", _RUNS, None),
    ("pipeline", "max_hypotheses", int, "--max-hypotheses", _RUNS, None),
    ("pipeline", "max_parse_retries", int, "--max-parse-retries", _RUNS, None),
    ("pipeline", "temperature", float, "--temperature", _RUNS, None),
    ("pipeline", "max_tokens", int, "--max-tokens", _RUNS, None),
    ("backend", "kind", ("http", "scripted"), "--backend", _RUNS, None),
    ("backend", "endpoint", str, "--endpoint", _RUNS, "chat-completions API base URL"),
    ("backend", "model", str, "--model", _RUNS, None),
    ("backend", "api_key_env", str, "--api-key-env", _RUNS, "env var holding the API key"),
    ("backend", "timeout", float, "--timeout", _RUNS, "seconds per HTTP request"),
    ("backend", "max_attempts", int, None, _RUNS, None),
    ("backend", "script", str, "--script", _RUNS, "scripted-backend completions JSON"),
    ("retrieval", "index", str, "--index", _RUNS, "BM25 snapshot to load"),
    ("retrieval", "corpus", str, "--corpus", _RUNS, "JSONL corpus to index on the fly"),
    ("retrieval", "k1", float, "--k1", _RUNS + ("index build",), "BM25 k1"),
    ("retrieval", "b", float, "--b", _RUNS + ("index build",), "BM25 b"),
    ("dataset", "path", str, "--dataset", _SWEEPS, "JSONL dataset path"),
    ("dataset", "kind", DATASET_KINDS, "--dataset-kind", _SWEEPS, None),
    ("dataset", "limit", int, "--limit", _SWEEPS, "use only the first N questions"),
    ("dataset", "shuffle_seed", int, "--shuffle-seed", _SWEEPS, "shuffle before limiting"),
    ("run", "out", str, "--out", _SWEEPS, "run directory (enables resume)"),
    ("run", "name", str, "--name", ("bench",), "run name for the report"),
    ("run", "parallelism", int, "--parallelism", _SWEEPS, "concurrent questions"),
    ("run", "prompt_dir", str, "--prompt-dir", _RUNS, "directory of per-agent prompt overrides"),
)

Settings = dict[str, dict[str, Any]]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args, _settings(args))
    except (DualThinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT if isinstance(exc, (ParseError, BackendError)) else _USAGE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualthink",
        description="Two-speed question answering: quick pass, reflection "
        "gate, and an ablatable deliberation pipeline.",
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--log-level", default="warning", help="logging level")
    sub = parser.add_subparsers(dest="command", required=True)
    index = sub.add_parser("index", help="retrieval index maintenance")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    trace = sub.add_parser("trace", help="inspect saved traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    commands = {}
    for group, name, handler, help_text in (
        (sub, "ask", _cmd_ask, "answer a single question"),
        (sub, "bench", _cmd_bench, "run and score a dataset"),
        (sub, "ablate", _cmd_ablate, "run every preset over a dataset"),
        (index_sub, "index build", _cmd_index_build, "build a BM25 snapshot from a corpus"),
        (trace_sub, "trace show", _cmd_trace_show, "pretty-print a trace JSON file"),
    ):
        commands[name] = group.add_parser(name.split()[-1], help=help_text)
        commands[name].set_defaults(handler=handler, command=name)

    ask = commands["ask"]
    ask.add_argument("question", help="the question text")
    ask.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="LABEL=TEXT",
        help="multiple-choice option; repeat per option",
    )
    ask.add_argument("--trace", help="write the reasoning trace JSON here")
    commands["bench"].add_argument(
        "--stratified",
        action="store_true",
        help="also print accuracy by difficulty and answering system",
    )
    commands["ablate"].add_argument(
        "--presets", help="comma-separated preset names (default: the eight ablation rows)"
    )
    build = commands["index build"]
    build.add_argument("--corpus", required=True, help="JSONL corpus path")
    build.add_argument("--out", required=True, help="snapshot output path")
    show = commands["trace show"]
    show.add_argument("path", help="trace file written by ask/bench")
    show.add_argument("--full", action="store_true", help="print whole completions")

    for section, key, kind, flag, names, help_text in _OPTIONS:
        if flag is None:
            continue
        if kind is bool:
            extra: dict[str, Any] = {"action": "store_true", "default": None}
        elif isinstance(kind, tuple):
            extra = {"choices": kind}
        else:
            extra = {"type": kind, "metavar": key.upper()}
        for name in names:
            commands[name].add_argument(flag, dest=f"{section}.{key}", help=help_text, **extra)
    return parser


def _settings(args: argparse.Namespace) -> Settings:
    """``{section: {key: value}}`` for the command being run: each row's flag,
    else its config-file value; a setting given by neither is left out."""
    config = _read_config(args.config)
    settings: Settings = {section: {} for section, *_ in _OPTIONS}
    for section, key, _kind, _flag, commands, _help in _OPTIONS:
        value = getattr(args, f"{section}.{key}", None)
        value = config.get((section, key)) if value is None else value
        if value is not None and args.command in commands:
            settings[section][key] = value
    return settings


def _read_config(path: str | None) -> dict[tuple[str, str], Any]:
    """Typed values from the INI file, keyed by (section, key); an empty
    value counts as not given, and a section or key with no row is an error."""
    if not path:
        return {}
    if not Path(path).is_file():
        raise DualThinkError(f"config file not found: {path}")
    kinds = {(section, key): kind for section, key, kind, *_ in _OPTIONS}
    parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is unknown too
    values = {}
    try:
        parser.read(path, encoding="utf-8")
        for section in parser.sections():
            if section not in {s for s, _ in kinds}:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, text in parser.items(section):
                if (section, key) not in kinds:
                    raise ConfigError(f"{path}: unknown setting [{section}] {key}")
                if text:
                    values[section, key] = _convert(kinds[section, key], text, f"[{section}] {key}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


def _convert(kind: Any, text: str, where: str) -> Any:
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if isinstance(kind, tuple):
            if text not in kind:
                raise ValueError(text)
            return text
        return kind(text)
    except (KeyError, ValueError):
        expected = " or ".join(kind) if isinstance(kind, tuple) else kind.__name__
        raise ConfigError(f"{where} = {text!r} is not a valid {expected}") from None


def _pipeline(settings: Settings, base: PipelineConfig | None = None) -> PipelineConfig:
    """``base`` (by default the [pipeline] preset) with the other [pipeline]
    settings applied."""
    overrides = dict(settings["pipeline"])
    name = overrides.pop("preset", DUAL_PRESET_NAME)
    return dataclasses.replace(base if base is not None else preset(name), **overrides)


def _backend(settings: Settings) -> LLMBackend:
    options = dict(settings["backend"])
    kind, script = options.pop("kind", None), options.pop("script", None)
    if kind == "scripted":
        if not script:
            raise ConfigError("the scripted backend needs --script or [backend] script")
        return ScriptedBackend.from_file(script)
    if "max_attempts" in options:
        options["retry"] = RetryPolicy(max_attempts=options.pop("max_attempts"))
    return HttpChatBackend(options.pop("endpoint", ""), options.pop("model", ""), **options)


def _retriever(settings: Settings) -> BM25Index | None:
    options = dict(settings["retrieval"])
    index, corpus = options.pop("index", None), options.pop("corpus", None)
    if index:
        ignored = [f"--{key}" for key in settings["retrieval"] if key != "index"]
        if ignored:
            raise ConfigError(
                f"--index loads a built snapshot, so {', '.join(ignored)} would be ignored; "
                "k1 and b are set when it is built, by `index build`"
            )
        return BM25Index.load(index)
    return BM25Index.build(load_corpus(corpus), **options) if corpus else None


def _prompts(settings: Settings) -> PromptLibrary | None:
    prompt_dir = settings["run"].get("prompt_dir")
    return PromptLibrary.from_dir(prompt_dir) if prompt_dir else None


def _dataset(settings: Settings) -> list[Question]:
    if "path" not in settings["dataset"]:
        raise DualThinkError("no dataset given (use --dataset or [dataset] path)")
    return load_dataset(**settings["dataset"])


def _run_options(settings: Settings) -> dict[str, Any]:
    """[run] settings as ``run_benchmark``/``ablation_sweep`` keywords."""
    options = {k: v for k, v in settings["run"].items() if k not in ("out", "prompt_dir")}
    return {"out_dir": settings["run"].get("out"), "prompts": _prompts(settings), **options}


# --- subcommand handlers ---------------------------------------------------


def _cmd_ask(args: argparse.Namespace, settings: Settings) -> int:
    if args.trace and not Path(args.trace).parent.is_dir():
        raise DualThinkError(f"cannot write trace {args.trace}: no such directory")
    options = []
    for item in args.option:
        label, sep, text = item.partition("=")
        if not sep or not label.strip():
            raise DualThinkError(f"--option must look like LABEL=TEXT, got {item!r}")
        options.append((label.strip(), text.strip()))
    question = Question(id="cli", text=args.question, options=tuple(options))
    config = _pipeline(settings)
    engine = Engine(_backend(settings), retriever=_retriever(settings), prompts=_prompts(settings))
    result = engine.answer(question, config)
    if args.trace:
        write_atomic(Path(args.trace), json.dumps(result.trace.to_dict()))
    mode = "system 2" if result.trace.system2_triggered else "system 1"
    if result.chosen_option is not None:
        print(f"{result.chosen_option}: {result.final_answer}")
    else:
        print(result.final_answer)
    print(
        f"[{mode}; {result.trace.total_usage.prompt_tokens} prompt + "
        f"{result.trace.total_usage.completion_tokens} completion tokens]",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args: argparse.Namespace, settings: Settings) -> int:
    questions = _dataset(settings)
    if args.stratified:
        check_stratifiable(questions)
    report = run_benchmark(
        questions,
        _pipeline(settings),
        _backend(settings),
        _retriever(settings),
        **_run_options(settings),
    )
    print(f"{report.name}: {len(report.results)} questions ({report.kind})")
    if report.kind == "mcq":
        print(f"accuracy: {report.accuracy_pct:.2f}%")
    else:
        print(f"accuracy: {report.accuracy_pct:.2f}%  EM: {report.em_pct:.2f}  F1: {report.f1_pct:.2f}")
    triggered = sum(1 for r in report.results if r.system2_triggered)
    print(f"system 2 triggered on {triggered}/{len(report.results)}")
    usage = report.total_usage
    print(f"tokens: {usage.prompt_tokens} prompt + {usage.completion_tokens} completion")
    if args.stratified:
        rows = stratified_trigger_report(report.results)
        print()
        print(f"{'difficulty':<12} {'mode':<9} {'correct':>7} {'incorrect':>9} {'acc%':>7}")
        for row in rows:
            print(
                f"{row.difficulty.value:<12} {row.mode:<9} {row.correct:>7} "
                f"{row.incorrect:>9} {row.accuracy_pct:>7.2f}"
            )
        out = settings["run"].get("out")
        if out:
            write_stratified_csv(rows, Path(out) / "stratified.csv")
    if report.errored:
        print(f"{len(report.errored)} question(s) errored", file=sys.stderr)
        return _RUNTIME_EXIT
    return 0


def _cmd_ablate(args: argparse.Namespace, settings: Settings) -> int:
    chosen = ablation_presets()
    if args.presets:
        chosen = [(name.strip(), preset(name.strip())) for name in args.presets.split(",")]
    presets = [(name, _pipeline(settings, config)) for name, config in chosen]
    rows = ablation_sweep(
        _dataset(settings),
        _backend(settings),
        _retriever(settings),
        presets=presets,
        **_run_options(settings),
    )
    width = max(len(name) for name, _ in rows)
    print(f"{'preset':<{width}} {'acc%':>7} {'tokens/q':>9}")
    for name, report in rows:
        print(
            f"{name:<{width}} {report.accuracy_pct:>7.2f} "
            f"{report.mean_completion_tokens:>9.1f}"
        )
    out = settings["run"].get("out")
    if out:
        write_ablation_csv(rows, Path(out) / "ablation.csv")
        write_accuracy_vs_tokens_csv(
            accuracy_vs_tokens(rows), Path(out) / "accuracy_vs_tokens.csv"
        )
    if any(report.errored for _, report in rows):
        print("some questions errored", file=sys.stderr)
        return _RUNTIME_EXIT
    return 0


def _cmd_index_build(args: argparse.Namespace, settings: Settings) -> int:
    index = BM25Index.build(load_corpus(args.corpus), **settings["retrieval"])
    index.save(args.out)
    print(f"indexed {len(index.docs)} documents -> {args.out}")
    return 0


def _is_trace(trace: Any) -> bool:
    """Whether ``trace`` has the shape ``trace show`` prints; fields that
    traces gained later (``start_ms``, ``cached``) may be missing."""
    steps = trace.get("steps", []) if isinstance(trace, dict) else None
    if not isinstance(steps, list) or not all(isinstance(step, dict) for step in steps):
        return False
    usages = [trace.get("total_usage", {}), trace.get("cached_usage", {})]
    usages += [step.get("usage", {}) for step in steps]
    texts = [step.get("completion", "") for step in steps]
    return all(isinstance(u, dict) for u in usages) and all(isinstance(t, str) for t in texts)


def _cmd_trace_show(args: argparse.Namespace, settings: Settings) -> int:
    try:
        trace = json.loads(Path(args.path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DualThinkError(f"cannot read trace {args.path}: {exc}") from exc
    if not _is_trace(trace):
        raise DualThinkError(f"{args.path} is not a trace written by ask or bench")
    usage = trace.get("total_usage", {})
    print(f"question: {trace.get('question_id')}")
    print(f"system 2 triggered: {trace.get('system2_triggered')}")
    print(f"final answer: {trace.get('final_answer')}")
    if trace.get("chosen_option"):
        print(f"chosen option: {trace['chosen_option']}")
    print(
        f"tokens: {usage.get('prompt_tokens', 0)} prompt + "
        f"{usage.get('completion_tokens', 0)} completion"
    )
    cached = trace.get("cached_usage", {})
    if cached.get("prompt_tokens") or cached.get("completion_tokens"):
        print(
            f"cached: {cached.get('prompt_tokens', 0)} prompt + "
            f"{cached.get('completion_tokens', 0)} completion"
        )
    for i, step in enumerate(trace.get("steps", []), start=1):
        status = "ok" if step.get("parsed") is not None else "parse failed"
        step_usage = step.get("usage", {})
        replayed = ", replayed" if step.get("cached") else ""
        start = f", at +{step['start_ms']} ms" if "start_ms" in step else ""
        print()
        print(
            f"[{i}] {step.get('agent')} (attempt {step.get('attempt')}, {status}, "
            f"{step_usage.get('prompt_tokens', 0)}+{step_usage.get('completion_tokens', 0)} tokens"
            f"{replayed}{start})"
        )
        completion = step.get("completion", "")
        if not args.full and len(completion) > 400:
            completion = completion[:400] + " ...[truncated; use --full]"
        for line in completion.splitlines():
            print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

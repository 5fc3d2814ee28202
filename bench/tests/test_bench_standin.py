"""Checks on the benchmark's stand-in model, its server and its inputs."""

import http.client
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from dualthink.backend import ChatRequest  # noqa: E402
from dualthink.dataset import load_dataset  # noqa: E402
from dualthink.engine import Engine  # noqa: E402
from dualthink.errors import BackendError  # noqa: E402
from dualthink.presets import preset, preset_names  # noqa: E402
from dualthink.retrieval import BM25Index, load_corpus  # noqa: E402

from inputs import BLOCK, WORKLOADS, write_corpus, write_dataset  # noqa: E402
from run import start_server, stop  # noqa: E402
from standin import ESCALATE_SHARE, StandIn  # noqa: E402
from workload import StandInBackend, round_trip_ms  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench-inputs")
    model = StandIn(seed=7, base_ms=0.0, per_token_ms=0.0)
    write_corpus(work / "corpus.jsonl", 60, seed=7)
    write_dataset(work / "dataset.jsonl", 2 * BLOCK, model)
    return work, model


def test_every_preset_and_kind_parses_each_well_formed_reply(inputs):
    work, model = inputs
    questions = load_dataset(str(work / "dataset.jsonl"))[:6]
    assert {q.kind.value for q in questions} == {"mcq", "open"}
    index = BM25Index.build(load_corpus(work / "corpus.jsonl"))
    engine = Engine(StandInBackend(model), retriever=index)
    for name in preset_names():
        for question in questions:
            outcome = engine.answer(question, preset(name))
            for step in outcome.trace.steps:
                truncated = f"END {step.completion.split()[1]}" not in step.completion
                assert (step.parsed is None) == truncated, (name, question.id, step.agent)
                assert step.attempt == 1 or "could not be parsed" in step.prompt
            labels = question.option_labels
            assert outcome.final_answer == model.committed_answer(question.text, labels)
    assert model.errors == 0


def test_reply_is_a_pure_function_of_seed_and_request():
    user = (
        "Question:\nWhich kaba matches case 3?\n\nProduce at most 4 subquestions. Each\n\n"
        "BEGIN PLAN\nP1: <first subquestion>\nEND PLAN\n"
    )
    first = StandIn(3, 0.0, 0.0).reply("system", user)
    again = StandIn(3, 0.0, 0.0).reply("system", user)
    other = StandIn(4, 0.0, 0.0).reply("system", user)
    assert first.text == again.text and first.completion_tokens == again.completion_tokens
    assert first.text != other.text


def test_unreadable_prompt_is_counted_and_refused():
    model = StandIn(1, 0.0, 0.0)
    with pytest.raises(BackendError):
        StandInBackend(model).complete(ChatRequest("system", "Question:\nno marker here\n"))
    assert model.errors == 1 and model.records == []


def test_dataset_blocks_hold_the_dealt_escalation_share(tmp_path):
    model = StandIn(5, 0.0, 0.0)
    write_dataset(tmp_path / "a.jsonl", 3 * BLOCK, model)
    write_dataset(tmp_path / "b.jsonl", 3 * BLOCK, StandIn(5, 0.0, 0.0))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    questions = load_dataset(str(tmp_path / "a.jsonl"))
    for start in range(0, len(questions), BLOCK):
        block = questions[start : start + BLOCK]
        assert sum(model.escalates(q.text) for q in block) == round(BLOCK * ESCALATE_SHARE)


def test_server_replies_like_the_in_process_model_in_one_send():
    workload = replace(WORKLOADS["gate_http"], per_token_ms=0.0, http503_pct=0.0)
    server, endpoint = start_server(workload, seed=9)
    try:
        # Headers and body written apart cost ~40 ms a call on loopback.
        assert round_trip_ms(endpoint) < workload.base_ms / 4
        port = int(endpoint.rsplit(":", 1)[1])
        user = (
            "Question:\nWhich kaba matches case 1?\n\n"
            "BEGIN DECISION\nANSWER: <a>\nEND DECISION\n"
        )
        body = json.dumps({
            "model": "standin", "temperature": 0.0, "max_tokens": 64,
            "messages": [{"role": "system", "content": "s"}, {"role": "user", "content": user}],
        })
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        started = time.perf_counter()
        connection.request("POST", "/v1/chat/completions", body=body)
        response = connection.getresponse()
        elapsed_ms = (time.perf_counter() - started) * 1000
        data = json.loads(response.read())
        connection.close()
        assert response.status == 200
        expected = StandIn(9, 0.0, 0.0).reply("s", user)
        assert data["choices"][0]["message"]["content"] == expected.text
        assert data["usage"]["completion_tokens"] == expected.completion_tokens
        service_ms = float(response.getheader("X-Service-Ms"))
        assert workload.base_ms / 2 <= service_ms <= elapsed_ms
    finally:
        stop(server)
    assert server.returncode is not None

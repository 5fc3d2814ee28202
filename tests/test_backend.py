import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dualthink.backend import (
    ChatRequest,
    HttpChatBackend,
    RetryPolicy,
    ScriptedBackend,
    ScriptEntry,
    estimate_tokens,
    scripted_backend,
)
from dualthink.errors import (
    BackendError,
    BackendExhausted,
    BackendHTTPError,
    ConfigError,
)
from dualthink.types import TokenUsage


# --- token estimation -------------------------------------------------------


def test_estimate_tokens_hand_computed():
    cases = [
        ("", 0),
        ("a", 1),
        ("ab", 1),
        ("abc", 1),
        ("abcd", 1),
        ("abcde", 2),
        ("12345678", 2),
        ("123456789", 3),
        ("x" * 100, 25),
        ("x" * 101, 26),
    ]
    for text, expected in cases:
        assert estimate_tokens(text) == expected, repr(text)


# --- request validation -------------------------------------------------------


def test_chat_request_validates_inputs():
    with pytest.raises(ConfigError):
        ChatRequest(system_text="s", user_text="")
    with pytest.raises(ConfigError):
        ChatRequest(system_text="s", user_text="u", temperature=-1)
    with pytest.raises(ConfigError):
        ChatRequest(system_text="s", user_text="u", max_tokens=0)


# --- scripted backend ---------------------------------------------------------


def test_scripted_consumes_in_order_and_estimates_usage():
    backend = scripted_backend("first", "second")
    r1 = backend.complete(ChatRequest(system_text="sys", user_text="user"))
    r2 = backend.complete(ChatRequest(system_text="sys", user_text="user"))
    assert (r1.text, r2.text) == ("first", "second")
    assert r1.usage_estimated is True
    assert r1.usage == TokenUsage(
        estimate_tokens("sys") + estimate_tokens("user"), estimate_tokens("first")
    )
    assert backend.remaining == 0


def test_scripted_matchers_route_by_prompt_content():
    backend = scripted_backend(("beta", "B!"), ("alpha", "A!"))
    got = backend.complete(ChatRequest(system_text="", user_text="this is alpha")).text
    assert got == "A!"
    got2 = backend.complete(ChatRequest(system_text="prefix beta", user_text="x")).text
    assert got2 == "B!"
    assert backend.remaining == 0


def test_scripted_explicit_usage_is_not_estimated():
    backend = ScriptedBackend([ScriptEntry("hi", usage=TokenUsage(11, 7))])
    result = backend.complete(ChatRequest(system_text="s", user_text="u"))
    assert result.usage == TokenUsage(11, 7)
    assert result.usage_estimated is False


def test_scripted_entry_list_can_repeat_an_entry_and_feed_two_backends():
    entries = [ScriptEntry("garbage")] * 3
    first, second = ScriptedBackend(entries), ScriptedBackend(entries)
    request = ChatRequest(system_text="s", user_text="u")
    assert [first.complete(request).text for _ in range(3)] == ["garbage"] * 3
    assert first.remaining == 0
    assert second.remaining == 3
    assert second.complete(request).text == "garbage"


def test_scripted_exhaustion_is_loud():
    backend = scripted_backend(("never-matches", "x"))
    with pytest.raises(BackendExhausted):
        backend.complete(ChatRequest(system_text="s", user_text="u"))


def test_scripted_records_calls():
    backend = scripted_backend("one")
    backend.complete(ChatRequest(system_text="s", user_text="the prompt"))
    assert [c.user_text for c in backend.calls] == ["the prompt"]


def test_scripted_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            [
                "plain string",
                {"completion": "matched", "matcher": "needle"},
                {"completion": "counted", "usage": {"prompt_tokens": 3, "completion_tokens": 4}},
            ]
        ),
        encoding="utf-8",
    )
    backend = ScriptedBackend.from_file(path)
    assert backend.complete(ChatRequest(system_text="", user_text="z")).text == "plain string"
    assert backend.complete(ChatRequest(system_text="", user_text="a needle b")).text == "matched"
    third = backend.complete(ChatRequest(system_text="", user_text="z"))
    assert third.usage == TokenUsage(3, 4)
    with pytest.raises(ConfigError):
        ScriptedBackend.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}', encoding="utf-8")
    with pytest.raises(ConfigError):
        ScriptedBackend.from_file(bad)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"completion": "x", "usage": 5}, "'usage' must be an object"),
        ({"completion": "x", "usage": {"prompt_tokens": "3"}}, "usage.prompt_tokens is '3'"),
        ({"completion": "x", "usage": {"completion_tokens": -1}}, "usage.completion_tokens is -1"),
        ({"completion": "x", "usage": {"prompt_tokens": True}}, "usage.prompt_tokens is True"),
        ({"completion": "x", "matcher": 5}, "'matcher' must be a string"),
        ({"completion": ["x"]}, "'completion' must be a string"),
    ],
    ids=["usage-int", "count-str", "count-negative", "count-bool", "matcher-int", "text-list"],
)
def test_scripted_from_file_rejects_a_malformed_entry_at_load(tmp_path, entry, message):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(["fine", entry]), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        ScriptedBackend.from_file(path)
    assert f"script {path} entry 1: {message}" in str(info.value)


# --- retry policy ---------------------------------------------------------------


def test_retry_delays_are_deterministic_and_capped():
    policy = RetryPolicy(max_attempts=6, backoff_base=0.5, backoff_max=3.0)
    assert [policy.delay(i) for i in range(1, 6)] == [0.5, 1.0, 2.0, 3.0, 3.0]


# --- http backend ------------------------------------------------------------------


class _Script(BaseHTTPRequestHandler):
    responses: list[tuple[int, dict]] = []
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = type(self).responses.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    server = HTTPServer(("127.0.0.1", 0), _Script)
    _Script.responses = []
    _Script.seen = []
    # A short poll lets shutdown() return at once rather than after 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _Script
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def _ok_payload(text="BEGIN X\nEND X", usage=None):
    payload = {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "model": "stub-model",
    }
    if usage is not None:
        payload["usage"] = usage
    return payload


def test_http_happy_path_reports_server_usage(http_stub, monkeypatch):
    base, script = http_stub
    monkeypatch.setenv("TEST_KEY_ENV", "sk-test")
    script.responses.append(
        (200, _ok_payload("hello", {"prompt_tokens": 21, "completion_tokens": 9}))
    )
    backend = HttpChatBackend(endpoint=base, model="m1", api_key_env="TEST_KEY_ENV")
    result = backend.complete(ChatRequest(system_text="sys", user_text="user"))
    assert result.text == "hello"
    assert result.usage == TokenUsage(21, 9)
    assert result.usage_estimated is False
    assert result.model_id == "stub-model"
    call = script.seen[0]
    assert call["path"] == "/chat/completions"
    assert call["auth"] == "Bearer sk-test"
    assert call["body"]["model"] == "m1"
    assert call["body"]["messages"][0] == {"role": "system", "content": "sys"}


def test_http_sends_the_api_key_even_when_netrc_has_the_host(http_stub, monkeypatch, tmp_path):
    base, script = http_stub
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("TEST_KEY_ENV", "sk-test")
    script.responses += [(200, _ok_payload("hello"))] * 2
    backend = HttpChatBackend(endpoint=base, model="m1", api_key_env="TEST_KEY_ENV")
    backend.complete(ChatRequest(system_text="sys", user_text="user"))
    monkeypatch.delenv("TEST_KEY_ENV")
    backend.complete(ChatRequest(system_text="sys", user_text="user"))
    assert [call["auth"] for call in script.seen] == ["Bearer sk-test", "Basic dXNlcjpzZWNyZXQ="]


def test_http_proxy_from_the_environment_is_read_once_and_no_proxy_bypasses_it(
    http_stub, monkeypatch
):
    # The stub serves as the proxy too: through a proxy, the request line
    # names the whole URL; sent directly, only its path.
    base, script = http_stub
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("HTTP_PROXY", base)
    script.responses += [(200, _ok_payload("hello"))] * 3
    proxied = HttpChatBackend(endpoint=base, model="m1")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct = HttpChatBackend(endpoint=base, model="m1")
    # Read when the backend was built, not on each post.
    monkeypatch.delenv("HTTP_PROXY")
    monkeypatch.delenv("NO_PROXY")
    for backend in (proxied, proxied, direct):
        backend.complete(ChatRequest(system_text="sys", user_text="user"))
    assert [call["path"] for call in script.seen] == [
        f"{base}/chat/completions", f"{base}/chat/completions", "/chat/completions"
    ]


def test_http_estimates_usage_when_server_omits_it(http_stub):
    base, script = http_stub
    script.responses.append((200, _ok_payload("four")))
    backend = HttpChatBackend(endpoint=base, model="m1")
    result = backend.complete(ChatRequest(system_text="abcd", user_text="efgh"))
    assert result.usage_estimated is True
    assert result.usage == TokenUsage(2, 1)


def test_http_retries_429_and_5xx_then_succeeds(http_stub):
    base, script = http_stub
    script.responses.extend(
        [(429, {"error": "slow down"}), (500, {"error": "oops"}), (200, _ok_payload("ok"))]
    )
    sleeps = []
    backend = HttpChatBackend(
        endpoint=base,
        model="m1",
        retry=RetryPolicy(max_attempts=3, backoff_base=0.25),
        sleep=sleeps.append,
    )
    result = backend.complete(ChatRequest(system_text="s", user_text="u"))
    assert result.text == "ok"
    assert sleeps == [0.25, 0.5]
    assert len(script.seen) == 3


def test_retry_and_timeout_values_that_cannot_work_are_rejected():
    for kwargs in ({"max_attempts": 0}, {"backoff_base": -1.0}, {"backoff_max": -0.5}):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)
    for timeout in (0, -1.0):
        with pytest.raises(ConfigError):
            HttpChatBackend(endpoint="http://x", model="m", timeout=timeout)


def test_http_gives_up_after_max_attempts(http_stub):
    base, script = http_stub
    script.responses.extend([(503, {}), (503, {}), (503, {})])
    backend = HttpChatBackend(
        endpoint=base, model="m1", retry=RetryPolicy(max_attempts=3), sleep=lambda s: None
    )
    with pytest.raises(BackendExhausted):
        backend.complete(ChatRequest(system_text="s", user_text="u"))
    assert len(script.seen) == 3


def test_http_client_errors_fail_immediately(http_stub):
    base, script = http_stub
    script.responses.append((401, {"error": "bad key"}))
    backend = HttpChatBackend(endpoint=base, model="m1", sleep=lambda s: None)
    with pytest.raises(BackendHTTPError) as info:
        backend.complete(ChatRequest(system_text="s", user_text="u"))
    assert info.value.status == 401
    assert len(script.seen) == 1


def test_http_malformed_body_is_a_backend_error(http_stub):
    base, script = http_stub
    script.responses.append((200, {"surprise": True}))
    backend = HttpChatBackend(endpoint=base, model="m1", retry=RetryPolicy(max_attempts=1))
    from dualthink.errors import BackendError

    with pytest.raises(BackendError):
        backend.complete(ChatRequest(system_text="s", user_text="u"))


@pytest.mark.parametrize(
    "payload",
    [
        _ok_payload("hi", {"prompt_tokens": "n/a", "completion_tokens": 3}),
        _ok_payload("hi", [1, 2]),
        _ok_payload(["x"]),
        _ok_payload("hi", {"prompt_tokens": -5, "completion_tokens": 3}),
    ],
    ids=["string-count", "list-usage", "list-content", "negative-count"],
)
def test_http_malformed_reply_fields_are_backend_errors(http_stub, payload):
    base, script = http_stub
    script.responses.append((200, payload))
    backend = HttpChatBackend(endpoint=base, model="m1", retry=RetryPolicy(max_attempts=1))
    with pytest.raises(BackendError, match="malformed response body"):
        backend.complete(ChatRequest(system_text="s", user_text="u"))


class _RecordingSession:
    """Stands in for ``requests.Session``: answers every post with one reply."""

    made: list["_RecordingSession"] = []

    def __init__(self):
        self.posts = 0
        type(self).made.append(self)

    def post(self, url, **kwargs):
        self.posts += 1
        return _StubResponse()


class _StubResponse:
    status_code = 200

    def json(self):
        return _ok_payload("ok", {"prompt_tokens": 1, "completion_tokens": 1})


def _recording_backend(monkeypatch, session_class=_RecordingSession):
    # Built first: it reads the environment through a real session of its own.
    backend = HttpChatBackend(endpoint="http://unused", model="m1")
    monkeypatch.setattr(_RecordingSession, "made", [])
    monkeypatch.setattr("dualthink.backend.requests.Session", session_class)
    return backend


def _on_threads(*calls):
    threads = [threading.Thread(target=call) for call in calls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_http_sessions_outlive_the_threads_that_used_them(monkeypatch):
    backend = _recording_backend(monkeypatch)
    request = ChatRequest(system_text="s", user_text="u")
    for _ in range(3):
        _on_threads(lambda: backend.complete(request))
    assert [session.posts for session in _RecordingSession.made] == [3]

    injected = _RecordingSession()
    shared = HttpChatBackend(endpoint="http://unused", model="m1", session=injected)
    _on_threads(lambda: shared.complete(request))
    shared.complete(request)
    assert injected.posts == 2
    assert len(_RecordingSession.made) == 2


def test_http_calls_in_flight_at_once_never_share_a_session(monkeypatch):
    arrived = threading.Barrier(2, timeout=5)

    class HeldSession(_RecordingSession):
        def post(self, url, **kwargs):
            arrived.wait()  # both calls are in flight before either returns
            return super().post(url, **kwargs)

    backend = _recording_backend(monkeypatch, HeldSession)
    request = ChatRequest(system_text="s", user_text="u")
    _on_threads(*[lambda: backend.complete(request)] * 2)
    assert [session.posts for session in _RecordingSession.made] == [1, 1]


def test_http_sessions_are_never_shared_under_thread_churn(monkeypatch):
    overlaps = []

    class GuardedSession(_RecordingSession):
        busy = False

        def post(self, url, **kwargs):
            overlaps.append(self.busy)
            self.busy = True
            time.sleep(0)  # let another thread run while this one holds the session
            self.busy = False
            return super().post(url, **kwargs)

    backend = _recording_backend(monkeypatch, GuardedSession)
    request = ChatRequest(system_text="s", user_text="u")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _on_threads(*[lambda: [backend.complete(request) for _ in range(50)]] * 8)
    finally:
        sys.setswitchinterval(interval)
    assert len(overlaps) == 400 and not any(overlaps)
    assert sum(s.posts for s in _RecordingSession.made) == 400
    assert len(_RecordingSession.made) <= 8

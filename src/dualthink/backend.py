"""Model backends: an HTTP chat-completions client and a scripted stand-in.

Both implement the one-method :class:`LLMBackend` protocol, so the engine,
benchmark harness, and tests are indifferent to where completions come from.
Token usage is taken from the server when reported and estimated from
character counts otherwise, with the estimate flagged as such. No backend
stores replies: the engine replays identical ones (see :mod:`dualthink.engine`).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Protocol, Sequence

import requests

from .errors import (
    BackendError,
    BackendExhausted,
    BackendHTTPError,
    BackendTimeout,
    ConfigError,
)
from .types import TokenUsage

logger = logging.getLogger(__name__)


def estimate_tokens(text: str) -> int:
    """Characters / 4, rounded up. Crude, but stable and monotone."""
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class ChatRequest:
    system_text: str
    user_text: str
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ConfigError("user_text must be non-empty")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class Completion:
    text: str
    usage: TokenUsage
    model_id: str = ""
    usage_estimated: bool = False


class LLMBackend(Protocol):
    """What the engine calls; ``complete`` may run on several threads at once.

    A backend whose replies depend on the order of its calls has a true
    ``ordered`` attribute, and the engine then overlaps no calls of one answer.
    """

    def complete(self, request: ChatRequest) -> Completion: ...


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap; delays are deterministic."""

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_max: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (self.backoff_base >= 0 and self.backoff_max >= 0):
            raise ConfigError(f"backoff must be >= 0, got {self.backoff_base}, {self.backoff_max}")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        return min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_max)


class HttpChatBackend:
    """Client for an OpenAI-style ``POST {endpoint}/chat/completions`` API.

    Retries transport errors, 429, and 5xx responses per the retry policy;
    other 4xx responses fail immediately. The API key is read from an
    environment variable, never from config files, and sent as ``auth``; a
    ``~/.netrc`` entry applies only when no key is set. A call takes one of
    the backend's idle ``requests.Session`` objects, or builds one, and puts
    it back once it has a reply (a call that fails drops it): requests does
    not document a session as thread-safe, so no two calls use one at once,
    yet its connections outlive the thread that made the call. Its sessions
    have ``trust_env`` off: proxies, the CA bundle and netrc are read from
    the environment once, here. An injected ``session`` is used as given, by
    every call.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "LLM_API_KEY",
        timeout: float = 60.0,
        retry: RetryPolicy = RetryPolicy(),
        session: requests.Session | None = None,
        sleep=time.sleep,
    ):
        if not endpoint:
            raise ConfigError("backend endpoint must be non-empty")
        if not model:
            raise ConfigError("backend model must be non-empty")
        if not timeout > 0:
            raise ConfigError(f"backend timeout must be > 0 seconds, got {timeout}")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retry = retry
        self._session = session
        self._idle: list[requests.Session] = []
        self._sleep = sleep
        self._url = f"{self.endpoint}/chat/completions"
        # Proxies, verify and cert for each post, and the auth of a post with no
        # key; an injected session reads them itself.
        self._settings: dict[str, Any] = {}
        self._netrc: tuple[str, str] | None = None
        if session is None:
            with requests.Session() as probe:
                self._settings = probe.merge_environment_settings(self._url, {}, None, None, None)
            self._netrc = requests.utils.get_netrc_auth(self._url)

    def _take_session(self) -> requests.Session:
        if self._session is not None:
            return self._session
        try:
            return self._idle.pop()
        except IndexError:
            session = requests.Session()
            session.trust_env = False
            return session

    def _auth(self) -> Callable[[requests.PreparedRequest], requests.PreparedRequest] | None:
        """Sets the API key as a Bearer header; the netrc entry, or None, when
        no key is set."""
        key = os.environ.get(self.api_key_env, "")

        def bearer(prepared: requests.PreparedRequest) -> requests.PreparedRequest:
            prepared.headers["Authorization"] = f"Bearer {key}"
            return prepared

        return bearer if key else self._netrc

    def complete(self, request: ChatRequest) -> Completion:
        payload: dict[str, Any] = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        session = self._take_session()
        last_error: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                response = session.post(
                    self._url, json=payload, auth=self._auth(), timeout=self.timeout,
                    **self._settings,
                )
            except requests.Timeout as exc:
                last_error = BackendTimeout(f"request timed out after {self.timeout}s")
                logger.warning("attempt %d/%d: %s", attempt, self.retry.max_attempts, exc)
            except requests.RequestException as exc:
                last_error = BackendError(f"transport error: {exc}")
                logger.warning("attempt %d/%d: %s", attempt, self.retry.max_attempts, exc)
            else:
                if response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendHTTPError(
                        response.status_code, _body_snippet(response)
                    )
                    logger.warning(
                        "attempt %d/%d: HTTP %d",
                        attempt,
                        self.retry.max_attempts,
                        response.status_code,
                    )
                elif response.status_code >= 400:
                    raise BackendHTTPError(response.status_code, _body_snippet(response))
                else:
                    if session is not self._session:
                        self._idle.append(session)
                    return self._parse_response(request, response)
            if attempt < self.retry.max_attempts:
                self._sleep(self.retry.delay(attempt))
        if isinstance(last_error, BackendTimeout):
            raise last_error
        raise BackendExhausted(
            f"gave up after {self.retry.max_attempts} attempts: {last_error}"
        )

    def _parse_response(self, request: ChatRequest, response: requests.Response) -> Completion:
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed response body: {exc}") from exc
        if text is None:
            text = ""
        usage_raw = data.get("usage")
        if usage_raw is None:
            usage_raw = {}
        if not isinstance(text, str) or not isinstance(usage_raw, dict):
            raise BackendError(
                "malformed response body: content must be a string and usage an object"
            )
        prompt_tokens = _count(usage_raw, "prompt_tokens")
        completion_tokens = _count(usage_raw, "completion_tokens")
        estimated = prompt_tokens is None or completion_tokens is None
        if prompt_tokens is None:
            prompt_tokens = estimate_tokens(request.system_text) + estimate_tokens(
                request.user_text
            )
        if completion_tokens is None:
            completion_tokens = estimate_tokens(text)
        return Completion(
            text=text,
            usage=TokenUsage(prompt_tokens, completion_tokens),
            model_id=str(data.get("model", self.model)),
            usage_estimated=estimated,
        )


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _count(usage: dict, key: str) -> int | None:
    """A usage count the server reported, or None if it left it out."""
    value = usage.get(key)
    if value is not None and not _is_count(value):
        raise BackendError(f"malformed response body: usage.{key} is {value!r}, not a count")
    return value


def _body_snippet(response: requests.Response, limit: int = 200) -> str:
    try:
        return response.text[:limit]
    except Exception:
        return ""


@dataclass(frozen=True)
class ScriptEntry:
    """One canned completion; ``matcher`` restricts which prompts it answers.

    A None matcher matches any prompt. ``usage`` overrides the estimated
    token counts (and marks them as server-reported).
    """

    completion: str
    matcher: str | None = None
    usage: TokenUsage | None = None


class ScriptedBackend:
    """Deterministic backend that replays canned completions.

    Each call takes the first entry left whose matcher occurs in the
    rendered prompt (system + user). Raises BackendExhausted when no entry
    is left to answer a prompt, which makes over-calling loud in tests.
    The entries left are the backend's own list, so one entry list (or one
    entry repeated) can feed any number of backends. While an entry without
    a matcher is left, the replies depend on call order, so the backend is
    ``ordered``.
    """

    def __init__(self, entries: Iterable[ScriptEntry], model_id: str = "scripted"):
        self._left = list(entries)
        self.model_id = model_id
        self.calls: list[ChatRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> Completion:
        prompt = request.system_text + "\n" + request.user_text
        with self._lock:
            self.calls.append(request)
            for i, entry in enumerate(self._left):
                if entry.matcher is None or entry.matcher in prompt:
                    del self._left[i]
                    break
            else:
                raise BackendExhausted(
                    f"script has no entry left for prompt starting {request.user_text[:80]!r}"
                )
        usage = entry.usage if entry.usage is not None else TokenUsage(
            estimate_tokens(request.system_text) + estimate_tokens(request.user_text),
            estimate_tokens(entry.completion),
        )
        return Completion(
            entry.completion, usage, self.model_id, usage_estimated=entry.usage is None
        )

    @property
    def ordered(self) -> bool:
        with self._lock:
            return any(e.matcher is None for e in self._left)

    @property
    def remaining(self) -> int:
        with self._lock:
            return len(self._left)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """Load entries from JSON: a list of {completion, matcher?, usage?}."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load script {path}: {exc}") from exc
        if not isinstance(data, list):
            raise ConfigError(f"script {path} must be a JSON list")
        entries = []
        for i, item in enumerate(data):
            if isinstance(item, str):
                entries.append(ScriptEntry(completion=item))
                continue
            where = f"script {path} entry {i}"
            if not isinstance(item, dict) or "completion" not in item:
                raise ConfigError(f"{where}: need a 'completion' field")
            completion, matcher, usage = item["completion"], item.get("matcher"), item.get("usage")
            if not isinstance(completion, str):
                raise ConfigError(f"{where}: 'completion' must be a string, got {completion!r}")
            if matcher is not None and not isinstance(matcher, str):
                raise ConfigError(f"{where}: 'matcher' must be a string, got {matcher!r}")
            if usage is not None:
                if not isinstance(usage, dict):
                    raise ConfigError(f"{where}: 'usage' must be an object, got {usage!r}")
                for key in ("prompt_tokens", "completion_tokens"):
                    if not _is_count(usage.get(key, 0)):
                        raise ConfigError(f"{where}: usage.{key} is {usage[key]!r}, not a count")
                usage = TokenUsage(
                    usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
                )
            entries.append(ScriptEntry(completion, matcher, usage))
        return cls(entries)


def scripted_backend(*entries: str | tuple[str, str] | ScriptEntry) -> ScriptedBackend:
    """Shorthand: strings, (matcher, completion) pairs, or ScriptEntry values."""
    built = []
    for entry in entries:
        if isinstance(entry, ScriptEntry):
            built.append(entry)
        elif isinstance(entry, tuple):
            matcher, completion = entry
            built.append(ScriptEntry(completion=completion, matcher=matcher))
        else:
            built.append(ScriptEntry(completion=entry))
    return ScriptedBackend(built)

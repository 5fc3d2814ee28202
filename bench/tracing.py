"""Spans for the traced run, recorded around calls into each layer.

Nothing here changes the program: the wrappers sit at boundaries the program
already exposes. The backend and the retriever are passed to the runner,
prompt rendering goes through a ``PromptLibrary`` passed as ``prompts=``, and
the ``parse_*`` functions and ``write_report`` are swapped in the module
namespaces that ``dualthink.engine`` and ``dualthink.runner`` look them up
in, for the duration of a :func:`patched` block. ``Engine.answer`` is timed
by the worker's engine subclass, which opens the ``engine`` span.

Spans stay in memory as (id, name, start, end, parent, question, attrs)
tuples and are written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import requests

import dualthink.engine as engine_module
import dualthink.runner as runner_module
from dualthink.prompts import PromptLibrary, PromptTemplate
from dualthink.retrieval import tokenize
from dualthink.types import Agent

from standin import RETRY_MARKER, request_digest

#: Boundaries every workload reaches; a zero count fails the run.
BOUNDARIES = ("engine", "backend", "retrieval", "prompts", "parsers", "write_report")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    @property
    def question(self) -> str | None:
        return getattr(self._local, "question", None)

    @question.setter
    def question(self, value: str | None) -> None:
        self._local.question = value

    def begin(self) -> tuple[int, int, float]:
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.monotonic()

    def finish(self, token: tuple[int, int, float], name: str, stop: float, attrs=None) -> None:
        sid, parent, start = token
        self._local.stack.pop()
        self.spans.append((sid, name, start, stop, parent, self.question, attrs))

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "question", "attrs")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class TracedBackend:
    """Wraps the backend passed to the runner; ``service_s`` reads the
    stand-in's reported service time for the calling thread's last call."""

    def __init__(self, inner, tracer: Tracer, service_s):
        self.inner = inner
        self.tracer = tracer
        self.service_s = service_s
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        token = self.tracer.begin()
        try:
            return self.inner.complete(request)
        finally:
            stop = time.monotonic()
            with self._lock:
                self.inflight -= 1
            attrs = {
                "service_s": self.service_s(),
                "digest": request_digest(
                    request.system_text, request.user_text,
                    request.temperature, request.max_tokens,
                ),
                "parse_retry": RETRY_MARKER in request.user_text,
            }
            self.tracer.finish(token, "backend", stop, attrs)


class TracedRetriever:
    """Wraps the index passed to the runner; counts postings per search."""

    def __init__(self, index, tracer: Tracer):
        self.index = index
        self.tracer = tracer

    def search(self, query: str, k: int):
        token = self.tracer.begin()
        try:
            return self.index.search(query, k)
        finally:
            stop = time.monotonic()
            postings = sum(len(self.index.postings.get(t, ())) for t in set(tokenize(query)))
            self.tracer.finish(token, "retrieval", stop, {"postings": postings})


class TracedSession(requests.Session):
    """Session for the HTTP backend: keeps the server's reported service
    time per thread and counts responses that make the client retry."""

    def __init__(self):
        super().__init__()
        self.local = threading.local()
        self.retries = 0
        self._lock = threading.Lock()

    def request(self, method, url, *args, **kwargs):
        response = super().request(method, url, *args, **kwargs)
        if response.status_code == 429 or response.status_code >= 500:
            with self._lock:
                self.retries += 1
        self.local.service_s = float(response.headers.get("X-Service-Ms", "nan")) / 1000
        return response


def traced_prompts(tracer: Tracer) -> PromptLibrary:
    """The default templates, each rendering inside a ``prompts`` span."""

    class TracedTemplate(PromptTemplate):
        def render(self, **values: str) -> tuple[str, str]:
            token = tracer.begin()
            rendered = None
            try:
                rendered = super().render(**values)
                return rendered
            finally:
                stop = time.monotonic()
                chars = len(rendered[1]) if rendered else 0
                tracer.finish(token, "prompts", stop, {"chars": chars})

    default = PromptLibrary.default()
    return PromptLibrary(
        {
            agent: TracedTemplate(agent, default.get(agent).system_text,
                                  default.get(agent).user_template)
            for agent in Agent
        }
    )


@contextmanager
def patched(tracer: Tracer):
    """Swap in traced ``parse_*`` functions and ``write_report``."""

    def traced(fn, name):
        def wrapper(*args, **kwargs):
            token = tracer.begin()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.finish(token, name, time.monotonic(), {"ok": ok})

        return wrapper

    saved = {name: getattr(engine_module, name) for name in dir(engine_module)
             if name.startswith("parse_")}
    saved_report = runner_module.write_report
    for name, fn in saved.items():
        setattr(engine_module, name, traced(fn, "parsers"))
    runner_module.write_report = traced(saved_report, "write_report")
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(engine_module, name, fn)
        runner_module.write_report = saved_report

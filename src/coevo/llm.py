"""Transport-agnostic chat-completion client with a scripted mock.

The mock backend makes whole runs deterministic: responses come from a
script (a flat sequence, or keyed by request tag so generation and
prompt-evolution calls can be scripted independently) and its cursor state
is serializable for checkpoint resume.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .errors import EmptyResponseError, MalformedEnvelopeError, MockScriptError, TransportError


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.8
    top_p: float = 0.95
    max_tokens: int = 4096
    model: str = "default"
    tag: str = ""  # routing key for keyed mock scripts
    slot: int | None = None  # the mock script answer reserved for this request

    def validate(self) -> None:
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")


@dataclass
class CompletionResponse:
    text: str
    finish_reason: str = "stop"
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0


class Backend(Protocol):
    def complete_once(self, request: CompletionRequest) -> CompletionResponse: ...


class MockBackend:
    """Replays scripted responses; zero network activity.

    The script is either a sequence of texts (consumed in order for every
    request) or a mapping from tag to a sequence, with ``"*"`` as the
    fallback key. ``reserve`` takes the next answer for a tag, in the order
    callers ask; a request that carries the returned index as its ``slot``
    gets that answer whenever it runs, so calls made on several threads get
    their reserved answers whichever runs first. A request without a slot
    reserves its answer when it runs.
    """

    def __init__(self, script: Sequence[str] | Mapping[str, Sequence[str]]):
        if isinstance(script, Mapping):
            self._script = {k: list(v) for k, v in script.items()}
        else:
            self._script = {"*": list(script)}
        self._cursor = {k: 0 for k in self._script}

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Script file: one JSON record per line, {"text": ...} with optional "key"."""
        script: dict[str, list[str]] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                text = doc["text"]
            except (json.JSONDecodeError, TypeError, KeyError):
                raise MockScriptError(f"{path} line {lineno}: expected {{\"text\": ...}}") from None
            script.setdefault(doc.get("key", "*"), []).append(text)
        return cls(script)

    def _key_for(self, tag: str) -> str:
        if tag in self._script:
            return tag
        if "*" in self._script:
            return "*"
        raise MockScriptError(f"no scripted responses for tag {tag!r}")

    def reserve(self, tag: str) -> int:
        """The index of the next answer for ``tag``; the cursor moves past it.

        Past the script's end the index is the script's length, where the cursor
        stays, so a cursor never lies outside the script.
        """
        key = self._key_for(tag)
        i = self._cursor[key]
        self._cursor[key] = min(i + 1, len(self._script[key]))
        return i

    def complete_once(self, request: CompletionRequest) -> CompletionResponse:
        key = self._key_for(request.tag)
        i = self.reserve(request.tag) if request.slot is None else request.slot
        answers = self._script[key]
        if i >= len(answers):
            raise MockScriptError(
                f"mock script exhausted for key {key!r} after {len(answers)} responses")
        return CompletionResponse(text=answers[i])

    def state_dict(self) -> dict[str, int]:
        """The next response index per script key."""
        return dict(self._cursor)

    def load_state_dict(self, cursor: dict[str, int]) -> None:
        """Restore cursors; ValueError, with none changed, if one lies outside the script."""
        for k, v in cursor.items():
            if k not in self._script or not 0 <= v <= len(self._script[k]):
                raise ValueError(f"cursor {k!r} = {v} lies outside the mock script")
        self._cursor.update(cursor)


Transport = Callable[[str, bytes, dict, float], tuple[int, bytes]]
# The longest reply body read; a max_tokens = 4096 envelope is a small fraction of it.
MAX_REPLY_BYTES = 16 * 1024 * 1024


def _urllib_transport(url: str, data: bytes, headers: dict, timeout_s: float) -> tuple[int, bytes]:
    """POST ``data``; the status and at most MAX_REPLY_BYTES + 1 bytes of the body."""
    req = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, resp.read(MAX_REPLY_BYTES + 1)
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read(MAX_REPLY_BYTES + 1)
    except (urllib.error.URLError, OSError) as exc:
        raise TransportError(str(exc)) from exc


class HttpBackend:
    """Chat-completion JSON over HTTP (messages/temperature/top_p body)."""

    def __init__(
        self,
        endpoint: str,
        api_key: str = "",
        timeout_s: float = 120.0,
        transport: Transport | None = None,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout_s = timeout_s
        self._transport = transport or _urllib_transport

    def complete_once(self, request: CompletionRequest) -> CompletionResponse:
        body = {
            "model": request.model,
            "messages": [{"role": role, "content": content} for role, content in request.messages],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        started = time.monotonic()
        status, payload = self._transport(
            self.endpoint, json.dumps(body).encode("utf-8"), headers, self.timeout_s
        )
        latency = time.monotonic() - started
        if len(payload) > MAX_REPLY_BYTES:  # the same endpoint would answer the same way again
            raise MalformedEnvelopeError(f"reply exceeds {MAX_REPLY_BYTES} bytes")
        if status >= 500:
            raise TransportError(f"server error {status}")
        if status != 200:
            raise TransportError(f"unexpected status {status}: {payload[:200]!r}")
        try:
            doc = json.loads(payload)
            choice = doc["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason", "stop")
            # usage is an object or absent (null counts as absent); a count is an int, not a bool
            usage = {} if doc.get("usage") is None else doc["usage"]
            tokens = [usage.get(k, 0) for k in ("prompt_tokens", "completion_tokens")]
            if not isinstance(text, str) or any(type(t) is not int for t in tokens):
                raise TypeError
        except (json.JSONDecodeError, AttributeError, KeyError, IndexError, TypeError):
            raise MalformedEnvelopeError("malformed response envelope") from None
        return CompletionResponse(
            text=text,
            finish_reason=finish,
            prompt_tokens=tokens[0],
            completion_tokens=tokens[1],
            latency_s=latency,
        )


def complete(
    backend: Backend,
    request: CompletionRequest,
    retries: int = 3,
    backoff_s: float = 0.5,
) -> CompletionResponse:
    """One completion round trip with bounded retries on transient transport errors."""
    request.validate()
    last: Exception | None = None
    for attempt in range(retries):
        try:
            return backend.complete_once(request)
        except (MalformedEnvelopeError, MockScriptError):
            raise
        except TransportError as exc:
            last = exc
            if attempt + 1 < retries:
                time.sleep(backoff_s * (2**attempt))
    raise TransportError(f"exhausted {retries} attempts: {last}")


_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code(text: str) -> str:
    """First fenced code block, else the whole text trimmed; never empty."""
    if not text or not text.strip():
        raise EmptyResponseError("completion text is empty")
    match = _FENCE.search(text)
    if match:
        block = match.group(1).strip()
        if block:
            return block
    return text.strip()

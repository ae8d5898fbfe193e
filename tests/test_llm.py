import http.server
import json
import threading

import pytest

from conftest import write_mock_script
from coevo import llm
from coevo.errors import (
    EmptyResponseError,
    MalformedEnvelopeError,
    MockScriptError,
    TransportError,
)
from coevo.llm import (
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    MockBackend,
    complete,
    extract_code,
)


def req(tag="", **kw) -> CompletionRequest:
    return CompletionRequest(messages=(("user", "hi"),), tag=tag, **kw)


# --- mock backend -----------------------------------------------------------


def test_mock_sequence_and_exhaustion():
    backend = MockBackend(["A", "B"])
    assert complete(backend, req()).text == "A"
    assert complete(backend, req()).text == "B"
    with pytest.raises(MockScriptError, match="exhausted"):
        complete(backend, req())


def test_mock_keyed_routing():
    backend = MockBackend({"generate": ["g1", "g2"], "prompt-evolve": ["p1"], "*": ["other"]})
    assert complete(backend, req(tag="generate")).text == "g1"
    assert complete(backend, req(tag="prompt-evolve")).text == "p1"
    assert complete(backend, req(tag="whatever")).text == "other"
    assert complete(backend, req(tag="generate")).text == "g2"


def test_mock_from_file(tmp_path):
    path = write_mock_script(tmp_path / "script.jsonl", generate=["one"], flat=["two"])
    backend = MockBackend.from_file(path)
    assert complete(backend, req(tag="generate")).text == "one"
    assert complete(backend, req(tag="unkeyed")).text == "two"  # absent tag falls back to "*"
    with pytest.raises(MockScriptError, match="exhausted"):
        complete(backend, req(tag="generate"))


def test_mock_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(MockScriptError):
        MockBackend.from_file(path)


def test_mock_state_roundtrip():
    backend = MockBackend(["A", "B", "C"])
    complete(backend, req())
    state = backend.state_dict()
    other = MockBackend(["A", "B", "C"])
    other.load_state_dict(state)
    assert complete(other, req()).text == "B"


# --- request validation --------------------------------------------------------


def test_invalid_requests_rejected_before_transport():
    backend = MockBackend(["A"])
    with pytest.raises(ValueError, match="temperature"):
        complete(backend, req(temperature=-1.0))
    with pytest.raises(ValueError, match="top_p"):
        complete(backend, req(top_p=0.0))
    with pytest.raises(ValueError, match="non-empty"):
        complete(backend, CompletionRequest(messages=()))
    # the script cursor never moved
    assert complete(backend, req()).text == "A"


def test_request_defaults_match_run_settings():
    r = req()
    assert r.temperature == 0.8
    assert r.top_p == 0.95


# --- retries and the http envelope ----------------------------------------------


class FlakyBackend:
    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = 0

    def complete_once(self, request):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransportError("boom")
        return CompletionResponse(text="ok")


def test_retries_recover_then_exhaust():
    flaky = FlakyBackend(failures=2)
    assert complete(flaky, req(), retries=3, backoff_s=0).text == "ok"
    assert flaky.attempts == 3
    dead = FlakyBackend(failures=99)
    with pytest.raises(TransportError, match="exhausted 3 attempts"):
        complete(dead, req(), retries=3, backoff_s=0)
    assert dead.attempts == 3


def test_mock_script_errors_are_not_retried():
    backend = MockBackend([])
    with pytest.raises(MockScriptError):
        complete(backend, req(), retries=3, backoff_s=0)


def test_http_backend_body_carries_sampling_params():
    seen = {}

    def transport(url, data, headers, timeout_s):
        seen["url"] = url
        seen["body"] = json.loads(data)
        seen["headers"] = headers
        payload = {"choices": [{"message": {"content": "resp"}, "finish_reason": "stop"}],
                   "usage": {"prompt_tokens": 3, "completion_tokens": 5}}
        return 200, json.dumps(payload).encode()

    backend = HttpBackend("http://example.test/v1/chat", api_key="k", transport=transport)
    response = complete(backend, req(temperature=0.8, top_p=0.95, model="m"))
    assert response.text == "resp"
    assert response.completion_tokens == 5
    assert seen["body"]["temperature"] == 0.8
    assert seen["body"]["top_p"] == 0.95
    assert seen["body"]["model"] == "m"
    assert seen["body"]["messages"] == [{"role": "user", "content": "hi"}]
    assert seen["headers"]["Authorization"] == "Bearer k"


def test_http_backend_malformed_envelope():
    def transport(url, data, headers, timeout_s):
        return 200, b'{"nope": 1}'

    backend = HttpBackend("http://example.test", transport=transport)
    with pytest.raises(TransportError, match="malformed|exhausted"):
        complete(backend, req(), retries=1, backoff_s=0)


@pytest.mark.parametrize("envelope, tokens", [
    ({"usage": None}, (0, 0)),
    ({"choices": [{"message": {"content": [{"type": "text", "text": "resp"}]}}]}, None),
    ({"usage": {"prompt_tokens": "7", "completion_tokens": 5}}, None),
    ({"usage": {"prompt_tokens": 7, "completion_tokens": True}}, None),
    ({"usage": [7, 5]}, None),
], ids=["usage-null", "content-parts", "string-count", "bool-count", "usage-list"])
def test_http_backend_checks_every_envelope_field(envelope, tokens):
    # tokens None: the envelope is malformed, which complete() raises at once and the run logs
    payload = {"choices": [{"message": {"content": "resp"}}], **envelope}

    def transport(url, data, headers, timeout_s):
        return 200, json.dumps(payload).encode()

    backend = HttpBackend("http://example.test", transport=transport)
    if tokens is None:
        with pytest.raises(TransportError, match="malformed response envelope"):
            backend.complete_once(req())
    else:
        response = backend.complete_once(req())
        assert (response.text, response.prompt_tokens, response.completion_tokens) == (
            "resp", *tokens)


def test_malformed_envelope_is_not_retried(monkeypatch):
    # the same endpoint would answer the same way again: one request, no back-off
    calls, slept = [], []
    monkeypatch.setattr("coevo.llm.time.sleep", slept.append)

    def transport(url, data, headers, timeout_s):
        calls.append(url)
        return 200, b'{"choices": [{"message": {"content": [{"type": "text"}]}}]}'

    backend = HttpBackend("http://example.test", transport=transport)
    with pytest.raises(TransportError, match="^malformed response envelope$"):
        complete(backend, req(), retries=3, backoff_s=0.5)
    assert (len(calls), slept) == (1, [])


def test_http_backend_retries_server_errors():
    calls = {"n": 0}

    def transport(url, data, headers, timeout_s):
        calls["n"] += 1
        if calls["n"] < 3:
            return 500, b"err"
        payload = {"choices": [{"message": {"content": "late"}}]}
        return 200, json.dumps(payload).encode()

    backend = HttpBackend("http://example.test", transport=transport)
    assert complete(backend, req(), retries=3, backoff_s=0).text == "late"
    assert calls["n"] == 3


# --- urllib transport, against a server on the loopback -------------------------------


class ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next (status, body) reply."""

    def do_POST(self):
        self.server.bodies.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        status, body = self.server.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = http.server.HTTPServer(("127.0.0.1", 0), ScriptedHandler)
    srv.replies, srv.bodies = [], []
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    yield srv
    srv.shutdown()
    thread.join()
    srv.server_close()


def live_backend(srv):
    return HttpBackend(f"http://127.0.0.1:{srv.server_port}/v1/chat", timeout_s=10.0)


ENVELOPE = json.dumps({"choices": [{"message": {"content": "over the wire"}}]}).encode()


def test_urllib_transport_parses_a_200_reply(server):
    server.replies.append((200, ENVELOPE))
    response = complete(live_backend(server), req(model="m"))
    assert response.text == "over the wire"
    assert server.bodies[0]["messages"] == [{"role": "user", "content": "hi"}]
    assert server.bodies[0]["model"] == "m"


def test_urllib_transport_retries_a_500(server):
    server.replies += [(500, b"busy"), (200, ENVELOPE)]
    assert complete(live_backend(server), req(), retries=3, backoff_s=0).text == "over the wire"
    assert len(server.bodies) == 2


def test_a_reply_over_the_cap_is_refused_and_not_retried(server, monkeypatch):
    monkeypatch.setattr(llm, "MAX_REPLY_BYTES", len(ENVELOPE))
    server.replies += [(200, ENVELOPE), (200, ENVELOPE + b" "), (500, ENVELOPE + b" "),
                       (200, ENVELOPE * 10)]
    assert complete(live_backend(server), req()).text == "over the wire"  # at the cap
    for _ in range(2):
        with pytest.raises(MalformedEnvelopeError, match=f"exceeds {len(ENVELOPE)} bytes"):
            complete(live_backend(server), req(), retries=3, backoff_s=0)
    assert len(server.bodies) == 3
    url = f"http://127.0.0.1:{server.server_port}/"
    status, payload = llm._urllib_transport(url, b"{}", {}, 10.0)  # reads no more than it keeps
    assert (status, payload) == (200, (ENVELOPE * 10)[:len(ENVELOPE) + 1])


# --- extract_code -------------------------------------------------------------------


def test_extract_code_first_fenced_block():
    assert extract_code("here: ```\nX\n```") == "X"
    assert extract_code("```python\ncode()\n```") == "code()"
    assert extract_code("```\nA\n```\ntext\n```\nB\n```") == "A"


def test_extract_code_plain_text_trimmed():
    assert extract_code("  plain code  \n") == "plain code"


def test_extract_code_empty_raises():
    with pytest.raises(EmptyResponseError):
        extract_code("")
    with pytest.raises(EmptyResponseError):
        extract_code("   \n ")


def test_extract_code_idempotent():
    samples = [
        "here: ```\nX\n```",
        "plain",
        "```python\ndef f():\n    return 1\n```",
        "``````",
    ]
    for text in samples:
        once = extract_code(text)
        assert extract_code(once) == once

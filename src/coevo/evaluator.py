"""Sandboxed candidate execution and scoring.

A candidate is a standalone program. It receives one JSON document on
stdin — ``{"type":"tsp","n":N,"matrix":[[...],...]}`` or
``{"type":"bpp","n":N,"capacity":C,"sizes":[...]}`` — and must print one
JSON document — ``{"tour":[...]}`` or ``{"bins":[[...],...]}`` — then exit
0 before the per-instance timeout. Everything else is a classified
failure. A candidate's performance is minus its mean relative error over
the instance set, defined only when every instance produced a valid
solution.
"""

from __future__ import annotations

import atexit
import io
import json
import math
import os
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .errors import MissingOptimumError
from .heuristics import Packing, Tour, tour_length_core, validate_packing, validate_tour
from .instances import Instance, InstanceSet, TspInstance
from .oracles import relative_error

FAIL_START = "syntax/start-failure"
FAIL_TIMEOUT = "timeout"
FAIL_INVALID = "invalid-output"
FAIL_CONSTRAINT = "constraint-violation"
FAIL_SUPER_OPTIMAL = "super-optimal"

DIAGNOSTIC_LIMIT = 4096
MEMORY_LIMIT = 2 << 30  # bytes of address space a candidate may map (RLIMIT_AS)
FILE_SIZE_LIMIT = 64 << 20  # bytes a candidate may write into one file (RLIMIT_FSIZE)
ENV_ALLOWLIST = ("PATH",)  # the only variables a candidate inherits
HELPER = Path(__file__).with_name("forkserver.py")  # the script every candidate is forked from
HELPER_WAIT_S = 10.0  # longest wait for the helper to answer before it is replaced


@dataclass(frozen=True)
class Descriptor:
    """A scored candidate's archive cell: solution-quality bin x source-size bin."""

    performance_bin: int
    complexity_bin: int

    def key(self) -> str:
        return f"{self.performance_bin},{self.complexity_bin}"


@dataclass
class Candidate:
    """A heuristic program plus its evolutionary bookkeeping."""

    id: str
    source: str
    parent_id: str | None = None
    island: int = 0
    generation: int = 0
    strategy_used: str = "seed"
    descriptor: Descriptor | None = None
    performance: float | None = None


@dataclass
class RunnerConfig:
    """How candidate processes are bounded."""

    timeout_s: float = 600.0
    total_timeout_s: float | None = None  # optional per-candidate budget
    max_output_bytes: int = 1 << 20
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:
            raise ValueError("timeout must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class InstanceOutcome:
    instance_name: str
    objective: float | None = None
    rel_error: float | None = None
    valid: bool = False
    failure_class: str | None = None
    diagnostic: str = ""


@dataclass
class EvalReport:
    """Per-instance outcomes plus the aggregate used for archiving."""

    candidate_id: str
    records: list[InstanceOutcome] = field(default_factory=list)
    mean_relative_error: float | None = None
    failure_class: str | None = None
    diagnostic: str = ""


def instance_document(instance: Instance) -> str:
    """Single-line JSON document a candidate reads on stdin."""
    if isinstance(instance, TspInstance):
        doc = {"type": "tsp", "n": instance.n, "matrix": instance.matrix}
    else:
        doc = {"type": "bpp", "n": instance.n, "capacity": instance.capacity,
               "sizes": instance.sizes}
    return json.dumps(doc, separators=(",", ":"))


def _parse_solution(stdout: str, instance: Instance) -> tuple[Any, str | None]:
    try:
        doc = json.loads(stdout)
    except (ValueError, RecursionError):  # RecursionError: nesting too deep to decode
        return None, "output is not a JSON document"
    if not isinstance(doc, dict):
        return None, "output is not a JSON object"
    if isinstance(instance, TspInstance):
        if set(doc.keys()) != {"tour"} or not isinstance(doc["tour"], list):
            return None, 'expected exactly {"tour": [...]}'
        return Tour(tuple(doc["tour"])), None
    if set(doc.keys()) != {"bins"} or not isinstance(doc["bins"], list):
        return None, 'expected exactly {"bins": [[...], ...]}'
    if not all(isinstance(b, list) for b in doc["bins"]):
        return None, "bins must be lists of item indices"
    return Packing(tuple(tuple(b) for b in doc["bins"])), None


def _objective(solution: Tour | Packing, instance: Instance) -> float:
    if isinstance(instance, TspInstance):
        return tour_length_core(instance.matrix, solution.order)
    return solution.bin_count()


class _Forkserver:
    """This process's connection to its helper, which forks every candidate.

    The helper (``coevo/forkserver.py``) is started on first use and replaced
    when it dies or stops answering.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
        atexit.register(self.reset)
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """In a forked child of this process: drop the parent's helper without
        stopping it; the child starts its own when it needs one."""
        if self._sock is not None:
            self._sock.close()
        self._lock = threading.Lock()
        self._proc = self._sock = None

    def spawn(self, cwd: str) -> tuple[int, list[io.FileIO]]:
        """Fork a candidate in cwd: its pid, and our ends of its stdin, stdout,
        stderr and exit-status pipes."""
        with self._lock:
            for _ in range(2):  # a helper that died since the last call is replaced once
                stdin, stdout, stderr, status = (os.pipe() for _ in range(4))
                theirs = [stdin[0], stdout[1], stderr[1], status[1]]
                ours = [io.FileIO(stdin[1], "w"), io.FileIO(stdout[0]), io.FileIO(stderr[0]),
                        io.FileIO(status[0])]
                try:
                    if self._proc is None:
                        self._start()
                    socket.send_fds(self._sock, [cwd.encode()], theirs)
                    reply = self._sock.recv(4096)
                except OSError:
                    reply = b""
                finally:
                    for fd in theirs:
                        os.close(fd)
                if reply and not reply.startswith(b"!"):
                    return int(reply), ours
                for f in ours:
                    f.close()
                if reply:
                    raise OSError(reply[1:].decode(errors="replace"))
                self._stop()
            raise OSError("the forkserver exited before starting the candidate")

    def exit_status(self, status: io.FileIO) -> int | None:
        """The exit code the helper reports on a spawned candidate's status pipe,
        or None if it never does."""
        with status, selectors.DefaultSelector() as sel:
            sel.register(status, selectors.EVENT_READ)
            if sel.select(HELPER_WAIT_S):
                reply = status.read()  # the helper writes once and closes; b"" if it died
                return int(reply) if reply else None
        self.reset()  # a helper that does not answer is replaced
        return None

    def reset(self) -> None:
        """Stop the helper; the next spawn starts a new one."""
        with self._lock:
            self._stop()

    def _start(self) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        ours.settimeout(HELPER_WAIT_S)
        env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
        env["PYTHONHASHSEED"] = "0"
        with theirs:
            try:
                self._proc = subprocess.Popen(
                    [sys.executable, "-s", "-S", "-P", str(HELPER), str(MEMORY_LIMIT),
                     str(FILE_SIZE_LIMIT)],
                    stdin=theirs,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    env=env,
                )
            except OSError:
                ours.close()
                raise
        self._sock = ours

    def _stop(self) -> None:
        if self._proc is not None:
            self._sock.close()
            self._proc.kill()
            self._proc.wait()
            self._proc = self._sock = None


_FORKSERVER = _Forkserver()
_DOCUMENTS: dict[int, bytes] = {}  # id(instance) -> its stdin bytes, while the instance lives
_DOCUMENTS_LOCK = threading.Lock()


def _document(instance: Instance) -> bytes:
    """The bytes a candidate reads on stdin, encoded once per instance object."""
    with _DOCUMENTS_LOCK:
        doc = _DOCUMENTS.get(id(instance))
        if doc is None:
            doc = _DOCUMENTS[id(instance)] = (instance_document(instance) + "\n").encode()
            # dropped with the instance, before its id can name another object
            weakref.finalize(instance, _DOCUMENTS.pop, id(instance), None)
    return doc


def _execute(
    candidate: Candidate, instance: Instance, cfg: RunnerConfig
) -> str | tuple[str, str]:
    """Run the candidate once: its stdout, or (failure_class, diagnostic).

    The candidate is forked from the helper and leads its own session. The
    session is killed on every way out of here, and the helper kills what
    escaped it before it reports the exit code, so no process the candidate
    started outlives the call.
    """
    with tempfile.TemporaryDirectory(prefix="coevo-run-") as tmp:
        program = Path(tmp) / "candidate.py"
        # a lone surrogate in generated text becomes bytes the child rejects as a
        # SyntaxError, instead of an encoding error here that would end the run
        program.write_text(candidate.source, errors="surrogatepass")
        pending = memoryview(_document(instance))
        try:
            pid, (stdin, stdout, stderr, status) = _FORKSERVER.spawn(tmp)
        except OSError as exc:
            return FAIL_START, str(exc)
        out, err = bytearray(), bytearray()
        timed_out = over_cap = False
        deadline = time.monotonic() + cfg.timeout_s
        os.set_blocking(stdin.fileno(), False)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(stdin, selectors.EVENT_WRITE)
                sel.register(stdout, selectors.EVENT_READ)
                sel.register(stderr, selectors.EVENT_READ)
                while sel.get_map() and not over_cap:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        timed_out = True
                        break
                    for key, _ in sel.select(remaining):
                        if key.fileobj is stdin:
                            try:
                                pending = pending[stdin.write(pending) or 0:]
                            except BrokenPipeError:  # the candidate stopped reading
                                pending = pending[:0]
                            if not pending:
                                sel.unregister(stdin)
                                stdin.close()
                            continue
                        chunk = key.fileobj.read(1 << 16)
                        if not chunk:
                            sel.unregister(key.fileobj)
                        elif key.fileobj is stdout:
                            out += chunk
                            over_cap = len(out) > cfg.max_output_bytes
                        else:
                            err += chunk[: cfg.max_output_bytes - len(err)]
        finally:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            for f in (stdin, stdout, stderr):
                f.close()
        code = _FORKSERVER.exit_status(status)
    # tracebacks name the program by its path; dropping the random directory
    # keeps diagnostics, and the files they reach, reproducible
    errors = err.decode(errors="replace").replace(tmp + os.sep, "")
    if over_cap:
        return FAIL_INVALID, "output exceeds size cap"
    if timed_out:
        return FAIL_TIMEOUT, "process terminated at timeout; " + errors
    if code is None:
        return FAIL_START, errors or "the forkserver lost the candidate's exit status"
    if code != 0:
        return FAIL_START, errors or f"exit code {code}"
    return out.decode(errors="replace")


def _judge(stdout: str, instance: Instance) -> InstanceOutcome:
    """Parse, validate and score one completed execution's output."""
    solution, parse_error = _parse_solution(stdout, instance)
    if parse_error is not None:
        return _failed(instance, FAIL_INVALID, f"{parse_error}; stdout: {stdout}")
    if isinstance(instance, TspInstance):
        cls, violation = FAIL_INVALID, validate_tour(instance, solution)
    else:
        violation = validate_packing(instance, solution)
        cls = FAIL_CONSTRAINT if violation and "over capacity" in violation else FAIL_INVALID
    if violation is not None:
        return _failed(instance, cls, violation)
    objective = _objective(solution, instance)
    opt = instance.known_optimal
    if opt is None:
        return InstanceOutcome(instance.name, objective, valid=True)
    if objective < opt - 1e-9 * max(1.0, abs(opt)):
        return _failed(
            instance,
            FAIL_SUPER_OPTIMAL,
            f"objective beats the known optimum by {opt - objective}; "
            "solution or optimum data is corrupt",
        )
    return InstanceOutcome(instance.name, objective, relative_error(objective, opt), valid=True)


def _failed(instance: Instance, failure_class: str, diagnostic: str) -> InstanceOutcome:
    diagnostic = diagnostic.strip()[:DIAGNOSTIC_LIMIT]
    return InstanceOutcome(instance.name, failure_class=failure_class, diagnostic=diagnostic)


def run_candidate(
    candidate: Candidate, instance: Instance, cfg: RunnerConfig
) -> InstanceOutcome:
    """Execute one candidate on one instance and judge the result."""
    result = _execute(candidate, instance, cfg)
    if isinstance(result, tuple):
        return _failed(instance, *result)
    return _judge(result, instance)


def evaluate_candidate(
    candidate: Candidate, instance_set: InstanceSet, cfg: RunnerConfig
) -> EvalReport:
    """Run a candidate over all instances; score it only if all are valid.

    Missing optima are a configuration error detected before any process
    starts. Instances may run in parallel (cfg.workers) but records are
    assembled in instance order and the first failure in that order
    dominates the report's failure class.
    """
    missing = [inst.name for inst in instance_set if inst.known_optimal is None]
    if missing:
        raise MissingOptimumError(f"instances without a known optimum: {', '.join(missing)}")

    deadline = (
        time.monotonic() + cfg.total_timeout_s if cfg.total_timeout_s is not None else None
    )

    def run_one(instance: Instance) -> InstanceOutcome:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return InstanceOutcome(
                    instance_name=instance.name,
                    failure_class=FAIL_TIMEOUT,
                    diagnostic="per-candidate budget exhausted before start",
                )
            local = replace(cfg, timeout_s=min(cfg.timeout_s, remaining))
            return run_candidate(candidate, instance, local)
        return run_candidate(candidate, instance, cfg)

    instances = list(instance_set)
    if cfg.workers > 1 and len(instances) > 1:
        with ThreadPoolExecutor(max_workers=min(cfg.workers, len(instances))) as pool:
            records = list(pool.map(run_one, instances))
    else:
        records = [run_one(inst) for inst in instances]

    report = EvalReport(candidate_id=candidate.id, records=records)
    failures = [r for r in records if not r.valid]
    if failures:
        report.failure_class = failures[0].failure_class
        report.diagnostic = failures[0].diagnostic
        candidate.performance = None
    else:
        errors = [r.rel_error for r in records]
        report.mean_relative_error = math.fsum(errors) / len(errors)
        candidate.performance = -report.mean_relative_error
    return report

"""The helper process that forks every candidate; run as a script, never imported by coevo.

``coevo.evaluator`` starts one per coevo process as

    python -s -S -P forkserver.py MEMORY_LIMIT FILE_SIZE_LIMIT

in the candidate environment, so a forked child starts from the interpreter
state a cold ``python candidate.py`` would reach, with ``json``, ``math`` and
``random`` already imported. It serves that one process over the
SOCK_SEQPACKET socket on its stdin. A request is a working directory with four
descriptors attached: the candidate's stdin, stdout and stderr, and the write
end of a pipe for its exit status. The reply is the candidate's pid, or ``!``
and the reason the fork failed. When the candidate has been reaped, its exit
code (``os.waitstatus_to_exitcode``) is written to the status pipe, which is
then closed. The helper exits when the socket closes.

It imports only the standard library, so that what a candidate finds loaded
is the same whatever coevo itself imports.
"""

import atexit
import builtins
import io
import json  # noqa: F401  (loaded once here, so that candidates import it for free)
import math  # noqa: F401
import os
import random  # noqa: F401  (reseeds itself in every forked child)
import resource
import select
import signal
import socket
import sys

PR_SET_CHILD_SUBREAPER = 36


def sweep(live: dict) -> None:
    """SIGKILL each child of ours that is neither a live evaluation nor in its session.

    Orphans are re-parented to this helper, a child subreaper, so this reaches
    whatever a finished candidate left behind, even in a session of its own.
    """
    me = os.getpid()
    try:
        with open(f"/proc/{me}/task/{me}/children") as f:
            pids = [int(pid) for pid in f.read().split()]
    except OSError:
        return
    for pid in pids:
        try:
            if pid not in live and os.getsid(pid) not in live:
                os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def reap(live: dict) -> None:
    """Reap every finished child; report the exit code of each finished evaluation."""
    done = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
        if pid in live:
            done.append((live.pop(pid), os.waitstatus_to_exitcode(status)))
    if done:
        sweep(live)  # first, so nothing an evaluation left behind outlives its report
    for fd, code in done:
        try:
            os.write(fd, str(code).encode())
        except OSError:
            pass
        os.close(fd)


def set_limit(which: int, limit: int) -> None:
    """Set both limits of one resource to limit, or to the hard limit if that is lower."""
    hard = resource.getrlimit(which)[1]
    limit = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(which, (limit, limit))


def become_candidate(cwd: str, fds: list[int], memory_limit: int, file_size_limit: int) -> None:
    """Become the candidate: run cwd/candidate.py as __main__ and exit as the interpreter would."""
    os.setsid()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    os.chdir(cwd)
    for target, fd in enumerate(fds[:3]):
        os.dup2(fd, target)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    for fd, name in enumerate(("stdin", "stdout", "stderr")):
        # the streams the interpreter would have made on these pipes
        old = getattr(sys, name)
        raw = io.FileIO(fd, "w" if fd else "r", closefd=False)
        raw.name = f"<{name}>"
        buffered = (io.BufferedWriter if fd else io.BufferedReader)(raw)
        stream = io.TextIOWrapper(buffered, old.encoding, old.errors, "\n", old.line_buffering)
        stream.mode = "w" if fd else "r"
        setattr(sys, name, stream)
        setattr(sys, f"__{name}__", stream)
    set_limit(resource.RLIMIT_AS, memory_limit)
    set_limit(resource.RLIMIT_FSIZE, file_size_limit)  # SIGXFSZ is ignored: writes raise OSError
    path = os.path.join(cwd, "candidate.py")
    with open(path, "rb") as f:
        source = f.read()
    try:
        code = compile(source, path, "exec")
    except Exception:
        # what the compiler rejects, the interpreter reports in its own words
        os.execv(sys.executable, [sys.executable, "-s", "-S", "-P", path])
    main = type(sys)("__main__")
    vars(main).update(__file__=path, __cached__=None, __annotations__={}, __builtins__=builtins)
    sys.modules["__main__"] = main
    sys.argv = [path]
    # as much recursion depth as at the bottom of a fresh interpreter: 1 for exec, 1 per frame
    depth, frame = 1, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(sys.getrecursionlimit() + depth)
    try:
        exec(code, vars(main))
        status = 0
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            status = (exc.code or 0) & 0xFF
        else:
            sys.stderr.write(f"{exc.code}\n")
            status = 1
    except BaseException as exc:
        exc = exc.with_traceback(exc.__traceback__.tb_next)  # drop this frame
        sys.excepthook(type(exc), exc, exc.__traceback__)
        status = 1
    # The interpreter's own way out, short of freeing every object: that would
    # copy each page shared with the helper and take longer than all of the above.
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    vars(main).clear()  # the candidate's objects are finalized: its files flush, __del__ runs
    for stream in (sys.stdout, sys.stderr):
        try:
            if not stream.closed:
                stream.flush()
        except Exception:
            status = 120
    os._exit(status)


def serve(memory_limit: int, file_size_limit: int) -> None:
    # A process's first compile() sets the compiler up and costs some 50 times
    # a second one. Done once here, every forked candidate inherits it. The
    # code object is dropped, and compiling imports nothing.
    compile(b"pass\n", "<warm-up>", "exec")
    ctl = socket.socket(fileno=0)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    if sys.platform == "linux":
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    live: dict[int, int] = {}  # evaluation pid -> the write end of its status pipe
    while True:
        ready = select.select([ctl, wake_r], [], [])[0]
        if wake_r in ready:
            os.read(wake_r, 4096)
            reap(live)
        if ctl not in ready:
            continue
        try:
            request, fds, _, _ = socket.recv_fds(ctl, 4096, 4)
        except OSError:
            break
        if not request or len(fds) != 4:
            break
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            reply = b"!" + str(exc).encode()
        else:
            if pid == 0:
                ctl.detach()
                become_candidate(request.decode(), fds, memory_limit, file_size_limit)  # no return
            for fd in fds[:3]:
                os.close(fd)
            live[pid] = fds[3]
            reply = str(pid).encode()
        try:
            ctl.send(reply)
        except OSError:
            break
    for pid in live:
        try:
            os.killpg(pid, signal.SIGKILL)
        except OSError:
            pass
    sweep({})


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))

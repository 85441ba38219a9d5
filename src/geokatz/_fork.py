"""Work split over forked children, each sending back its result.

Raw ``os.fork`` rather than ``multiprocessing``: a pool starts a thread
before it forks, and a spawned worker would re-import geokatz and NumPy
and be sent its inputs pickled, where a forked child shares them
copy-on-write. geokatz starts no thread of its own, and OpenBLAS stops
its thread pool before a fork.
"""

import os
import pickle


def usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes(*caps):
    """How many processes to share work among: the smallest of ``caps``
    (the workers asked for, the parts the work has) and the usable
    CPUs, or 1 where ``os.fork`` does not exist."""
    return min(*caps, usable_cpus()) if hasattr(os, "fork") else 1


def run_parts(parts):
    """The results of ``parts``, a list of (call, what) pairs, in order.

    The first call runs here; each other one runs in a forked child,
    which sends back its result, or its exception, pickled. ``what``
    names a child's work in the error raised when it ends without
    reporting either (a signal, running out of memory). Every child is
    waited for, also when the caller's own call raised: that error
    then wins. Otherwise the first child's error, in ``parts`` order, is
    raised with its type and message.
    """
    children = []
    try:
        for call, what in parts[1:]:
            children.append(_fork(call, what))
        results = [parts[0][0]()]
    finally:
        outcomes = [_wait(*child) for child in children]
    for result, error in outcomes:
        if error is not None:
            raise error
        results.append(result)
    return results


def _fork(call, what):
    """Fork a child that calls ``call`` and sends (result, None) or
    (None, its exception) pickled through a pipe.

    Returns (the child's pid, the read end of the pipe, ``what``). The
    child never returns into the caller's stack: it leaves through
    ``os._exit``, which also skips the exit handlers and buffers it
    shares with the caller; it exits 0 only once its message is sent.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((call(), None),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                # Sent, not raised: the child leaves only by os._exit.
                payload = _pickled(exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd, what


def _pickled(exc):
    """(None, ``exc``) pickled, or, when ``exc`` does not survive a round
    trip, a RuntimeError carrying its type name and message."""
    try:
        payload = pickle.dumps((None, exc))
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps(
            (None, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _wait(pid, read_fd, what):
    """Reap a ``_fork`` child; returns the (result, error) it sent, or
    (None, an error) when it ended otherwise."""
    chunks = []
    try:
        while chunk := os.read(read_fd, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(b"".join(chunks))
    return None, RuntimeError(
        f"{what} ended with exit status {code}"
        + (f" (killed by signal {-code})" if code < 0 else "")
        + " without reporting an error")

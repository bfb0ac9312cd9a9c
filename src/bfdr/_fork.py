"""Forked worker processes for :func:`bfdr.studies.imap_parallel`.

This module is loaded only when a map forks, so that a command that maps
in its own process does not compile it. The parent writes the whole work
queue (chunk start indices) into one pipe before the first fork, then
forks the workers, each with a value pipe in and a result pipe out. A
worker takes chunks from the shared queue, runs the map's blocks and
sends each item's outcome back as a length-framed pickle; the parent
reads the result pipes as they become ready and hands every result on in
input order as soon as it is due. Every pipe end lives only in the two
processes it joins, every child leaves through ``os._exit`` and every
child is reaped, on success, on an item's failure, on a failing
``setup``, on an interrupt, when a worker dies and when the consumer
stops early.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
from typing import Callable, Iterator, NoReturn, Sequence

from .studies import _outcomes, _prepared

__all__ = ["forked_imap"]

# A work-queue record: the first index of a chunk of consecutive items. At
# most _MAX_RECORDS of them fill PIPE_BUF (4,096 bytes), which any pipe
# holds, so the whole queue is written before the first worker starts.
_RECORD = struct.Struct("<I")
_MAX_RECORDS = 1024
# The length prefix of a pickled result on a worker's result pipe.
_FRAME = struct.Struct("<Q")


def forked_imap(
    run: Callable, prepare: Callable, setup: Callable | None, items: Sequence, workers: int, block: int
) -> Iterator:
    """``studies.imap_parallel`` on ``workers`` forked processes, ``run`` taking blocks as its staged form does.

    A generator: the workers are forked when the first result is asked
    for, and each result is yielded in input order as soon as it and every
    result before it have come back. When the consumer closes the
    generator early (an error or an interrupt of its own), the workers
    are killed and reaped, unless every result has come back already;
    then they are only reaped, as they end once the queue is empty.
    """
    n = len(items)
    chunk = -(-n // _MAX_RECORDS)
    hold = min(block, -(-n // workers)) if setup is not None else 0
    queue, queue_end = os.pipe()
    os.write(queue_end, b"".join(map(_RECORD.pack, range(0, n, chunk))))
    os.close(queue_end)
    # A child leaves through os._exit, but what is buffered now would still
    # be in its copy of the buffers.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    fds = [queue]  # every pipe end this process holds
    workers_by_pipe: dict[int, int] = {}  # result pipe -> worker pid
    value_pipes = []
    yielded = 0
    try:
        for _ in range(workers):
            value_in, value_out = os.pipe()
            result_in, result_out = os.pipe()
            fds += [value_in, value_out, result_in, result_out]
            pid = os.fork()
            if pid == 0:
                inherited = [fd for fd in fds if fd not in (queue, value_in, result_out)]
                _worker(run, prepare, items, queue, value_in, result_out, setup is not None, hold, chunk, inherited)
            workers_by_pipe[result_in] = pid
            value_pipes.append(value_out)
            for fd in (value_in, result_out):
                os.close(fd)
                fds.remove(fd)
        os.close(queue)
        fds.remove(queue)
        if setup is not None:
            message = pickle.dumps(setup(), pickle.HIGHEST_PROTOCOL)
            for fd in value_pipes:
                try:
                    _write_all(fd, message)
                except BrokenPipeError:  # that worker has died; _collect names it
                    pass
        for result in _collect(workers_by_pipe, n):
            yielded += 1
            yield result
    finally:
        for fd in fds:
            os.close(fd)
        for pid in workers_by_pipe.values():  # the workers _collect has not reaped
            if yielded < n:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            os.waitpid(pid, 0)


def _worker(
    run: Callable,
    prepare: Callable,
    items: Sequence,
    queue: int,
    value_in: int,
    result_out: int,
    staged: bool,
    hold: int,
    chunk: int,
    inherited: list[int],
) -> NoReturn:
    """A forked worker's whole life; it never returns.

    It first closes the pipe ends it inherited that are not its own, so
    that each pipe's ends live only in the two processes it joins: when
    one of them ends, the other meets end of file or a broken pipe, not a
    wait on a sibling that holds the pipe open. It leaves through
    ``os._exit``, so no buffer or exit handler it inherited runs twice:
    with status 0 when it has served, and 1 when anything outside an item
    failed.
    """
    try:
        for fd in inherited:
            os.close(fd)
        _single_threaded_blas()
        n = len(items)

        def take() -> range | None:
            record = os.read(queue, _RECORD.size)
            if not record:
                return None
            (start,) = _RECORD.unpack(record)
            return range(start, min(n, start + chunk))

        def serve(indices: Sequence[int], prepared: list, error: Exception | None) -> bool:
            """Run a block and send each outcome; False once an item has failed."""
            outcomes = _outcomes(run, value, [items[i] for i in indices], prepared, error)
            for i, (ok, out) in zip(indices, outcomes):
                _write_all(result_out, _frame((i, ok, out)))
                if not ok:
                    return False
            return True

        held: list[int] = []
        prepared: list = []
        error = None
        while error is None and len(held) < hold and (indices := take()) is not None:
            values, error = _prepared(prepare, [items[i] for i in indices])
            held += indices
            prepared += values
        value = pickle.load(open(value_in, "rb", closefd=False)) if staged else None
        if not held or serve(held, prepared, error):
            while (indices := take()) is not None and serve(indices, *_prepared(prepare, [items[i] for i in indices])):
                pass
        os._exit(0)
    finally:
        os._exit(1)


def _collect(workers_by_pipe: dict[int, int], n: int) -> Iterator:
    """Every item's result from the workers' result pipes, yielded in input order as it becomes due.

    A result that comes back ahead of its turn is held until every result
    before it has been yielded. Raises the first failing item's error as
    soon as every item before it is done. When every worker has ended and
    an item before any failing one is still not done, a worker died
    holding it: that raises :class:`ChildProcessError` naming the workers
    that did not end cleanly. A worker is reaped when its pipe closes, and
    then dropped from ``workers_by_pipe``.
    """
    held: dict[int, object] = {}  # results that came back ahead of their turn
    n_done_in_order = 0  # the items before this index are all done
    first_error = None  # (index, exception) of the first failing item so far
    buffers = {fd: bytearray() for fd in workers_by_pipe}
    ended = []
    poll = select.poll()
    for fd in buffers:
        poll.register(fd, select.POLLIN)
    while buffers:
        for fd, _ in poll.poll():
            data = os.read(fd, 1 << 16)
            if not data:
                poll.unregister(fd)
                del buffers[fd]
                pid = workers_by_pipe.pop(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code < 0:
                    ended.append(f"worker process {pid} was killed by signal {-code}")
                elif code > 0:
                    ended.append(f"worker process {pid} exited with status {code}")
                continue
            buffer = buffers[fd]
            buffer += data
            for i, ok, out in _messages(buffer):
                if ok:
                    held[i] = out
                elif first_error is None or i < first_error[0]:
                    first_error = (i, out)
            while n_done_in_order in held:
                result = held.pop(n_done_in_order)
                n_done_in_order += 1
                yield result
            if first_error is not None and n_done_in_order == first_error[0]:
                raise first_error[1]
    if n_done_in_order < n:
        cause = "; ".join(ended) or "every worker process ended"
        raise ChildProcessError(f"{cause} before item {n_done_in_order} of {n} was done")


def _frame(obj) -> bytes:
    """``obj`` pickled, behind its length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(data)) + data


def _messages(buffer: bytearray) -> Iterator:
    """Unpickle each complete framed message at the head of ``buffer``, removing it."""
    while len(buffer) >= _FRAME.size:
        end = _FRAME.size + _FRAME.unpack_from(buffer)[0]
        if len(buffer) < end:
            return
        message = pickle.loads(buffer[_FRAME.size : end])
        del buffer[:end]
        yield message


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]




def _single_threaded_blas() -> None:
    """One BLAS thread in a worker, so that the workers do not oversubscribe the cores.

    A ``bfdr`` command's workers have one already, because ``cli`` sets
    ``OPENBLAS_NUM_THREADS`` before numpy loads; this serves library
    callers whose numpy started more.

    dlsym on numpy's extension module also searches the libraries it links,
    so this finds the BLAS numpy actually calls, under the symbol names of
    the OpenBLAS builds numpy ships with. Without such a symbol it does nothing.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return
    for template in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        set_threads = getattr(lib, template.format("set_num_threads"), None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return

"""Closed-loop client for the `serve` binary.

One client, one request in flight: the next request is written only
after the previous response's END trailer has been read. Times are
`time.perf_counter()` seconds taken in this process, at the moment the
bytes became readable.
"""

import hashlib
import os
import select
import subprocess
import time
from dataclasses import dataclass, field

#: Longest a single response may take before the run is failed.
OP_TIMEOUT_S = 60.0


class BenchError(Exception):
    """A failure that leaves the session unusable: a timeout or the end
    of the program's output."""


class Processes:
    """Every child the benchmark starts, so each is stopped and reaped
    whatever happens."""

    def __init__(self):
        self.live = []

    def start(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc, timeout=OP_TIMEOUT_S):
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        if proc in self.live:
            self.live.remove(proc)
        return code

    def stop_all(self):
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            self.reap(proc)


class Reader:
    """Buffered reads from a pipe that remember when each chunk arrived."""

    def __init__(self, fd):
        self.fd = fd
        self.buf = bytearray()
        self.marks = []  # (end offset in buf, arrival time)

    def fill(self):
        ready, _, _ = select.select([self.fd], [], [], OP_TIMEOUT_S)
        if not ready:
            raise BenchError("timed out waiting for output")
        chunk = os.read(self.fd, 1 << 17)
        if not chunk:
            raise BenchError("unexpected end of output")
        self.buf += chunk
        self.marks.append((len(self.buf), time.perf_counter()))

    def time_at(self, offset):
        for end, t in self.marks:
            if offset < end:
                return t
        raise BenchError("offset beyond received data")

    def consume(self, count):
        del self.buf[:count]
        self.marks = [(end - count, t) for end, t in self.marks if end > count]


@dataclass
class Response:
    ok: bool
    error: str
    latency: float
    begin: float = 0.0  # request written -> BEGIN line read
    first_row: float = 0.0  # request written -> first payload byte
    drain: float = 0.0  # last payload byte -> END line read
    payload_sha: str = ""
    head: dict = field(default_factory=dict)  # BEGIN line fields
    fields: dict = field(default_factory=dict)  # END trailer fields


def _fields(line):
    return dict(word.split("=", 1) for word in line.split()[1:] if "=" in word)


class ServeSession:
    """A running `serve` coordinator and its reader."""

    def __init__(self, procs, serve_bin, log):
        self.procs = procs
        self.launched = time.perf_counter()
        self.proc = procs.start([serve_bin], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=log)
        self.reader = Reader(self.proc.stdout.fileno())

    def request(self, line):
        sent = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        r = self.reader
        while (eol := r.buf.find(b"\n")) < 0:
            r.fill()
        first_line = bytes(r.buf[:eol]).decode(errors="replace")
        if not first_line.startswith("BEGIN "):
            r.consume(eol + 1)
            return Response(False, first_line, r.time_at(eol) - sent)
        begin, start = r.time_at(eol) - sent, eol + 1
        scan = start - 1
        while True:
            # an ERROR line instead of the END trailer voids the stream
            bad = r.buf.find(b"\nERROR ", scan)
            at = r.buf.find(b"\nEND rows=", scan)
            mark = bad if bad >= 0 and (at < 0 or bad < at) else at
            if mark >= 0:
                if (eol := r.buf.find(b"\n", mark + 1)) >= 0:
                    break
                scan = mark  # the last line is still arriving
            else:
                scan = max(start - 1, len(r.buf) - 16)
            r.fill()
        last_line = bytes(r.buf[mark + 1:eol]).decode(errors="replace")
        end = r.time_at(eol)
        if mark == bad:
            r.consume(eol + 1)
            return Response(False, last_line, end - sent, begin)
        payload = bytes(r.buf[start:at + 1])
        first_row = r.time_at(start) - sent
        drain = end - r.time_at(at)
        r.consume(eol + 1)
        sha = hashlib.sha256(payload).hexdigest()
        return Response(True, "", end - sent, begin, first_row, drain, sha,
                        _fields(first_line), _fields(last_line))

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def close(self):
        self.proc.stdin.close()
        code = self.procs.reap(self.proc)
        self.proc.stdout.close()
        return code


def worker_spawn(procs, serve_bin, log):
    """Spawns `serve --worker`, runs one 1-cell task line and returns the
    time to its `done` trailer, or None if the worker misbehaved."""
    launched = time.perf_counter()
    proc = procs.start([serve_bin, "--worker"], stdin=subprocess.PIPE,
                       stdout=subprocess.PIPE, stderr=log)
    reader = Reader(proc.stdout.fileno())
    proc.stdin.write(b"task sweep grid=paper format=csv range=0:1 reps=5 seed=7\n")
    proc.stdin.flush()
    elapsed = None
    try:
        while elapsed is None:
            done = reader.buf.find(b"\ndone ")
            eol = reader.buf.find(b"\n", done + 1) if done >= 0 else -1
            if eol >= 0:
                elapsed = reader.time_at(eol) - launched
            elif reader.buf.startswith(b"error "):
                break
            else:
                reader.fill()
    except BenchError:
        pass
    proc.stdin.close()
    code = procs.reap(proc)
    proc.stdout.close()
    return elapsed if code == 0 else None

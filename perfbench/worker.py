"""Workers that run one tvartop CLI request at a time through ``cli.main``.

A worker is forked from the benchmark process, which has already imported
tvartop and never calls into it, so a fresh worker starts with cold module
caches, as a CLI user does.  The parent writes one JSON request line to the
worker's stdin pipe and reads back one JSON response line, followed by the
packed spans when the worker traces.  A cold worker serves one request and
exits; a warm worker serves requests until its stdin is closed.  A probing
worker samples the machine's speed while it works (``calibrate.Probe``) and
returns the samples of each request with its answer.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback

import calibrate


def _execute(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv, out=out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        # what the interpreter does with an uncaught exception in the CLI
        traceback.print_exc(file=err)
        code = 1
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _serve(rfd, wfd, tracer, probe):
    from tvartop import cli

    reader = os.fdopen(rfd, "rb")
    writer = os.fdopen(wfd, "wb")
    probe = calibrate.Probe().start() if probe else None
    for line in reader:
        argv = json.loads(line)
        code, stdout, stderr = _execute(cli, argv)
        blob = tracer.take() if tracer else b""
        probes = probe.take() if probe else []
        head = {
            "code": code,
            "stdout": stdout,
            "stderr": stderr,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "seed_env": os.environ.get("TVARTOP_SEED"),
            "span_bytes": len(blob),
            "keyed": tracer.keyed_counts() if tracer else {},
            "probes": probes,
        }
        writer.write(json.dumps(head).encode("utf-8") + b"\n" + blob)
        writer.flush()


class Worker:
    """One forked worker process and the pipes to it."""

    def __init__(self, tracer=None, probe=False):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                os.close(req_w)
                os.close(resp_r)
                _serve(req_r, resp_w, tracer, probe)
            except BaseException:
                traceback.print_exc()
                status = 70
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(resp_w)
        self.pid = pid
        self._to = os.fdopen(req_w, "wb")
        self._from = os.fdopen(resp_r, "rb")
        self.maxrss_kb = 0

    def request(self, argv):
        """(response head, span bytes) for one CLI argv."""
        self._to.write(json.dumps(argv).encode("utf-8") + b"\n")
        self._to.flush()
        line = self._from.readline()
        if not line:
            raise RuntimeError("worker exited without answering")
        head = json.loads(line)
        blob = self._from.read(head["span_bytes"]) if head["span_bytes"] else b""
        self.maxrss_kb = max(self.maxrss_kb, head["maxrss_kb"])
        return head, blob

    def close(self):
        """Close the pipes and reap the worker; returns its peak RSS in KB."""
        self._to.close()
        self._from.close()
        _, status, usage = os.wait4(self.pid, 0)
        if status != 0:
            raise RuntimeError(f"worker {self.pid} ended with status {status}")
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return self.maxrss_kb


def cold_request(argv, tracer=None, probe=False):
    """Fork a fresh worker for one request; latency covers fork to exit."""
    start = time.perf_counter()
    w = Worker(tracer, probe)
    head, blob = w.request(argv)
    maxrss = w.close()
    return time.perf_counter() - start, head, blob, maxrss

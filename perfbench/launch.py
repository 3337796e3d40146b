"""Run the repository's RESP server as a subprocess, and control it.

As a script this is the server launcher::

    python -u perfbench/launch.py [--trace-out FILE] -- <repro server args>

It starts ``repro.rediskv.server`` unchanged.  With ``--trace-out`` it
first installs the tracing wrappers and, once the server has shut down,
writes the folded spans to FILE as JSON.

Imported, :class:`ServerProcess` starts the launcher, waits for its
"listening on" line with a timeout, and kills the process on every exit
path: an orphaned server would keep its pipes open.
"""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One server subprocess on an ephemeral port."""

    def __init__(
        self,
        log_dir: Path,
        *,
        data_dir: Optional[Path] = None,
        trace_out: Optional[Path] = None,
        start_timeout: float = 120.0,
    ) -> None:
        self.log_dir = log_dir
        self.data_dir = data_dir
        self.trace_out = trace_out
        self.start_timeout = start_timeout
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.stdout_lines: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._stderr_path = log_dir / f"server-{time.monotonic_ns()}.stderr"
        self._stderr = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ServerProcess":
        cmd = [sys.executable, "-u", str(Path(__file__).resolve())]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "--port", "0"]
        if self.data_dir is not None:
            cmd += ["--data-dir", str(self.data_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        self._stderr = open(self._stderr_path, "w+b")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, stdin=subprocess.DEVNULL, env=env, cwd=ROOT
        )
        self._reader = threading.Thread(target=self._read_stdout, name="server-stdout", daemon=True)
        self._reader.start()
        deadline = time.monotonic() + self.start_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise ServerError(f"server did not report listening in {self.start_timeout}s{self._stderr_tail()}")
            try:
                line = self._lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if line is None:
                self.kill()
                raise ServerError(f"server exited before listening{self._stderr_tail()}")
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))
                return self

    def _read_stdout(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            self.stdout_lines.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the server process."""
        return peak_rss_mb(self.proc.pid)

    def shutdown(self, client, timeout: float = 60.0) -> None:
        """Clean ``SHUTDOWN``, then wait for the process to exit."""
        assert self.proc is not None
        client.execute("SHUTDOWN")
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError(f"server did not exit {timeout}s after SHUTDOWN{self._stderr_tail()}")
        self._finish()
        if self.proc.returncode != 0:
            raise ServerError(f"server exited with code {self.proc.returncode}{self._stderr_tail()}")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._finish()

    def _finish(self) -> None:
        if self._reader is not None:
            self._reader.join(timeout=10)
            self._reader = None
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
            # server stderr goes into the run's own output
            text = self._stderr_path.read_text(errors="replace").strip()
            if text:
                print("\n".join(f"[server] {line}" for line in text.splitlines()), file=sys.stderr)

    def _stderr_tail(self) -> str:
        if self._stderr is None:
            return ""
        self._stderr.flush()
        tail = self._stderr_path.read_bytes()[-4000:].decode(errors="replace").strip()
        return f"; server stderr:\n{tail}" if tail else ""

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.kill()


def peak_rss_mb(pid) -> float:
    """VmHWM of a process (``"self"`` for this one), in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"VmHWM not found for process {pid}")


def _exit_with_parent() -> None:
    """Ends the server if the benchmark process dies without stopping it
    (killed with SIGKILL): an orphan would keep serving forever."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out = argv[1]
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    _exit_with_parent()
    sys.path.insert(0, str(SRC))
    from repro.rediskv.server import main as server_main

    tracer = None
    if trace_out is not None:
        from tracing import Tracer, install_server

        tracer = Tracer()
        install_server(tracer)
    server_main(argv)
    if tracer is not None:
        tracer.uninstall()
        with open(trace_out, "w") as f:
            json.dump(tracer.summary(), f)


if __name__ == "__main__":
    main()

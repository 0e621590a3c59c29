"""Run decomplab jobs as child processes under a guard, through launcher.py."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    rss_mib: float
    code: int | None  # None when a signal ended the child
    stdout: str
    stderr_tail: str
    failure: str | None  # traceback tail, timeout or limit; exit codes are judged by check


def _failure(reply: dict, timeout: float, stderr: str) -> str | None:
    status = reply["status"]
    if reply["timed_out"]:
        return f"timeout after {timeout:.0f} s"
    if not os.WIFEXITED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    if "Traceback (most recent call last)" in stderr:
        lines = stderr.strip().splitlines()
        tail = lines[-1] if lines else ""
        kind = "memory limit" if "MemoryError" in tail else "traceback"
        return f"{kind}: {tail}"
    return None


class Launcher:
    """Context manager around one launcher.py process; stops it on exit."""

    def __enter__(self) -> "Launcher":
        WORK_DIR.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, args: list[str], timeout: float = TIMEOUT_S) -> Outcome:
        """Run `python <args>` in the checkout; time it from spawn to exit."""
        out_path, err_path = WORK_DIR / "stdout", WORK_DIR / "stderr"
        request = {"args": args, "timeout": timeout,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited")
        reply = json.loads(line)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        lines = stderr.strip().splitlines()
        status = reply["status"]
        return Outcome(
            wall_s=reply["wall_s"],
            rss_mib=reply["rss_kib"] / 1024,  # ru_maxrss is in KiB on Linux
            code=os.WEXITSTATUS(status) if os.WIFEXITED(status) else None,
            stdout=stdout,
            stderr_tail=lines[-1] if lines else "",
            failure=_failure(reply, timeout, stderr),
        )

    def run_job(self, argv) -> Outcome:
        return self.spawn(["-m", "decomplab", *argv, "--json"])


def remove_files(paths) -> None:
    for path in paths:
        (ROOT / path).unlink(missing_ok=True)

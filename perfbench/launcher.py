"""Job launcher: a small helper process that starts every job for run.py.

A child's ru_maxrss includes the memory of the process it was forked from,
so jobs are started from this interpreter, which imports only what it
needs, rather than from run.py, which holds sympy.

Each stdin line is a JSON request {"args", "timeout", "stdout", "stderr"};
the job `python <args>` runs under the guard, and one JSON line
{"wall_s", "rss_kib", "status", "timed_out"} answers it. The guard applies
to the job only: an address-space cap set with setrlimit before exec, and a
wall-clock timeout after which the job is killed.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

AS_LIMIT = 3 << 30  # bytes of address space per job; the largest job peaks near 0.8 GiB


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def launch(args, timeout, stdout_path, stderr_path):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_limit_address_space)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    return {"wall_s": wall, "rss_kib": usage.ru_maxrss, "status": status,
            "timed_out": timed_out.is_set()}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = launch(req["args"], req["timeout"], req["stdout"], req["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

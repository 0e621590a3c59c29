"""Pin the reports of the catalogue jobs that have no independent check.

    python3 perfbench/pin.py

Runs every catalogue argv of workloads.py once and writes the digest of
each `decompose`, `hk` and `l-set` report (everything but elapsed_ms) to
digests.json. Run it only on a commit whose results are trusted: the
checker then fails any job whose report differs.
"""

from __future__ import annotations

import json
import sys

from check import DIGESTS_PATH, PINNED, command_of, report_digest
from jobs import WORK_DIR, Launcher, remove_files
from workloads import catalogue



def main() -> int:
    digests = {}
    written = []
    with Launcher() as launcher:
        for argv in catalogue():
            outcome = launcher.run_job(argv)
            if outcome.code != 0 or outcome.failure:
                print(f"error: {' '.join(argv)}: exit {outcome.code}: "
                      f"{outcome.failure or outcome.stderr_tail}", file=sys.stderr)
                return 1
            if "--out" in argv:
                written.append(argv[argv.index("--out") + 1])
            if command_of(argv) in PINNED:
                digests[" ".join(argv)] = report_digest(json.loads(outcome.stdout))
            print(f"{outcome.wall_s:7.3f} s  {' '.join(argv)}")
    remove_files(written)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS_PATH.relative_to(WORK_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

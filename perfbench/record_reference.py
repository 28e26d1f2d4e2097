"""Regenerate ``reference.json`` from one untraced pass of every workload.

    python3 perfbench/record_reference.py

The reference pins the seed-independent rows (see ``check.py``).  Rerun
it only in a change that alters one of those values on purpose, and say
in that change which values moved and why.
"""

import json
import re
import shutil
import sys
import time

from check import reference_rows
from run import run_pass
from workloads import HERE, ROOT, WORKLOADS


def main() -> int:
    work = ROOT / ".bench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for wl in WORKLOADS.values():
        p = run_pass(wl, 1234, work / wl.name, None, time.monotonic() + 3600)
        if p.failed:
            print("\n".join(p.failed), file=sys.stderr)
            return 1
        reference[wl.name] = reference_rows(p.out)
    # one row per line, so that a deliberate change reads as a small diff
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
                  json.dumps(reference, indent=1))
    (HERE / "reference.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

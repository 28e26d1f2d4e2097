"""Set-up probe: run a rislink CLI command up to its first table row.

``python3 perfbench/firstrow.py <rislink CLI args>`` pays everything a
command pays before its first row is computed (interpreter start,
``import rislink``, argument parsing, config and preset construction).
At the first engine or table call it prints ``firstrow <seconds>``, the
CPU time its main thread has used since the process started, and exits
with code 0.  Any other exit means the command never reached a row.
"""

import os
import sys
import time

from rislink import cli


def _first_row(*args, **kwargs):
    print(f"firstrow {time.thread_time()!r}")
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    for name in ("compute_rows", "exact_value", "asymptotic_value", "mc_value"):
        setattr(cli, name, _first_row)
    cli.main(sys.argv[1:])
    sys.exit(70)

"""Set-up probe: a fresh process that gets ready for a workload's first op.

Usage: ``python3 perfbench/setup_probe.py <workload>``.  Prints ``ready``
once imports, dataset loads and the first A² pass are done, then exits.
The benchmark times this from spawn to ``ready`` as ``setup_s``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

if __name__ == "__main__":
    from perfbench.workloads import prepare

    prepare(sys.argv[1])
    print("ready", flush=True)

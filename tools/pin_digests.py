"""Print the lines of ``tools/report_digests.py`` whose bytes do not depend
on numpy's CPU dispatch, each after its line number, for
``tests/test_report_digests.py``.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/pin_digests.py > tests/report_digests_pinned.txt

The digest tool runs twice, each time in a subprocess: under numpy's
default dispatch, and with ``NPY_DISABLE_CPU_FEATURES`` set to
``X86_V3 X86_V4 AVX512_ICL AVX512_SPR``, which leaves an x86-64 numpy its
X86_V2 baseline.  A line is pinned where both runs print it alike.  A
change that moves report bytes on purpose regenerates the file with it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).with_name("report_digests.py")
BASELINE = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def _digests(env: dict) -> list[str]:
    return subprocess.run([sys.executable, str(TOOL)], check=True, text=True,
                          capture_output=True,
                          env={**os.environ, **env}).stdout.splitlines()


def main() -> int:
    default, baseline = _digests({}), _digests(BASELINE)
    if len(default) != len(baseline):
        raise SystemExit("the two runs printed different line counts")
    print("# <line> <run> <campaign> <file> <exit code> <sha256>: the lines "
          "of tools/report_digests.py")
    print("# that numpy's default and X86_V2 dispatch print alike "
          "(tools/pin_digests.py)")
    for n, (a, b) in enumerate(zip(default, baseline), 1):
        if a == b:
            print(n, a)
    return 0


if __name__ == "__main__":
    sys.exit(main())

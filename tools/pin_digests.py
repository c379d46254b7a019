"""Pin the lines of ``tools/report_digests.py`` that
``tests/test_report_digests.py`` compares, each after its line number.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/pin_digests.py

The digest tool runs twice, each time in a subprocess: under numpy's
default dispatch, and with ``NPY_DISABLE_CPU_FEATURES`` set to
``X86_V3 X86_V4 AVX512_ICL AVX512_SPR``, which leaves an x86-64 numpy its
X86_V2 baseline.  ``tests/report_digests_pinned.txt`` gets the lines both
runs print alike, and ``tests/report_digests_x86_v2.txt`` every line of
the X86_V2 run.  A change that moves report bytes on purpose regenerates
both files with it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).with_name("report_digests.py")
TESTS = Path(__file__).resolve().parents[1] / "tests"
BASELINE = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def _digests(env: dict) -> list[str]:
    return subprocess.run([sys.executable, str(TOOL)], check=True, text=True,
                          capture_output=True,
                          env={**os.environ, **env}).stdout.splitlines()


def _write(name: str, which: str, numbered) -> None:
    lines = ["# <line> <run> <campaign> <file> <exit code> <sha256>: the "
             "lines of tools/report_digests.py",
             f"# {which} (tools/pin_digests.py)"]
    lines += [f"{n} {line}" for n, line in numbered]
    (TESTS / name).write_text("\n".join(lines) + "\n")


def main() -> int:
    default, baseline = _digests({}), _digests(BASELINE)
    if len(default) != len(baseline):
        raise SystemExit("the two runs printed different line counts")
    _write("report_digests_pinned.txt",
           "that numpy's default and X86_V2 dispatch print alike",
           [(n, a) for n, (a, b) in enumerate(zip(default, baseline), 1)
            if a == b])
    _write("report_digests_x86_v2.txt", "under numpy's X86_V2 dispatch",
           enumerate(baseline, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

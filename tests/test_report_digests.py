"""The report bytes that do not depend on numpy's CPU dispatch, pinned:
``tools/report_digests.py`` runs in-process, and each line that
``tools/pin_digests.py`` found alike under numpy's default and X86_V2
dispatch must print as committed in ``report_digests_pinned.txt``."""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("report_digests_pinned.txt")


def _dispatch() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(name for name, on in __cpu_features__.items() if on)


def test_dispatch_independent_report_bytes_are_pinned():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool.main_digests()
    lines = out.getvalue().splitlines()
    pinned = [line.split(" ", 1) for line in PINNED.read_text().splitlines()
              if not line.startswith("#")]
    assert pinned
    moved = []
    for number, want in pinned:
        got = lines[int(number) - 1] if int(number) <= len(lines) else ""
        if got != want:
            run, campaign, kind = want.split()[:3]
            moved.append(f"line {number}: run {run}, {campaign} {kind}: "
                         f"printed {got!r}, pinned {want!r}")
    assert not moved, "\n".join(
        moved + [f"numpy {np.__version__}; dispatch features: {_dispatch()}"])

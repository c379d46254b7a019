"""The report bytes of every campaign, pinned.  ``tools/report_digests.py``
runs in-process under numpy's default dispatch, where each line that
``tools/pin_digests.py`` found alike under numpy's default and X86_V2
dispatch must print as committed in ``report_digests_pinned.txt``; and in a
subprocess under X86_V2 dispatch, where all of its lines must print as
committed in ``report_digests_x86_v2.txt``."""

import contextlib
import importlib.util
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("report_digests_pinned.txt")
PINNED_X86_V2 = Path(__file__).with_name("report_digests_x86_v2.txt")


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _dispatch() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(name for name, on in __cpu_features__.items() if on)


def _pinned(path: Path) -> list[list[str]]:
    """The (line number, line) pairs of a pinned file."""
    return [line.split(" ", 1) for line in path.read_text().splitlines()
            if not line.startswith("#")]


def _assert_pinned(lines: list[str], pinned: list[list[str]], dispatch: str):
    """Each pinned line is the line of ``lines`` its number names."""
    assert pinned
    moved = []
    for number, want in pinned:
        got = lines[int(number) - 1] if int(number) <= len(lines) else ""
        if got != want:
            run, campaign, kind = want.split()[:3]
            moved.append(f"line {number}: run {run}, {campaign} {kind}: "
                         f"printed {got!r}, pinned {want!r}")
    assert not moved, "\n".join(
        moved + [f"numpy {np.__version__}; dispatch: {dispatch}"])


def test_dispatch_independent_report_bytes_are_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _tool("report_digests").main_digests()
    _assert_pinned(out.getvalue().splitlines(), _pinned(PINNED),
                   f"default, features {_dispatch()}")


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason=f"X86_V2 is numpy's x86-64 baseline; NPY_DISABLE_CPU_FEATURES "
           f"cannot select it on a {platform.machine()} host")
def test_every_report_byte_is_pinned_under_x86_v2_dispatch():
    baseline = _tool("pin_digests").BASELINE
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **baseline,
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path
                                              else "")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py")],
        env=env, capture_output=True, text=True, check=True)
    lines, pinned = run.stdout.splitlines(), _pinned(PINNED_X86_V2)
    _assert_pinned(lines, pinned, "with NPY_DISABLE_CPU_FEATURES="
                   + baseline["NPY_DISABLE_CPU_FEATURES"])
    assert len(lines) == len(pinned)

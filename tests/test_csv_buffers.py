"""The float formatter's per-thread work buffers: threads formatting at
once each get ``repr``'s bytes, and a CSV write holds little memory."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np

from landaulab import _floattext as ft
from landaulab import cli


def _reprs(values, width: int) -> bytes:
    """repr of each value, then "," or, after every width-th, "\r\n"."""
    separators = itertools.cycle([","] * (width - 1) + ["\r\n"])
    return "".join(map(str.__add__, map(repr, values.tolist()),
                       separators)).encode()


def test_threads_formatting_at_once_each_get_their_reprs(monkeypatch):
    # four threads on two cores, with the g table empty at the start so
    # that they also fill it at once
    monkeypatch.setattr(ft, "_G1", np.zeros_like(ft._G1))
    monkeypatch.setattr(ft, "_G0", np.zeros_like(ft._G0))
    rng = np.random.default_rng(31)
    arrays = [rng.integers(0, 2 ** 64, size, np.uint64, endpoint=False)
              .view(np.float64) for size in (8190, 8192, 5000, 300)]
    arrays[1] = rng.standard_normal(8192) * 10.0 ** rng.integers(-30, 30,
                                                                 8192)
    expected = [_reprs(a, 9) for a in arrays]
    wrong = []

    def format_repeatedly(i):
        for _ in range(20):
            if ft.join_reprs(arrays[i], 9) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=format_repeatedly, args=(i,))
                   for i in range(len(arrays))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_an_orbit_csv_write_peaks_below_two_mib(tmp_path):
    # a write of the benchmark's orbit shape in a thread of its own, whose
    # work buffers are allocated while traced
    table = np.random.default_rng(9).standard_normal((10001, 9))
    peaks = []

    def write():
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path / "orbit.csv"), list("abcdefghi"),
                           table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    t = threading.Thread(target=write)
    t.start()
    t.join(120)
    assert not t.is_alive() and len(peaks) == 1
    assert peaks[0] <= 1.9 * 2 ** 20

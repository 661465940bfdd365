"""The block scratch bounds itself: each thread keeps at most one block
(``_BLOCK`` elements) per kind, and a larger request is the caller's own
array, so no call, returning or raising, leaves more behind."""

import glob
import os
import threading

import numpy as np

from quantkit import quantizer
from quantkit.quantizer import _BLOCK, _scratch

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "quantkit")


def on_a_new_thread(fn):
    """``fn()`` run on a new thread, whose block scratch starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and out
    return out[0]


class TestOneBlockPerKind:
    def test_a_larger_request_is_the_callers_own(self):
        def requests():
            scratch = quantizer._thread_scratch
            small = _scratch("test", (_BLOCK,), np.float32)
            kept = scratch.buffers["test"]
            large = _scratch("test", (_BLOCK + 1,), np.float32)
            again = _scratch("test", (_BLOCK + 1,), np.float32)
            return (small, kept, large, again, _scratch("test", (_BLOCK,), np.float32),
                    dict(scratch.buffers))

        small, kept, large, again, small_again, buffers = on_a_new_thread(requests)
        assert large.shape == (_BLOCK + 1,) and large.dtype == np.float32
        assert large.ctypes.data % quantizer._ALIGN == 0
        assert not any(np.shares_memory(large, buf) for buf in buffers.values())
        assert not np.shares_memory(large, again)  # a fresh array per request
        assert buffers.keys() == {"test"} and buffers["test"] is kept  # kept in place
        assert np.shares_memory(small, kept) and small_again is small

    def test_no_module_names_the_retired_trim(self):
        for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            for name in ("_trim_scratch", "outgrown"):
                assert name not in text, f"{os.path.basename(path)} names {name}"

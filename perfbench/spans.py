"""Span recorder for the traced run, attached from outside the program.

The program has no instrumentation of its own yet, so :func:`instrument`
wraps the public functions at each layer boundary (fusion, planning, the
block cache, the codec and its stages, the kernels, the session, sampling
and observables) for the duration of a ``with`` block and restores them on
exit.  Spans are kept in memory: name, start, end and parent.

Only the thread that created the recorder records; the workloads run every
block task on that thread.  Rank workers are separate processes, so their
codec and kernel time is read from the ``SimulationReport`` instead.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from repro.backends.observables import PauliObservable
from repro.circuits import fusion
from repro.compression import lossless
from repro.compression.engines import numpy_engine
from repro.compression.huffman import HuffmanCodec
from repro.compression.interface import Compressor
from repro.core.cache import BlockCache
from repro.core.executor import TaskExecutor
from repro.core.simulator import CompressedSimulator
from repro.distributed import exchange
from repro.distributed.ranked import RankedExecutor
from repro.statevector import ops


class Recorder:
    """In-memory spans: ``[name, start, end, parent_index, bytes_in, bytes_out]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._owner = threading.get_ident()

    def _push(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] += 1
        span[1] = time.perf_counter()
        return span

    def _pop(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open[span[0]] -= 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a ``with`` block (the iteration root)."""

        span = self._push(name)
        try:
            yield
        finally:
            self._pop(span)

    def wrap(self, fn, name: str, measure=None):
        """*fn* recording a span *name* per call; *measure* gives its bytes.

        A call nested inside an open span of the same name is not recorded
        again, so inclusive times are never counted twice.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name] or threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            span = self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(span)
            if measure is not None:
                span[4], span[5] = measure(args, result)
            return result

        return traced


def _compress_bytes(args, result):
    return args[1].nbytes, len(result)


def _decompress_bytes(args, result):
    return len(args[1]), result.nbytes


def _kernel_bytes(args, result):
    # Computed, not measured: every 1-D complex buffer is read and written once.
    touched = sum(
        a.nbytes for a in args if isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind == "c"
    )
    return touched, touched


def _plan_tasks(args, result):
    return 0, len(result.tasks)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _method_targets():
    """``(class, attribute, span name, measure)`` for every wrapped method."""

    targets = [
        (CompressedSimulator, "__init__", "session", None),
        (CompressedSimulator, "reset", "session", None),
        (CompressedSimulator, "sample_counts", "sample", None),
        (CompressedSimulator, "statevector", "statevector", None),
        (PauliObservable, "expectation", "observables", None),
        (BlockCache, "lookup", "cache", None),
        (BlockCache, "insert", "cache", None),
        (HuffmanCodec, "encode", "codec.huffman_encode", None),
        (HuffmanCodec, "decode", "codec.huffman_decode", None),
    ]
    for executor in (TaskExecutor, *_subclasses(TaskExecutor), RankedExecutor):
        if "run_plan" in vars(executor):
            targets.append((executor, "run_plan", "apply", None))
    for codec in _subclasses(Compressor):
        if "compress" in vars(codec):
            targets.append((codec, "compress", "compress", _compress_bytes))
        if "decompress" in vars(codec):
            targets.append((codec, "decompress", "decompress", _decompress_bytes))
    for engine in (numpy_engine.CodecEngine, *_subclasses(numpy_engine.CodecEngine)):
        for attribute, name in (
            ("sz_quantize", "codec.quantize"),
            ("pack_bitfields", "codec.bitpack"),
            ("pack_leading_zero", "codec.xor_pack"),
            ("unpack_leading_zero", "codec.xor_unpack"),
        ):
            if attribute in vars(engine):
                targets.append((engine, attribute, name, None))
    return targets


#: Module-level functions, rebound in every ``repro`` module that holds them.
_FUNCTION_TARGETS = [
    (fusion.fuse_gate_sequence, "fusion", None),
    (exchange.plan_gate, "plan", _plan_tasks),
    (lossless.lossless_compress_bytes, "codec.lossless", None),
    (lossless.lossless_decompress_bytes, "codec.unlossless", None),
    (ops.apply_single_qubit, "kernel", _kernel_bytes),
    (ops.apply_single_qubit_pairwise, "kernel", _kernel_bytes),
    (ops.apply_single_qubit_pairwise_masked, "kernel", _kernel_bytes),
    (ops.apply_single_qubit_pairwise_half, "kernel", _kernel_bytes),
    (ops.apply_controlled_single_qubit, "kernel", _kernel_bytes),
]


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap every layer boundary for the ``with`` block, then restore."""

    restore: list[tuple[object, str, object]] = []
    try:
        for cls, attribute, name, measure in _method_targets():
            original = vars(cls)[attribute]
            restore.append((cls, attribute, original))
            setattr(cls, attribute, recorder.wrap(original, name, measure))
        for fn, name, measure in _FUNCTION_TARGETS:
            wrapped = recorder.wrap(fn, name, measure)
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                for attribute, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, attribute, fn))
                        setattr(module, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


def layer_totals(spans: list[list], root: int) -> tuple[dict, float, float]:
    """Per-name ``count``/``total_s``/``self_s``/bytes under span *root*.

    Returns the totals, the root's duration and the summed duration of the
    root's direct children (the top-level spans).
    """

    children_time: dict[int, float] = defaultdict(float)
    members = []
    for index in range(root + 1, len(spans)):
        name, start, end, parent, _, _ = spans[index]
        if parent is None:
            break
        members.append(index)
        children_time[parent] += end - start
    totals: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "bytes_in": 0, "bytes_out": 0}
    )
    top_level = 0.0
    for index in members:
        name, start, end, parent, bytes_in, bytes_out = spans[index]
        entry = totals[name]
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children_time[index]
        entry["bytes_in"] += bytes_in
        entry["bytes_out"] += bytes_out
        if parent == root:
            top_level += end - start
    _, start, end, _, _, _ = spans[root]
    return dict(totals), end - start, top_level

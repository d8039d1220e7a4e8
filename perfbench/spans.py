"""Span recording by attribute patching, for the benchmark's traced run.

The program carries no instrumentation of its own. For the traced run the
benchmark replaces each function it measures with a wrapper that records a
span (name, start, end, parent span, operation id) and restores the
originals afterwards. A function is replaced under every name a caller
looks it up by: ``explorer`` imports ``check_invariants`` and
``execute_step`` by name, so those module attributes are replaced as well as
the defining ones. Methods are replaced on their class.

Spans stay in memory, one buffer per thread so the channel's two endpoints
never share a buffer, and are written out once the run ends. A span's self
time is its duration minus the durations of its direct children; children
of one span never overlap because a thread's spans nest strictly.
"""

import array
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class _Buffer:
    """One thread's spans as parallel arrays plus its open-span stack."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = []
        self.op_id = 0
        self.nbytes = defaultdict(int)


class Recorder:
    """Collects spans from wrapped functions; ``patch_*`` installs the
    wrappers and ``restore`` removes them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- buffers

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_op(self, op_id: int) -> None:
        """Tag this thread's following spans with a step or message id."""
        self._buffer().op_id = op_id

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------- wrapping

    def wrap(self, name: str, func, count_bytes=None):
        """Return ``func`` wrapped in a span called ``name``.

        ``count_bytes(args, kwargs, result)`` adds to the span name's byte
        counter.
        """
        nid = self._name_id(name)
        buffer = self._buffer
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            buf = buffer()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.op.append(buf.op_id)
            buf.end.append(0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if count_bytes is not None:
                buf.nbytes[nid] += count_bytes(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Wrap a module-level function under every csmsim name bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **options)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("csmsim"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **options) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **options))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def summary(self) -> dict:
        """Per span name: calls, self nanoseconds, and bytes counted."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        nbytes = [0] * len(self.names)
        for buf in self._buffers:
            dur = [e - s for s, e in zip(buf.start, buf.end)]
            own = list(dur)
            for idx, parent in enumerate(buf.parent):
                if parent >= 0:
                    own[parent] -= dur[idx]
            for idx, nid in enumerate(buf.name):
                calls[nid] += 1
                self_ns[nid] += own[idx]
            for nid, n in buf.nbytes.items():
                nbytes[nid] += n
        return {name: {"calls": calls[i], "self_ns": self_ns[i],
                       "bytes": nbytes[i]}
                for i, name in enumerate(self.names)}

    def covered_ns(self, thread: int) -> int:
        """Time one thread spent inside any span: its top-level durations."""
        return sum(buf.end[i] - buf.start[i] for buf in self._buffers
                   if buf.thread == thread
                   for i, parent in enumerate(buf.parent) if parent < 0)

    def sequence(self, names: set) -> list:
        """Names of the calling thread's spans in start order, restricted
        to ``names``."""
        buf = self._buffer()
        return [self.names[nid] for nid in buf.name if self.names[nid] in names]

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names,
                  "arrays": ["name:i32", "parent:i64", "op:i64",
                             "start_ns:i64", "end_ns:i64"],
                  "threads": [len(buf.name) for buf in self._buffers],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self._buffers:
                for arr in (buf.name, buf.parent, buf.op, buf.start, buf.end):
                    arr.tofile(fh)

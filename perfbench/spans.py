"""
In-memory span recorder and call-site rebinding for the traced run.

A span is ``(name, start, end, parent)``: the parent is the index of the
span that was open when this one started, or -1.  Spans are appended to flat
arrays while the traced code runs and are only analysed or written out when
it has finished, so recording costs two clock reads and four appends.

A layer's self time is its span's duration minus the part of that interval
that its child spans cover.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns


class Recorder:
    """Records one span per call of every function it wrapped."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open = [-1]

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        """Append a finished span and return its index."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """
        ``fn`` with a span named ``name`` around each call.  ``observe(args,
        result)`` runs after the span has closed, so counting work does not
        add to the span's own time.
        """
        nid = self._id(name)
        name_id, start, end, parent, open_ = self.name_id, self.start, self.end, self.parent, self._open
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Span name -> (number of spans, summed self time in ns)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = array("q", bytes(8 * n))
        frontier = array("q", start)  # per parent: end of the covered union so far
        order = sorted(range(n), key=start.__getitem__)
        for i in order:
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], frontier[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if hi > frontier[p]:
                frontier[p] = hi
        out: dict[str, list[int]] = {name: [0, 0] for name in self.names}
        for i in range(n):
            acc = out[self.names[self.name_id[i]]]
            acc[0] += 1
            acc[1] += end[i] - start[i] - covered[i]
        return {name: (calls, ns) for name, (calls, ns) in out.items()}

    def write(self, stem: Path) -> None:
        """
        Write ``<stem>.json`` (name table and layout) and ``<stem>.spans``:
        the name-id, start, end and parent columns as raw native arrays, in
        that order, each ``count`` items long.
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [self.name_id, self.start, self.end, self.parent]
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for col in columns:
                col.tofile(fh)
        header = {
            "count": len(self),
            "names": self.names,
            "columns": [["name_id", "i"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"]],
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


class Rebinder:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # vars() gives the raw class attribute (a classmethod stays one)
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind_everywhere(self, modules, original, replacement) -> int:
        """
        Point every module-level name bound to ``original`` at
        ``replacement``.  Callers that did ``from .x import f`` hold their own
        binding of ``f``, so patching the defining module alone misses them.
        """
        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

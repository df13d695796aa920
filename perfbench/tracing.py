"""Spans around the proxy's layers, recorded from outside the program.

`Recorder.install()` replaces each traced function with a wrapper at the
place its caller looks it up (`chamail.proxy.extract_meta`, not
`chamail.policy.extract_meta`, because proxy.py imports the name), and
`install(False)` puts the original back. A wrapper records the function's
name, start, end and self time (its time minus the traced calls it made),
plus a byte count or a result for the few functions where that is the
measure. Spans stay in flat arrays until `dump()`; `join()` later assigns
each span to the client operation whose interval contains it, which is
exact because the client has one operation in flight at a time.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
import time
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict

# (module, attribute path, span name, what to record besides time)
TARGETS = (
    ("chamail.credstore", "verify_credential", "credstore.verify_credential", None),
    ("chamail.credstore", "CredStore.authenticate", "credstore.authenticate", None),
    ("chamail.store", "open_sealed", "store.open_sealed", None),
    ("chamail.proxy", "extract_meta", "policy.extract_meta", None),
    ("chamail.proxy", "evaluate", "policy.evaluate", "result"),
    ("chamail.proxy", "sender_constraints_pass", "policy.sender_constraints_pass", "result"),
    ("chamail.proxy", "parse_fetch_attrs", "imapcodec.parse_fetch_attrs", None),
    ("chamail.proxy", "parse_response", "imapcodec.parse_response", None),
    ("chamail.imapcodec", "parse_command", "imapcodec.parse_command", None),
    ("chamail.imapcodec", "SequenceSet.from_numbers", "imapcodec.SequenceSet.from_numbers", None),
    ("chamail.imapcodec", "SequenceSet.render", "imapcodec.SequenceSet.render", None),
    ("chamail.viewmap", "ViewMap.__init__", "viewmap.ViewMap.__init__", None),
    ("chamail.viewmap", "ViewMap.map_up", "viewmap.ViewMap.map_up", None),
    ("chamail.viewmap", "ViewMap.map_down_seq", "viewmap.ViewMap.map_down_seq", None),
    ("chamail.viewmap", "ViewMap.visible_uids", "viewmap.ViewMap.visible_uids", None),
    ("chamail.viewmap", "ViewMap.filter_uids", "viewmap.ViewMap.filter_uids", None),
    ("chamail.viewmap", "ViewMap.apply_upstream_expunge", "viewmap.ViewMap.apply_upstream_expunge", None),
    ("chamail.viewmap", "ViewMap.extend_on_new", "viewmap.ViewMap.extend_on_new", None),
    ("chamail.proxy", "UpstreamConnection.send_blob", "proxy.UpstreamConnection.send_blob", "arg_len"),
    ("chamail.proxy", "UpstreamConnection.read_blob", "proxy.UpstreamConnection.read_blob", "result_len"),
    ("chamail.proxy", "ClientSession._send", "proxy.ClientSession._send", "arg_len"),
)
NAMES = tuple(t[2] for t in TARGETS)


class Recorder:
    def __init__(self):
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.size = array("q")
        self.results: Counter = Counter()
        self._local = threading.local()
        self._swaps = []  # (owner, attribute, original, wrapper)

    def _wrap(self, nid: int, fn, extra):
        local = self._local
        rec_id, rec_start, rec_end = self.name_id.append, self.start.append, self.end.append
        rec_self, rec_size, results = self.self_ns.append, self.size.append, self.results
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
            rec_id(nid)
            rec_start(start)
            rec_end(end)
            rec_self(end - start - children)
            if extra == "arg_len":
                rec_size(len(args[1]))
            elif extra == "result_len":
                rec_size(len(result))
            else:
                rec_size(0)
                if extra == "result":
                    results[(nid, str(result))] += 1
            return result

        return traced

    def install(self, on: bool = True) -> None:
        """Put the wrappers in place (*on*) or the original functions back."""
        if not self._swaps:
            for nid, (module_name, path, _name, extra) in enumerate(TARGETS):
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(nid, raw.__func__, extra))
                else:
                    wrapped = self._wrap(nid, raw, extra)
                self._swaps.append((owner, attr, raw, wrapped))
        for owner, attr, raw, wrapped in self._swaps:
            setattr(owner, attr, wrapped if on else raw)

    def dump(self, path: str) -> list:
        """Write the span columns to *path* as one binary array; return the
        result tallies as [[span name id, result, count], ...]."""
        columns = array("q", self.name_id)
        for column in (self.start, self.end, self.self_ns, self.size):
            columns.extend(column)
        with open(path, "wb") as fh:
            columns.tofile(fh)
        return [[nid, value, count] for (nid, value), count in self.results.items()]


def load(path: str, results: list) -> dict:
    """The spans `Recorder.dump` wrote, as columns for `join`."""
    columns = array("q")
    with open(path, "rb") as fh:
        columns.frombytes(fh.read())
    n = len(columns) // 5
    names = ("name_id", "start", "end", "self_ns", "size")
    spans = {name: columns[i * n : (i + 1) * n] for i, name in enumerate(names)}
    spans["results"] = results
    return spans


# -- join ----------------------------------------------------------------------------


def _locate(ops, starts, t: int):
    """The operation whose interval contains *t*, or None."""
    i = bisect_right(starts, t) - 1
    if i >= 0 and ops[i][1] <= t <= ops[i][2]:
        return ops[i][0]
    return None


def join(ops: list[tuple[str, int, int]], proxy: dict, standin: list[int]) -> dict:
    """Per-layer table from client ops (name, start, end), proxy spans and
    stand-in service spans (flat start, end, line-bytes triples).

    Returns {"functions": {span: {"calls", "p50_us", "self_ms": {op: ms per op}}},
    "mock": {...}, "results": {...}, "op_counts": {...}, "op_ms": {...}}.
    """
    ops = sorted(ops, key=lambda o: o[1])
    starts = [o[1] for o in ops]
    op_counts = Counter(o[0] for o in ops)
    op_ms = Counter()
    for name, start, end in ops:
        op_ms[name] += (end - start) / 1e6

    calls: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    self_by_op: dict[str, Counter] = defaultdict(Counter)
    calls_by_op: dict[str, Counter] = defaultdict(Counter)
    size_by_op: dict[str, Counter] = defaultdict(Counter)
    for nid, start, end, self_ns, size in zip(
        proxy["name_id"], proxy["start"], proxy["end"], proxy["self_ns"], proxy["size"]
    ):
        name = NAMES[nid]
        op = _locate(ops, starts, start)
        if op is None:
            continue
        calls[name] += 1
        durations[name].append(end - start)
        self_by_op[name][op] += self_ns
        calls_by_op[name][op] += 1
        size_by_op[name][op] += size

    functions = {}
    for name in NAMES:
        functions[name] = {
            "calls": calls[name],
            "p50_us": statistics.median(durations[name]) / 1e3 if durations[name] else 0.0,
            "self_ms": {op: self_by_op[name][op] / 1e6 / op_counts[op] for op in self_by_op[name]},
            "calls_by_op": dict(calls_by_op[name]),
            "bytes_by_op": dict(size_by_op[name]),
        }

    service_by_op: Counter = Counter()
    max_line = 0
    for i in range(0, len(standin), 3):
        start, end, line = standin[i : i + 3]
        op = _locate(ops, starts, start)
        if op is None:
            continue
        service_by_op[op] += end - start
        max_line = max(max_line, line)
    mock = {
        "service_ms": {op: service_by_op[op] / 1e6 / op_counts[op] for op in service_by_op},
        "max_command_line_bytes": max_line,
    }
    results = Counter()
    for nid, value, count in proxy["results"]:
        results[f"{NAMES[nid]}={value}"] += count
    return {
        "functions": functions,
        "mock": mock,
        "results": dict(results),
        "op_counts": dict(op_counts),
        "op_ms": {op: op_ms[op] / op_counts[op] for op in op_ms},
    }

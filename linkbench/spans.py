"""In-memory span recorder for the traced benchmark run.

The recorder replaces a function at the name its caller looks it up by
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, the index of the enclosing span and the
operation it belongs to, plus an optional tuple of work counts taken from
the call's arguments and result. Spans stay in a list until the run ends.
A target that a refactor has removed is listed in `absent`, not raised.
"""

import functools
import importlib
import time
from collections import defaultdict


class Recorder:
    def __init__(self, targets):
        """`targets`: (owner path, attribute, span name, work function or
        None). The owner path is a module, optionally followed by a class
        name, e.g. "shuttervlc.scenario.LinkSimulation"."""
        self.targets = targets
        self.spans = []         # [name, start, end, parent, op, work]
        self.op = -1
        self.absent = []
        self._stack = []
        self._saved = []        # (owner, attribute, original descriptor)

    def install(self) -> None:
        self.absent = []
        for owner_path, attr, name, work in self.targets:
            owner = _resolve(owner_path)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, work))
            else:
                wrapped = self._wrap(raw, name, work)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result
        return wrapper

    def to_json_obj(self) -> dict:
        return {"fields": ["name", "start_s", "end_s", "parent", "op", "work"],
                "absent": self.absent, "spans": self.spans}


def _resolve(path: str):
    """Import the longest module prefix of `path`, then walk attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


def summarize(spans) -> dict:
    """Per span name: calls, inclusive time, self time and summed work,
    and the same calls and work split by every enclosing span name.

    Inclusive time counts only spans with no enclosing span of the same
    name, so a recursive call is not counted twice. Self time is a span's
    duration minus the durations of its direct children."""
    child_time = defaultdict(float)
    for _name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def entry():
        return {"calls": 0, "time": 0.0, "self": 0.0, "work": [0, 0]}

    out = defaultdict(lambda: dict(entry(), under=defaultdict(entry)))
    for i, (name, start, end, parent, _op, work) in enumerate(spans):
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        e = out[name]
        e["self"] += (end - start) - child_time[i]
        if name not in ancestors:
            e["time"] += end - start
        for target in [e] + [e["under"][a] for a in ancestors]:
            target["calls"] += 1
            for k, w in enumerate(work or ()):
                target["work"][k] += w
    return out

"""In-memory span recorder that wraps public functions of the deqmcl modules.

A span is (name, start, end, parent span, trial id).  Spans nest by call
order on the single workload thread, so a span's self time is its duration
minus the summed durations of its direct children.  The recorder keeps
per-name totals as spans close and writes the raw spans out once, at the end.

Wrappers are installed where callers look the name up (a module global, a
module attribute, or a class attribute), because patching the defining
module does not redirect a name another module imported with ``from``.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """Records spans around wrapped callables; `restore` undoes every patch."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # spans as flat columns; a list of tuples would make the cyclic
        # garbage collector rescan every recorded span
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_trial = array("i")
        self.calls: Counter = Counter()
        self.calls_by_parent: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [index, name, start, child_s]
        self._trial = -1
        self._next_trial = 0
        self._patches: list[tuple[object, str, object]] = []
        self._open_trial_spans = 0

    def wrap(self, owner, attr: str, name: str, on_return=None, starts_trial: bool = False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(args, kwargs, result)`` may add to `counts`.  A span with
        ``starts_trial`` that opens outside another trial-starting span gives
        itself and every later span a new trial id; the id ends with the
        outermost span.
        """
        original = getattr(owner, attr)
        stack = self._stack
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            if starts_trial:
                if not self._open_trial_spans:
                    self._trial = self._next_trial
                    self._next_trial += 1
                self._open_trial_spans += 1
            parent = stack[-1] if stack else None
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_trial.append(self._trial)
            self.span_end.append(0.0)  # set when the span closes
            start = time.perf_counter()
            self.span_start.append(start - self.t0)
            entry = [index, name, start, 0.0]
            stack.append(entry)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if starts_trial:
                    self._open_trial_spans -= 1
                dur = end - start
                self.span_end[index] = end - self.t0
                self.calls[name] += 1
                self.calls_by_parent[(name, parent[1] if parent else None)] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - entry[3]
                if parent:
                    parent[3] += dur
                else:
                    self._trial = -1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("name,start_s,end_s,parent,trial\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_trial[i]}\n"
                )

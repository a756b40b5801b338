"""Spans around calls into metaprop's public functions, installed from outside.

:func:`rebind` replaces a function in every module that holds a
reference to it (``selection`` and ``cli`` both bind ``encode_design``
by name, for example) and :func:`restore` puts the originals back, so
nothing inside the program changes.  A :class:`Tracer` makes the
wrappers and keeps one span per call in memory.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = None
        self._stack: list = []

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each call records a span named ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped so each call only increments a count."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self) -> list:
        """Per span, its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def rebind(owner, attr: str, wrapper_of) -> list:
    """Replace ``owner.attr`` and every metaprop-module alias of it.

    Returns the (holder, name, original) records that :func:`restore`
    puts back.
    """
    original = getattr(owner, attr)
    wrapper = wrapper_of(original)
    holders = [owner] + [mod for name, mod in list(sys.modules.items())
                         if mod is not None and mod is not owner
                         and (name == "metaprop" or name.startswith("metaprop."))]
    records = []
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                records.append((holder, key, original))
                setattr(holder, key, wrapper)
    return records


def restore(records: list) -> None:
    for holder, key, original in reversed(records):
        setattr(holder, key, original)

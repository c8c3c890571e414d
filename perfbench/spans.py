"""Spans recorded from outside the package, and the statistics made from them.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent), an optional tag and whether it
raised. Spans are kept in memory in flat lists and summarised once the run
ends. The wrappers replace a function object in every ``skycell`` module that
holds a reference to it, so a call is caught at its call site whether the
caller wrote ``kernels.rx_powers(...)`` or imported the name directly.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

# percentiles tried for the tail figure, lowest first
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []
        self.errors = []
        self.counters = {}
        self._open = []

    def add(self, name, start, end, parent=-1, tag=None, error=False) -> int:
        """Append a finished span and return its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.tags.append(tag)
        self.errors.append(error)
        return len(self.names) - 1

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, name_of=None, tag_of=None, after=None):
        """Function that records a span around every call of fn.

        name_of(args) and tag_of(args) refine the span's name and tag from
        the call's arguments; after(args, result) sees each result, for
        counters such as the candidates a k-NN call returned.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, tags, errors, stack = self.parents, self.tags, self.errors, self._open

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if name_of is None else name_of(args))
            tags.append(None if tag_of is None else tag_of(args))
            parents.append(stack[-1] if stack else -1)
            errors.append(False)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class Patches:
    """Replace functions and methods of the package, and put them back."""

    def __init__(self, package: str = "skycell"):
        self.package = package
        self._undo = []

    def function(self, fn, make) -> None:
        """Swap fn for make(fn) in every module of the package that holds it."""
        replacement = make(fn)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, fn))
                    hits += 1
        if hits == 0:
            raise LookupError(f"{fn.__qualname__} is not referenced by any "
                              f"{self.package} module")

    def method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# statistics


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (a, b) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append(b - a if kids is None else (b - a) - union_length(kids, a, b))
    return out


def nearest_rank(sorted_values, p: float):
    """Nearest-rank p-th percentile of ascending values, and how many rank above it."""
    n = len(sorted_values)
    # the tolerance keeps 99.9% of 10000 at rank 9990 despite rounding
    rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
    return sorted_values[rank - 1], n - rank


def tail_percentile(sorted_values):
    """Highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns (percentile, value, samples beyond). With fewer than 2 * MIN_BEYOND
    samples no rung qualifies and the median is returned with its own count.
    """
    best = None
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(sorted_values, p)
        if beyond >= MIN_BEYOND:
            best = (p, value, beyond)
    if best is None:
        value, beyond = nearest_rank(sorted_values, 50.0)
        best = (50.0, value, beyond)
    return best


def summarize(tracer: Tracer, by_tag: bool = False) -> dict:
    """Per-boundary calls, busy_s, self_s, p50_us, tail and errors.

    busy_s sums inclusive durations; self_s subtracts time covered by child
    spans. With by_tag the key is (name, tag), otherwise the name alone.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    groups = {}
    for i, name in enumerate(tracer.names):
        key = (name, tracer.tags[i]) if by_tag else name
        g = groups.get(key)
        if g is None:
            g = groups[key] = {"durs": [], "self_s": 0.0, "errors": 0}
        g["durs"].append(tracer.ends[i] - tracer.starts[i])
        g["self_s"] += selfs[i]
        g["errors"] += tracer.errors[i]
    out = {}
    for key, g in groups.items():
        durs = sorted(g["durs"])
        p, tail, beyond = tail_percentile(durs)
        out[key] = {
            "calls": len(durs),
            "busy_s": math.fsum(durs),
            "self_s": g["self_s"],
            "p50_us": nearest_rank(durs, 50.0)[0] * 1e6,
            "tail_pct": p,
            "tail_us": tail * 1e6,
            "tail_beyond": beyond,
            "errors": g["errors"],
        }
    return out

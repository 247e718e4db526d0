"""Outside-in tracer for the onlinenorm package.

The package itself records nothing. This tracer wraps the public callables
of the package's modules from the outside: every module-level function is
replaced at each binding a caller looks up (for example both
``onlinenorm.online.forward_sample`` and the ``forward_sample`` global that
``onlinenorm.experiments`` imported), and every public method, plus the
constructor of each non-dataclass class, is replaced on its class. Each call
records one span (name, start, end, parent) in memory; ``uninstall`` puts
every original binding back and checks that it did.

The summary functions are pure and work on the recorded spans, so they can
be tested on a synthetic span tree.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "onlinenorm"

# The layers of the program, one per module, in the order they are reported.
MODULES = (
    "online",
    "tensor",
    "net",
    "reference",
    "emulation",
    "experiments",
    "datasets",
    "config",
    "cli",
)

# Candidate tail percentiles, highest first; the reported tail is the highest
# one with at least TAIL_BEYOND calls above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def _public_targets(module):
    """(span name, owner, attribute, function) for each public callable of a module."""
    short = module.__name__.rsplit(".", 1)[-1]
    targets = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            targets.append((f"{short}.{name}", module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if not inspect.isfunction(member):
                    continue
                if attr == "__init__" and not dataclasses.is_dataclass(obj):
                    targets.append((f"{short}.{name}", obj, attr, member))
                elif not attr.startswith("_"):
                    targets.append((f"{short}.{name}.{attr}", obj, attr, member))
    return targets


class Tracer:
    """Records one span per call of a wrapped callable.

    ``meters`` maps a span name to ``f(args, kwargs) -> float``; the values
    are summed per span name, so a count can be taken where the work happens.
    """

    def __init__(self, meters=None):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.meters = dict(meters or {})
        self.metered: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        meter = self.meters.get(name)
        metered = self.metered

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if meter is not None:
                metered[name] += meter(args, kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for span, owner, attr, fn in _public_targets(module):
                wrapper = self._wrap(fn, span)
                if inspect.isclass(owner):
                    self._patch(owner, attr, fn, wrapper)
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        # A function is looked up through every module global bound to it.
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for gname, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, gname, value, hit[1])

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding, then verify each one."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"binding {owner!r}.{attr} was not restored")

    @property
    def patched(self) -> int:
        return len(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other or reach outside their parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    covered = [0.0] * len(starts)
    for p, intervals in children.items():
        covered[p] = _union_length(intervals, starts[p], ends[p])
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def uncovered_time(starts, ends, parents, lo: float, hi: float) -> float:
    """Time inside [lo, hi] that no top-level span covers."""
    tops = [(s, e) for s, e, p in zip(starts, ends, parents) if p < 0]
    return (hi - lo) - _union_length(tops, lo, hi)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least TAIL_BEYOND of n calls beyond it."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def _rank(p: float, n: int) -> int:
    """1-based nearest-rank position of percentile p among n sorted values."""
    k = -(-p * n // 100)
    return max(1, min(n, int(k)))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def summarize(tracer: Tracer, lo: float, hi: float) -> dict:
    """Per-callable and per-module statistics of one traced pass over [lo, hi]."""
    starts, ends, parents = tracer.span_start, tracer.span_end, tracer.span_parent
    selfs = self_times(starts, ends, parents)
    durations = defaultdict(list)
    module_self = {m: 0.0 for m in MODULES}
    for nid, s, e, own in zip(tracer.span_name, starts, ends, selfs):
        name = tracer.names[nid]
        durations[name].append(e - s)
        module_self[name.split(".", 1)[0]] += own
    callables = {}
    for name, ds in durations.items():
        ds.sort()
        tail = tail_percentile(len(ds))
        callables[name] = {
            "calls": len(ds),
            "total_s": sum(ds),
            "us_p50": percentile(ds, 50.0) * 1e6,
            "us_tail": percentile(ds, tail) * 1e6,
            "tail_percentile": tail,
        }
    return {
        "wall_s": hi - lo,
        "spans": len(starts),
        "untraced_s": uncovered_time(starts, ends, parents, lo, hi),
        "module_self_s": module_self,
        "callables": callables,
        "metered": dict(tracer.metered),
    }

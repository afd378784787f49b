"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces chosen cellplace functions with timing wrappers while
it is active and puts the originals back when it exits. A module-level
function is replaced at every binding that refers to it in any loaded
``cellplace`` module, because a name imported with ``from .x import f`` is
called through the importing module's own binding. A method is replaced on
its class, so bound methods created while the tracer is active (the solver
callbacks of ``PlacementProblem.as_nlp_spec``) go through the wrapper.

For each wrapped function the tracer keeps calls, wall time, self time (wall
time minus the wall time of wrapped calls nested inside it), exceptions that
left it by type, calls that made at least one nested wrapped call, and call
counts per (wrapped parent, child) edge. Spans are aggregated as they close;
nothing is written out. ``geometry`` is never wrapped: its helpers run ~1e5 times per
solve and a wrapper would distort the figures they feed.
"""
from __future__ import annotations

import collections
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    calls_with_children: int = 0
    # exceptions that left the function, by type name
    raised: collections.Counter = field(default_factory=collections.Counter)
    # observations made on return values by a hook (e.g. SQP iterations)
    observed: collections.Counter = field(default_factory=collections.Counter)


class _Frame:
    __slots__ = ("key", "child_s", "child_calls")

    def __init__(self, key):
        self.key = key
        self.child_s = 0.0
        self.child_calls = 0


class Tracer:
    """Context manager that wraps functions and aggregates their spans.

    ``functions`` maps a stat key to ``(owner, attribute)``, where owner is a
    module or a class. ``hooks`` maps a stat key to ``f(result, stat)``,
    called after each successful return to record counts from the result.
    """

    def __init__(self, functions: dict, hooks: dict | None = None):
        self.functions = functions
        self.hooks = hooks or {}
        self.stats = {key: Stat() for key in functions}
        self.edges: collections.Counter = collections.Counter()
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        try:
            for key, (owner, attr) in self.functions.items():
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(key, original))
                else:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(key, original)
                    for module in self._cellplace_modules():
                        for name, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, name, original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    @staticmethod
    def _cellplace_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "cellplace"
                                      or name.startswith("cellplace."))]

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _restore(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        edges = self.edges
        hook = self.hooks.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(key)
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                elapsed = clock() - started
                stack.pop()
                stat.calls += 1
                stat.wall_s += elapsed
                stat.self_s += elapsed - frame.child_s
                if frame.child_calls:
                    stat.calls_with_children += 1
                if parent is not None:
                    parent.child_s += elapsed
                    parent.child_calls += 1
                    edges[parent.key, key] += 1
                else:
                    edges[None, key] += 1
            if hook is not None:
                hook(result, stat)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Every exact count the trace holds, for repeat checks."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.calls_with_children"] = stat.calls_with_children
            for name, value in stat.raised.items():
                out[f"{key}.raised.{name}"] = value
            for name, value in stat.observed.items():
                out[f"{key}.{name}"] = value
        for (parent, child), value in self.edges.items():
            out[f"edge:{parent}->{child}"] = value
        return out

    def total_self_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

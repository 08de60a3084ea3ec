"""Span recording by wrapping the program's functions from outside.

A `Tracer` replaces chosen module and class attributes with wrappers
that record one span per call: name, start, end and the span that was
open when the call began (its parent).  Spans stay in flat arrays until
the run ends; `unwrap` puts back the exact objects that were replaced,
so code that runs afterwards pays nothing for the tracing.

A span's self time is its duration minus the durations of its direct
children.  Calls nest properly in one thread, so children lie inside
their parent and siblings never overlap; the subtraction is exactly
"duration minus the part of the interval the children cover".  The
wrapper's own bookkeeping for a child falls between the parent's clock
readings, so each child adds a small constant to its parent's self
time; `span_cost_ns` measures that constant.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter
from typing import Callable, Sequence


def self_times(
    parent: Sequence[int], start: Sequence[int], end: Sequence[int]
) -> array:
    """Self time of every span: its duration minus its direct children's.

    `parent[i]` is the index of span i's parent, or -1 for a root.
    """
    out = array("q", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple], str],
        *,
        before: Callable[[tuple], object] | None = None,
        after: Callable[[tuple, object, BaseException | None, object], None]
        | None = None,
    ) -> None:
        """Replace `owner.attr` (a plain function in the owner's own
        namespace) with a span-recording wrapper.

        `name` is the span name, or a function of the call's positional
        arguments that returns it.  `before(args)` runs before the call
        and its result is passed to `after(args, result, exc, token)`,
        which runs once the span is closed; both run outside the span.
        """
        original = vars(owner)[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        if callable(name):
            by_args = name
            cache: dict[str, int] = {}

            def nid_of(args: tuple) -> int:
                key = by_args(args)
                nid = cache.get(key)
                if nid is None:
                    nid = cache[key] = self.name_id(key)
                return nid
        else:
            fixed = self.name_id(name)
            nid_of = None

        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack = self._open
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(fixed if nid_of is None else nid_of(args))
            parents.append(stack[-1])
            ends.append(0)
            starts.append(0)
            stack.append(i)
            token = before(args) if before is not None else None
            starts[i] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if after is not None:
                    after(args, None, exc, token)
                raise
            ends[i] = clock()
            stack.pop()
            if after is not None:
                after(args, result, None, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_function(
        self,
        function: types.FunctionType,
        namespaces: Sequence[types.ModuleType],
        name: str,
        **hooks,
    ) -> None:
        """Wrap a module-level function under every name any of the
        given modules binds it to (`from .wire import encode` makes a
        second binding that patching `wire.encode` alone would miss)."""
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.wrap(module, attr, name, **hooks)

    def unwrap(self) -> None:
        """Put back every replaced attribute, newest first, and check
        that each owner again holds the very object it held before."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total self ns, total inclusive ns)."""
        selfs = self_times(self.parent, self.start, self.end)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += selfs[i]
            incl_ns[nid] += self.end[i] - self.start[i]
        return {
            name: (calls[k], self_ns[k], incl_ns[k])
            for k, name in enumerate(self.names)
        }

    def contains(self, name: str) -> array:
        """Per span, 1 if it or a span below it is named `name`."""
        flag = array("b", bytes(len(self.start)))
        target = self._ids.get(name)
        if target is None:
            return flag
        parent = self.parent
        for i in range(len(flag) - 1, -1, -1):
            if self.name[i] == target:
                flag[i] = 1
            if flag[i] and parent[i] >= 0:
                flag[parent[i]] = 1
        return flag


def span_cost_ns(calls: int = 20000) -> float:
    """What one wrapped call adds to its parent's self time, in ns: the
    self time of an outer span around `calls` wrapped no-op calls, less
    the same loop around the bare no-op, divided by `calls`."""
    space = types.SimpleNamespace()

    def noop() -> None:
        return None

    def loop() -> None:
        f = space.noop
        for _ in range(calls):
            f()

    space.noop, space.loop = noop, loop
    bare = time.perf_counter_ns()
    loop()
    bare = time.perf_counter_ns() - bare
    tracer = Tracer()
    tracer.wrap(space, "noop", "noop")
    tracer.wrap(space, "loop", "loop")
    space.loop()
    tracer.unwrap()
    _calls, outer_self, _ = tracer.per_name()["loop"]
    return max(0.0, (outer_self - bare) / calls)

"""Span tracing around calls into the repro modules, installed from outside.

A :class:`Hook` names one function (or method) of a repro module. The
:class:`Tracer` replaces every binding of that function object — the
defining module's attribute, each ``from ... import`` copy in another
module, and values of module-level dicts such as ``TABLE7_METHODS`` — with a
wrapper that records a span. Spans nest on one stack, so each span's self
time is its duration minus the time of the spans it caused, and the self
times of all spans inside a root span add up to the root's duration.

Spans are aggregated as they close instead of being stored: per name, the
number of outermost calls and their inclusive time; per layer, self time;
per (parent, child) name pair, inclusive time. A hook whose target no
longer exists is recorded as absent, never raised.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Trace ``module:qualname`` as span ``name`` of layer ``name``'s prefix.

    With ``everywhere`` the function is replaced in every repro module that
    bound it; without, only in ``module`` (used when the same function is
    bound in two layers that should be timed apart). ``count`` maps
    ``(args, kwargs, result)`` of an outermost call to extra counters added
    under the span name. Several hooks may share a name (an overriding
    method and the method it calls through ``super()``); only the outermost
    of nested same-name spans counts as a call.
    """

    name: str
    module: str
    qualname: str
    everywhere: bool = True
    count: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [name, layer, start, child_time]
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)  # by span name
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.pair_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple] = []  # (owner, key, old value)

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str, layer: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.layer_self_s[layer] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            self.pair_s[(parent[0], name)] += dur
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.calls[name] += 1
            self.incl_s[name] += dur

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own code (layer = prefix of name)."""
        self._enter(name, name.split(".", 1)[0])
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, hook: Hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(hook.name, hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook.count is not None and self._depth[hook.name] == 0:
                for key, val in hook.count(args, kwargs, result).items():
                    self.counters[f"{hook.name}.{key}"] += val
            return result

        return traced

    # -- installing hooks ------------------------------------------------------
    def _set(self, owner, key, value) -> None:
        """Rebind ``owner[key]`` (a dict) or ``owner.key`` (module or class)."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, hooks: list[Hook]) -> None:
        """Wrap each hook's target wherever it is bound (by identity)."""
        for hook in hooks:
            owner = sys.modules.get(hook.module)
            *path, attr = hook.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None)
            if not callable(target):
                self.absent.append(hook.name)
                continue
            wrapped = self._wrap(target, hook)
            self._set(owner, attr, wrapped)
            if not hook.everywhere:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name + ".").startswith("repro."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is target:
                        self._set(mod, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is target:
                                self._set(val, k, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

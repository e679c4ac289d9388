"""Per-layer self time and call counts, from wrappers on module attributes.

The layers are the modules of the package. ``install`` replaces every
public function of every module, and every public method (and
``__call__``) of every class the package defines, with a wrapper that
times the call. The wrapper is put wherever callers look the function up:
in its own module and in every module, class or package namespace that
imported it by name. ``uninstall`` restores the originals, so untraced
passes run the program exactly as shipped. Nothing is changed on disk.

A call's self time is its duration minus the durations of the wrapped
calls made inside it, so the self times of all layers add up to the time
spent inside the outermost wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package):
        self.prefix = package.__name__ + "."
        self.modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(self.prefix)
        ]
        self.self_s: dict[str, float] = defaultdict(float)  # "layer.qualname" -> seconds
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_s = 0.0  # time inside outermost wrapped calls
        self._stack: list[float] = []  # child time of each open call
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt
                else:
                    self.outer_s += dt

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _ours(self, obj) -> bool:
        return getattr(obj, "__module__", "").startswith(self.prefix)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and self._ours(obj) and not name.startswith("_"):
                    self._patch(module, name, obj, self._wrap(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(obj)

    def _install_class(self, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            if inspect.isfunction(raw):
                self._patch(cls, name, raw, self._wrap(raw))
            elif isinstance(raw, classmethod):
                self._patch(cls, name, raw, classmethod(self._wrap(raw.__func__)))

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def by_layer(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts summed per layer (module)."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for key, s in self.self_s.items():
            seconds[key.split(".", 1)[0]] += s
        for key, n in self.calls.items():
            counts[key.split(".", 1)[0]] += n
        return seconds, counts

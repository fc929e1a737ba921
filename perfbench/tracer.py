"""Per-layer spans recorded from outside qf.

``Tracer.install`` replaces every public function and every public method (and
``__init__``) of the classes defined in the loaded ``qf`` modules with a timing
wrapper, wherever a ``qf`` module or class binds it: ``todd_coxeter`` is bound
in ``qf.groups``, ``qf.pipeline``, ``qf.verify`` and ``qf`` itself, and each
binding is patched. Spans are folded into per-name totals as they close: calls,
total time, self time (total minus the time of child spans) and counters taken
from arguments and results. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import io
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


class Stat:
    __slots__ = ("calls", "total", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.counters = defaultdict(int)


def _qf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qf" or name.startswith("qf."))]


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _is_public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def _owned_classes(module):
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and _is_public(obj.__name__):
            yield obj


class Tracer:
    """Wraps qf's public callables; ``stats`` maps span names to ``Stat``."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(int)
        self.cache_dir: Path | None = None
        self._stack: list[list[float]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._wrapper_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = self._make_hooks()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        stack, stat, hook = self._stack, self.stats[name], self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(args) if hook is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_s += dt - frame[0]
                if done is not None:
                    for key, value in done(result, exc).items():
                        stat.counters[key] += value

        self._wrappers[id(fn)] = wrapper
        self._wrapper_ids.add(id(wrapper))
        return wrapper

    def _targets(self):
        """(original, span name) for every public callable defined in a qf module."""
        for module in _qf_modules():
            layer = _layer(module.__name__)
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and _is_public(name):
                    yield obj, f"{layer}.{obj.__qualname__}"
            for cls in _owned_classes(module):
                for attr, raw in vars(cls).items():
                    fn = getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn) and _is_public(attr):
                        label = "init" if attr == "__init__" else attr
                        yield fn, f"{layer}.{cls.__name__}.{label}"

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for fn, name in list(self._targets()):
            self._wrap(fn, name)
        for module in _qf_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in self._wrappers:
                    self._patch(module, attr, self._wrappers[id(obj)])
            for cls in _owned_classes(module):
                for attr, raw in list(vars(cls).items()):
                    fn = getattr(raw, "__func__", raw)
                    wrapper = self._wrappers.get(id(fn))
                    if wrapper is None:
                        continue
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(wrapper)
                    elif isinstance(raw, staticmethod):
                        wrapper = staticmethod(wrapper)
                    self._patch(cls, attr, wrapper)
        self._patch(io, "open", self._open(io.open))
        self._patch(builtins, "open", self._open(builtins.open))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def unwrapped(self) -> list[str]:
        """Bindings in qf modules and classes that still hold an unwrapped public
        function of qf (under any name)."""
        found = []

        def check(where: str, obj) -> None:
            fn = getattr(obj, "__func__", obj)
            if (inspect.isfunction(fn) and id(fn) not in self._wrapper_ids
                    and (fn.__module__ or "").split(".")[0] == "qf" and _is_public(fn.__name__)):
                found.append(where)

        for module in _qf_modules():
            for attr, obj in vars(module).items():
                check(f"{module.__name__}.{attr}", obj)
            for cls in _owned_classes(module):
                for attr, raw in vars(cls).items():
                    check(f"{module.__name__}.{cls.__name__}.{attr}", raw)
        return found

    # -- counters -----------------------------------------------------------

    def _open(self, original):
        """open() that counts the bytes of cache entries read by qf."""
        counters = self.counters

        @functools.wraps(original)
        def traced_open(file, mode="r", *args, **kwargs):
            if (self.cache_dir is not None and "r" in mode and "+" not in mode
                    and isinstance(file, (str, os.PathLike))
                    and Path(file).parent == self.cache_dir):
                try:
                    counters["pipeline.cache.bytes_read"] += os.path.getsize(file)
                except OSError:
                    pass
            return original(file, mode, *args, **kwargs)

        return traced_open

    def _cache_files(self) -> dict[str, tuple[int, int]]:
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return {}
        out = {}
        for entry in os.scandir(self.cache_dir):
            st = entry.stat()
            out[entry.name] = (st.st_size, st.st_mtime_ns)
        return out

    def _make_hooks(self):
        """Span name -> hook(args) -> done(result, exc) -> {counter: increment}."""
        stats, counters = self.stats, self.counters

        def todd_coxeter(args):
            def done(result, exc):
                if exc is None:
                    return {"cosets_out": result.size}
                return {"overflows": 1} if type(exc).__name__ == "Overflow" else {}
            return done

        def snf(args):
            m = args[0]
            nnz, cells = m.nnz, m.rows * m.cols
            return lambda result, exc: {"nnz_in": nnz, "cells_in": cells}

        def boundaries(args):
            return lambda result, exc: {"d3_nnz": result.d3.nnz} if exc is None else {}

        def cube_of(attr):
            def hook(args):
                obj = args[0]
                return lambda result, exc: {"work": getattr(obj, attr) ** 3} if exc is None else {}
            return hook

        def cache_lookup(args):
            # A lookup that runs the enumerator is a miss; one that does not is a hit.
            enumerations = stats["groups.todd_coxeter"].calls
            before = self._cache_files()

            def done(result, exc):
                if self.cache_dir is None:
                    return {}
                after = self._cache_files()
                miss = stats["groups.todd_coxeter"].calls > enumerations
                counters["pipeline.cache.misses" if miss else "pipeline.cache.hits"] += 1
                counters["pipeline.cache.bytes_written"] += sum(
                    size for name, (size, mtime) in after.items()
                    if before.get(name) != (size, mtime))
                return {}
            return done

        return {
            "groups.todd_coxeter": todd_coxeter,
            "intlinalg.smith_normal_form": snf,
            "homology.boundaries": boundaries,
            "quandles.FiniteQuandle.init": cube_of("size"),
            "quandles.FiniteGroupElementSet.init": cube_of("order"),
            "pipeline.CosetCache.todd_coxeter": cache_lookup,
        }

"""Per-layer tracing of lagmono from outside the package.

The tracer wraps every public function and method of the traced modules,
plus the few operator methods named in EXTRA_METHODS, without editing the
package.  Each wrapped call counts one call; each call that opens a span
also adds its self time (its duration minus the time covered by spans it
caused).  Spans are aggregated per function as they close, so memory stays
flat however many calls a pass makes.

A wrapper replaces every binding of the original object: the defining
module, every module that copied the name with ``from .x import f``, the
package ``__init__`` and class attributes that alias a method (such as
``__rmul__ = __mul__``).  ``remove`` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "lagmono"
TRACED_MODULES = (
    "intlat",
    "groups",
    "toric",
    "monodromy",
    "torussym",
    "cyclotomic",
    "laurent",
    "floer",
    "classify",
    "cli",
)

# Dunder methods that carry work a per-layer metric needs.
EXTRA_METHODS = {
    "IntMat": ("__matmul__",),
    "CyclotomicNumber": ("__post_init__", "__mul__"),
}

# In the CLI layer only `run` opens a span, so that argument parsing, file
# reads and rendering inside the subcommand handlers all land in cli.run's
# self time.  The handlers are still counted.
SPAN_ONLY = {"cli": {"cli.run"}}

CLOSURE_KEYS = ("groups.MatrixGroup.from_generators", "groups.PermutationGroup.from_generators")
PRODUCT_KEYS = ("intlat.IntMat.__matmul__", "groups.compose")
GRID_KEY = "laurent.torsion_critical_points"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.counters = {
            "groups.closure.products": 0,
            "groups.closure.elements": 0,
            "torussym.forced.points": 0,
            "laurent.grid.tested": 0,
            "laurent.grid.critical": 0,
            "floer.continuation.decided": 0,
            "classify.embed.found": 0,
        }
        self._depth = {"closure": 0, "grid": 0}
        self._stack: list[list[float]] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, object] = {}

    # -- installation ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _classes(self):
        seen = {}
        for mod in self._modules():
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                    seen[id(obj)] = obj
        return list(seen.values())

    def _targets(self):
        """(original object in a namespace, replacement) for every traced callable."""
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    yield obj, self._wrap(obj, short)
                elif inspect.isclass(obj):
                    extra = EXTRA_METHODS.get(obj.__name__, ())
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr not in extra:
                            continue
                        if isinstance(member, (classmethod, staticmethod)):
                            yield member, type(member)(self._wrap(member.__func__, short))
                        elif inspect.isfunction(member):
                            yield member, self._wrap(member, short)

    def _wrap(self, fn, short: str):
        key = f"{short}.{fn.__qualname__}"
        rec = self.stats.setdefault(key, [0, 0.0])
        span = key in SPAN_ONLY.get(short, {key})
        scope = "closure" if key in CLOSURE_KEYS else "grid" if key == GRID_KEY else None
        observe = self._observer(key)
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            if scope:
                depth[scope] += 1
            if span:
                frame = [0.0]
                stack.append(frame)
                start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    elapsed = clock() - start
                    stack.pop()
                    rec[1] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                if scope:
                    depth[scope] -= 1
            if observe:
                observe(result)
            return result

        return wrapper

    def _observer(self, key: str):
        c = self.counters
        depth = self._depth
        if key in CLOSURE_KEYS:
            def observe(result):
                c["groups.closure.elements"] += result.order
        elif key in PRODUCT_KEYS:
            def observe(result):
                if depth["closure"]:
                    c["groups.closure.products"] += 1
        elif key == "torussym.forced_critical_points":
            def observe(result):
                c["torussym.forced.points"] += len(result.points)
        elif key == "laurent.is_critical":
            def observe(result):
                if depth["grid"]:
                    c["laurent.grid.tested"] += 1
                    c["laurent.grid.critical"] += bool(result)
        elif key == "floer.continuation_solvable":
            def observe(result):
                c["floer.continuation.decided"] += result.status in ("solvable", "unsolvable")
        elif key == "classify.embed_symmetric_product":
            def observe(result):
                c["classify.embed.found"] += result is not None
        else:
            observe = None
        return observe

    def install(self) -> None:
        for original, replacement in self._targets():
            self._originals[id(original)] = original
            self._wrappers[id(original)] = replacement
        holders = self._modules() + self._classes()
        for holder in holders:
            for name, value in list(vars(holder).items()):
                replacement = self._wrappers.get(id(value))
                if replacement is not None and self._originals[id(value)] is value:
                    setattr(holder, name, replacement)
                    self._bindings.append((holder, name, value))

    def remove(self) -> None:
        for holder, name, original in reversed(self._bindings):
            setattr(holder, name, original)
        self._bindings.clear()

    # -- self checks ------------------------------------------------------------

    def _scan(self, table: dict[int, object]) -> list[str]:
        hits = []
        for holder in self._modules() + self._classes():
            for name, value in vars(holder).items():
                if id(value) in table and table[id(value)] is value:
                    hits.append(f"{getattr(holder, '__name__', holder)}.{name}")
        return hits

    def check_installed(self) -> list[str]:
        """Bindings still pointing at an unwrapped original (should be none)."""
        return self._scan(self._originals)

    def check_removed(self) -> list[str]:
        """Bindings still pointing at a wrapper after removal (should be none)."""
        by_id = {id(w): w for w in self._wrappers.values()}
        return self._scan(by_id)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": {k: v[0] for k, v in self.stats.items()},
            "self_ms": {k: v[1] * 1000.0 for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }

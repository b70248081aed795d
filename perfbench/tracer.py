"""In-memory span tracer that instruments the package from outside.

Every module-level binding of a traced function (a function imported into
four modules has four bindings) and every traced method on its class is
replaced by a wrapper that records a span: name, start, end and the index of
the enclosing span. Counters ride on the same wrappers. ``Tracer.uninstall``
puts every original object back; ``stray_wrappers`` checks that it did.
"""

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "onebit_isac"
_MARK = "__perfbench_original__"


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans are rows ``[name, start, end, parent]`` (parent -1 for a root)."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.names = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None, span=True):
        """Wrapper of ``fn`` that records a span (or only runs the hooks)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            if not span:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, out)
                return out
            idx = len(tracer.spans)
            row = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(row)
            tracer._stack.append(idx)
            row[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installing --------------------------------------------------------
    def install(self, targets):
        """Instrument each target ``(name, module, qualname, before, after, span)``.

        ``qualname`` is ``func`` or ``Class.method``; ``module`` is the
        package module that defines it.
        """
        modules = package_modules()
        for name, module, qualname, before, after, span in targets:
            owner_name, _, attr = qualname.rpartition(".")
            defining = sys.modules[f"{PACKAGE}.{module}"]
            if owner_name:
                owner = getattr(defining, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self.wrap(name, original, before, after, span))
            else:
                original = getattr(defining, attr)
                wrapper = self.wrap(name, original, before, after, span)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
            if span:
                self.names.append(name)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -----------------------------------------------------------
    def layer_times(self):
        """Per span name: (calls, busy seconds, self seconds).

        Self time is busy time minus the time covered by direct child spans;
        spans run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += (end - start) - child[i]
        return out


def stray_wrappers():
    """Bindings in the package still pointing at a tracer wrapper."""
    found = []
    for mod in package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found

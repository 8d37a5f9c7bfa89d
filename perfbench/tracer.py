"""Call tracing of the ctsid layers, installed from outside the package.

The package binds names at import time (``from .linalg import expm``), so
a function is reachable under several module namespaces. ``Tracer.install``
replaces every public function of the traced modules in every ctsid
namespace that holds it (one wrapper per function), and ``uninstall``
puts the originals back.

Wrappers record only while a job is open (``begin_job``/``end_job``);
outside a job they call straight through, so input generation and checks
leave no trace. Per name the tracer keeps calls, inclusive time and self
time (inclusive time minus the time covered by traced children). Spans
(name, start, end, parent, job) are kept in memory for the first
``span_jobs`` jobs and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "linalg",
    "ltisim",
    "filters",
    "filtering",
    "design",
    "sysid",
    "serialize",
    "cli",
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _variant(name: str, args, kwargs) -> str:
    """A second name, split by an argument, under which a call also counts."""
    if name == "filtering.filter_lti_dataset":
        bank = args[2] if len(args) > 2 else kwargs["bank"]
        return f"{name}.{bank.family}"
    if name == "cli.main":
        argv = args[0] if args else kwargs["argv"]
        return f"{name}.{argv[0]}"
    return ""


class Tracer:
    def __init__(self, package, span_jobs: int = 3):
        self.package = package
        self.span_jobs = span_jobs
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.jobs = 0
        self.transition_repeats = 0
        self._job: int | None = None
        self._stack: list[int] = []
        self._child: list[float] = []
        self._keys: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # installation -------------------------------------------------------
    def _namespaces(self):
        for name in TRACED_MODULES:
            importlib.import_module(f"{self.package.__name__}.{name}")
        mods = [self.package]
        for name in sys.modules:
            if name.startswith(self.package.__name__ + "."):
                mods.append(sys.modules[name])
        return mods

    def install(self) -> None:
        pkg = self.package.__name__
        targets = {f"{pkg}.{m}" for m in TRACED_MODULES}
        wrappers: dict[int, object] = {}
        for mod in self._namespaces():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                if obj.__module__ not in targets or obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _call(self, name, fn, args, kwargs):
        if name == "ltisim.transition":
            self._note_transition(args, kwargs)
        keep = self._job < self.span_jobs
        span = -1
        if keep:
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self._name_id(name), 0.0, 0.0, parent, self._job))
        self._stack.append(span)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            own = dur - self._child.pop()
            if self._child:
                self._child[-1] += dur
            if keep:
                nid, _, _, parent, job = self.spans[span]
                self.spans[span] = (nid, start, end, parent, job)
            variant = _variant(name, args, kwargs)
            for key in (name, variant) if variant else (name,):
                st = self.stats[key]
                st.calls += 1
                st.total += dur
                st.self_time += own

    def _note_transition(self, args, kwargs):
        sys_ = args[0] if args else kwargs["sys"]
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        key = (sys_.a.tobytes(), sys_.b.tobytes(), float(tau))
        if key in self._keys:
            self.transition_repeats += 1
        else:
            self._keys.add(key)

    def begin_job(self) -> None:
        self._job = self.jobs
        self._keys = set()

    def end_job(self) -> None:
        self._job = None
        self.jobs += 1

    # results ------------------------------------------------------------
    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def write_spans(self, path) -> None:
        payload = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

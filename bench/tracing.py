"""Span recorder for the traced run, built around the program from outside.

:meth:`Tracer.install` wraps the public functions and methods of the
roomsense modules, and the few private methods the per-layer metrics need,
so that every call records a span: name, start, end, parent span and the
room being classified. Spans of one room share the room id as their trace
identifier. Spans are kept in memory and written out once at the end.

The program's own thread pools are swapped for a subclass that runs each
task in a copy of the submitting thread's context, so spans in worker
threads keep their parent. :meth:`Tracer.uninstall` restores every
replaced attribute.
"""

from __future__ import annotations

import array
import concurrent.futures
import contextlib
import contextvars
import functools
import inspect
import itertools
import sys
import time

MODULES = (
    "cli",
    "house_convert",
    "ingest",
    "scene_model",
    "cooccurrence",
    "querygen",
    "lm_scoring",
    "inference",
    "evaluation",
)

# Private methods that per-layer metrics need.
EXTRA = {
    "scene_model.LabelSpace": ("__contains__",),
    "lm_scoring.RemoteScorer": ("_post_once",),
    "lm_scoring.CachingScorer": ("_load", "_append", "_hit"),
}

# Hot leaf helpers called hundreds of thousands of times; their time stays
# in their caller's self time instead of costing a span per call.
SKIP = frozenset(
    {
        "scene_model.normalize_label",
        "scene_model.BoundingBox.contains_point",
        "scene_model.BoundingBox.is_well_formed",
        "scene_model.ObjectNode.label",
        "lm_scoring.OfflineScorer.base_value",
        "lm_scoring.OfflineScorer.bonus_value",
    }
)

# (span id, name index) of the innermost open span
_current = contextvars.ContextVar("bench_span", default=(-1, -1))
# index of the room being classified, -1 outside a room
_room = contextvars.ContextVar("bench_room", default=-1)
_FIELDS = 6  # span id, name index, start, end, parent id, room index


class _ContextExecutor(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rooms: dict[int, str] = {}
        # One flat array of _FIELDS numbers per span: no per-span objects for
        # the garbage collector to scan, and one extend() per span is atomic
        # across the program's threads.
        self._flat = array.array("d")
        self._ids = itertools.count()
        self._room_ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @staticmethod
    def current_span() -> int:
        return _current.get()[0]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a whole stage."""
        idx = self._name_index(name)
        sid = next(self._ids)
        parent = _current.get()[0]
        token = _current.set((sid, idx))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self._flat.extend((sid, idx, start, end, parent, _room.get()))

    def _enter_room(self, room_id: str) -> contextvars.Token:
        index = next(self._room_ids)
        self.rooms[index] = room_id
        return _room.set(index)

    def _wrap(self, fn, name: str, hook):
        idx = self._name_index(name)
        names = self.names
        ids = self._ids
        flat = self._flat
        enter_room = self._enter_room if name == "inference.classify_room" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent, parent_idx = _current.get()
            token = _current.set((sid, idx))
            room_token = enter_room(args[0].id) if enter_room else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                room = _room.get()
                if room_token is not None:
                    _room.reset(room_token)
                _current.reset(token)
                flat.extend((sid, idx, start, end, parent, room))
            if hook is not None:
                hook(args, result, names[parent_idx] if parent_idx >= 0 else "")
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Trace the roomsense modules for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap the roomsense modules.

        ``self.hooks`` maps a span name to ``hook(args, result, parent_name)``,
        called after each successful call to count work at that boundary.
        """
        hooks = self.hooks
        package = sys.modules["roomsense"]
        modules = [sys.modules[f"roomsense.{m}"] for m in MODULES]
        replaced: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        replaced[id(value)] = self._wrap(value, name, hooks.get(name))
                elif inspect.isclass(value):
                    extra = EXTRA.get(f"{short}.{attr}", ())
                    for meth, member in list(vars(value).items()):
                        name = f"{short}.{attr}.{meth}"
                        if not inspect.isfunction(member) or name in SKIP:
                            continue
                        if meth.startswith("_") and meth not in extra:
                            continue
                        self._patch(value, meth, self._wrap(member, name, hooks.get(name)))
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules and the package
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._patch(module, attr, replaced[id(value)])
            if "ThreadPoolExecutor" in vars(module):
                self._patch(module, "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    @property
    def spans(self) -> list[tuple[int, int, float, float, int, int]]:
        """(span id, name index, start, end, parent id, room index) per span."""
        flat = self._flat
        return [
            (int(flat[i]), int(flat[i + 1]), flat[i + 2], flat[i + 3],
             int(flat[i + 4]), int(flat[i + 5]))
            for i in range(0, len(flat), _FIELDS)
        ]

    def by_name(self) -> dict[str, list[tuple[int, float, float, int, int]]]:
        out: dict[str, list] = {}
        for sid, idx, start, end, parent, room in self.spans:
            out.setdefault(self.names[idx], []).append((sid, start, end, parent, room))
        return out

    def self_times(self, spans) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for sid, _, start, end, _, _ in spans:
            covered = union_length(
                [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
            )
            result[sid] = (end - start) - covered
        return result

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        spans = sorted(self.spans)
        selfs = self.self_times(spans)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\tself_s\troom\n")
            for sid, idx, start, end, parent, room in spans:
                handle.write(
                    f"{sid}\t{parent}\t{self.names[idx]}\t{start:.9f}\t{end:.9f}\t"
                    f"{selfs[sid]:.9f}\t{self.rooms.get(room, '')}\n"
                )


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total

"""In-memory span recorder and the patching helpers the wrappers use.

The benchmark measures every layer from outside: a wrapper is installed
around a public function of the layer, records a span (name, start, end,
parent span, operation id) in memory, and is removed before the child
exits.  Nothing under ``src/`` knows it is being measured.

Self time of a span is its duration minus the interval its child spans
cover; with one thread the children of a span never overlap, so that is
duration minus the sum of the direct children's durations.

Hot inner functions (``WireCodec._encode``, ``ZmodElement`` arithmetic,
``builtins.pow``) are deliberately not wrapped: a span per call would
cost more than the call, so they land in their caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable

#: on_return(args, kwargs, result) -> {counter name: increment}
OnReturn = Callable[[tuple, dict, Any], dict]


class Recorder:
    """Spans and wrapper-side counts of one traced operation."""

    def __init__(self, op: int = 0) -> None:
        self.op = op
        #: [name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: OnReturn | None = None,
        adapt: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every outermost call.

        A call made while a span of the same name is open runs without a
        second span, so ``X.busy_s`` never counts an interval twice
        (``encode_payload`` calling ``encode``, both ``wire.encode``).
        ``adapt`` may rewrite the arguments (used to wrap role programs
        and to hand the inner MPC a tracer).
        """
        spans, stack, open_, counts = (
            self.spans, self._stack, self._open, self.counts
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = clock()
                open_[name] -= 1
                stack.pop()
            if on_return is not None:
                counts.update(on_return(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the direct children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def durations_by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_s_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            out[span[0]] = out.get(span[0], 0.0) + own
        return out

    def write_jsonl(self, path) -> None:
        """One line per span; written once, after the traced operation."""
        with open(path, "w") as fh:
            for index, (span, own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                name, start, end, parent = span
                fh.write(json.dumps({
                    "span": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": self.op, "self_s": own,
                }) + "\n")


class Patches:
    """Installs replacements on modules and classes; ``undo`` restores."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace every binding of ``module.attr`` in loaded ``repro`` modules.

        ``from x import f`` copies the binding into the importer, so
        patching ``x.f`` alone would miss ``repro.core.protocol.run_offline``
        or ``repro.service.service.verify_cost_exactness``.
        """
        original = getattr(module, attr)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def method(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr``, keeping its static/class-method binding."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()

"""Host-time spans recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of the program
(class attributes such as ``Swarm.sweep`` and module attributes such as
``repro.core.prover.hmac_sha1``) with thin wrappers that append one
span per call, and puts every original object back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it is being
traced, and no wrapper touches simulated state: a wrapper reads the
host clock, calls the original with the same arguments and returns its
result unchanged.

A span is a tuple ``(name, start, end, parent, attest, note)`` of
scalars (so the garbage collector stops tracking it):

``start``/``end``
    host ``perf_counter`` seconds;
``parent``
    index of the enclosing span in :attr:`Tracer.spans`, or ``-1``;
``attest``
    the attestation id shared by every span under one attestation root
    (``Session.attest_once``), or ``-1`` outside any attestation;
``note``
    an optional scalar per-call value (bytes written, admission
    decision...).

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable

__all__ = ["NAME", "START", "END", "PARENT", "ATTEST", "NOTE", "Tracer",
           "self_times", "summarize"]

#: Field positions inside one span.
NAME, START, END, PARENT, ATTEST, NOTE = range(6)

_MISSING = object()


class Tracer:
    """Wraps registered attributes while installed and keeps spans in
    memory until :meth:`write_jsonl` writes them out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_attest = 0
        self._targets: list[tuple] = []
        self._patches: list[tuple] = []

    # -- registration ------------------------------------------------------

    def add(self, owner, attr: str, name: str, *, root: bool = False,
            note: Callable | None = None) -> None:
        """Register ``owner.attr`` to be recorded as span ``name``.

        ``root`` starts a new attestation id for the span and everything
        under it.  ``note(args, result)`` computes the span's note after
        the call returns.
        """
        if self._patches:
            raise RuntimeError("cannot register targets while installed")
        if getattr(owner, attr, _MISSING) is _MISSING:
            raise AttributeError(f"{owner!r} has no attribute {attr!r}")
        self._targets.append((owner, attr, name, root, note))

    @property
    def targets(self) -> list[tuple]:
        """``(owner, attr)`` of every registered target."""
        return [(owner, attr) for owner, attr, *_ in self._targets]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, root, note in self._targets:
            own = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr) if own is _MISSING else own
            self._patches.append((owner, attr, own))
            setattr(owner, attr, self._wrap(original, name, root, note))

    def uninstall(self) -> None:
        """Put back exactly the objects that were there before."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        if self._stack:
            raise RuntimeError("tracer uninstalled inside an open span")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, name: str, root: bool, note):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if root:
                attest = tracer._next_attest
                tracer._next_attest += 1
            else:
                attest = spans[parent][ATTEST] if parent >= 0 else -1
            index = len(spans)
            stack.append(index)
            spans.append((name, 0.0, 0.0, parent, attest, None))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, attest, None)
            if note is not None:
                spans[index] = (name, start, end, parent, attest,
                                note(args, result))
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write one JSON array per span; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return len(self.spans)


def self_times(spans: list) -> list[float]:
    """Self time of every span: duration minus the union of its child
    spans' intervals, clipped to its own interval."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children[index], key=lambda c: spans[c][START]):
            lo = max(spans[child][START], start)
            hi = min(spans[child][END], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            elif hi > run_end:
                run_end = hi
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans: list, selfs: list | None = None) -> dict:
    """``{name: {"calls": n, "self_s": seconds}}`` over ``spans``; a
    span whose self time is ``None`` is skipped."""
    if selfs is None:
        selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        if own is None:
            continue
        entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out

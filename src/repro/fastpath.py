"""Host-side fast-path engine selection.

The simulator separates two clocks that must never mix:

* **simulated time** -- the cycle costs charged to the modelled MCU
  (Table 1 calibration; see :mod:`repro.crypto.costmodel`).  These are
  the paper's numbers and every experiment depends on them;
* **host time** -- how long the Python process takes to re-execute a
  measurement.  Host time is pure overhead: fleet sweeps and flood
  scenarios re-run the 512 KB HMAC thousands of times.

This module selects how the *host* executes measurement-heavy work.
Two engines exist, both producing bit-identical digests and identical
simulated accounting (``blocks_processed``, consumed cycles, telemetry):

``naive``
    The seed implementation: one Python-level compression call per
    64-byte block, per-chunk copied bus reads.  Kept as the reference
    the fast path is continuously checked against, and as the baseline
    ``repro bench wallclock`` reports speedups over.
``accel``
    Bulk SHA-1 compression delegated to :mod:`hashlib` (same FIPS 180-4
    function, C speed), zero-copy ``memoryview`` streaming, HMAC
    pad-midstate caching and bulk memory walks.  This is the default:
    the from-scratch compression function remains the reference
    implementation, exercised by the ``naive`` engine and the
    cross-check tests.

Selection: the ``REPRO_FAST_PATH`` environment variable at import time
(``0``/``off``/``naive`` or ``2``/``on``/``accel``; any other value
raises :class:`~repro.errors.ConfigurationError`), or :func:`set_engine`
/ :func:`forced` at runtime.  See ``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
import os

from .errors import ConfigurationError

__all__ = ["ENGINES", "engine", "set_engine", "is_fast", "forced",
           "incremental_enabled", "set_incremental", "forced_incremental"]

ENGINES = ("naive", "accel")

_ENV_VAR = "REPRO_FAST_PATH"

_ALIASES = {
    "0": "naive", "off": "naive", "false": "naive", "no": "naive",
    "naive": "naive",
    "2": "accel", "on": "accel", "true": "accel", "yes": "accel",
    "accel": "accel", "": "accel",
}


def _env_choice(variable: str, default: str, choices: dict):
    """The ``choices`` value named by ``variable``; an unknown value is a
    configuration error, never a silent fallback."""
    raw = os.environ.get(variable, default)
    try:
        return choices[raw.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"{variable}={raw!r} is not one of "
            f"{sorted(key for key in choices if key)}") from None


def _from_env() -> str:
    return _env_choice(_ENV_VAR, "accel", _ALIASES)


_engine = _from_env()


def engine() -> str:
    """The currently selected host execution engine."""
    return _engine


def set_engine(name: str) -> str:
    """Select the host engine; returns the previous selection.

    Only affects objects created afterwards -- in-flight hash objects
    keep the engine they were constructed with, so a mid-stream switch
    can never corrupt a digest.
    """
    if name not in ENGINES:
        raise ValueError(f"unknown fast-path engine {name!r}; "
                         f"expected one of {ENGINES}")
    global _engine
    previous = _engine
    _engine = name
    return previous


def is_fast() -> bool:
    """Whether the fast path (``accel``) is active."""
    return _engine != "naive"


@contextlib.contextmanager
def forced(name: str):
    """Context manager pinning the engine for a block (tests, benches)."""
    previous = set_engine(name)
    try:
        yield
    finally:
        set_engine(previous)


# -- incremental measurement toggle ------------------------------------------
#
# Orthogonal to the engine choice: whether devices with
# ``enable_incremental()`` may use their digest trees as a
# content-addressed second cache key (see ``repro.incremental``).  Like
# the engine toggle this is a host-execution concern only -- digests and
# simulated accounting are byte-identical either way -- and honours the
# same kill-switch idiom: ``REPRO_INCREMENTAL=0`` disables the content
# path globally, forcing every cache miss down the full walk.

_INCR_ENV_VAR = "REPRO_INCREMENTAL"

_INCR_ALIASES = {
    "0": False, "off": False, "false": False, "no": False,
    "1": True, "on": True, "true": True, "yes": True, "": True,
}


def _incremental_from_env() -> bool:
    return _env_choice(_INCR_ENV_VAR, "1", _INCR_ALIASES)


_incremental = _incremental_from_env()


def incremental_enabled() -> bool:
    """Whether the content-addressed incremental path may be used."""
    return _incremental


def set_incremental(on: bool) -> bool:
    """Enable/disable the incremental path; returns the previous state."""
    global _incremental
    previous = _incremental
    _incremental = bool(on)
    return previous


@contextlib.contextmanager
def forced_incremental(on: bool):
    """Context manager pinning the incremental toggle for a block."""
    previous = set_incremental(on)
    try:
        yield
    finally:
        set_incremental(previous)

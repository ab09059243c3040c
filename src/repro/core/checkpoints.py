"""Invariant checkpoints: hook points the self-check harness observes.

The pipeline, the solvers, and trace processing each announce their
intermediate artifacts through :func:`checkpoint`.  In production no
observer is installed and every call is a single ``is None`` test — the
stages pay nothing.  Under ``python -m repro.check`` (or a test) an
observer installed via :func:`observed` receives ``(point, payload)``
for every announcement and can assert stage invariants *in situ*: on
the real artifacts of a real diagnosis, not on reconstructions.

Checkpoint vocabulary (the payload keys each point guarantees):

======================================  =================================
point                                   payload
======================================  =================================
``trace_processing.process_snapshot``   ``trace`` (ProcessedTrace)
``pipeline.trace``                      ``trace``, ``sample``
``pipeline.report``                     ``report``
``andersen.solve``                      ``system``, ``result``
``statistics.score_patterns``           ``observations``, ``scored``
======================================  =================================

An observer that raises aborts the surrounding diagnosis with the
raised error — exactly what the check harness wants (the case fails and
is shrunk), and why production keeps the observer uninstalled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

Observer = Callable[[str, dict], None]

_observer: Observer | None = None


@contextmanager
def observed(fn: Observer) -> Iterator[None]:
    """Scope an observer; restores whatever was installed before."""
    global _observer
    previous = _observer
    _observer = fn
    try:
        yield
    finally:
        _observer = previous


def checkpoint(point: str, **payload: object) -> None:
    """Announce a stage artifact.  Free when no observer is installed."""
    obs = _observer
    if obs is not None:
        obs(point, payload)

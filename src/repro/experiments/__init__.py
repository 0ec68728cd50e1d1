"""The paper's artifacts as one table over deduplicated runs.

:data:`EXPERIMENTS` maps each artifact name to an :class:`Artifact`:

- ``runs(**params)`` returns the run keys the artifact reads: frozen
  dataclasses with ``execute()`` and ``seed``, equal exactly when they
  are the same simulation (:class:`~repro.experiments.common.PaperRun`
  is the T1/T2 one). ``--seed`` arrives as ``seed``: artifacts built on
  one seeded run use it, seed-pooling tables and ablations accept and
  ignore it. Other ``params`` shorten or widen the run set (tests,
  examples).
- ``render(results)`` turns a read-only mapping from those keys, in
  ``runs()`` order, to their results into text. Its docstring states
  the paper's claim the artifact checks.

The :func:`artifact` decorator is the registration; importing
:mod:`repro.experiments.runner` imports every module that defines one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

Results = Mapping[Any, Any]


@dataclass(frozen=True)
class Artifact:
    runs: Callable[..., tuple]
    render: Callable[[Results], str]


EXPERIMENTS: dict[str, Artifact] = {}


def artifact(name: str, runs: Callable[..., tuple] = lambda seed=None: ()):
    """Register the decorated ``render`` as artifact ``name``; the default
    ``runs`` suits artifacts that are arithmetic on the formulas (it
    accepts ``--seed`` and rejects any other parameter)."""
    def register(render: Callable[[Results], str]):
        if name in EXPERIMENTS:
            raise ValueError(f"artifact {name!r} registered twice")
        EXPERIMENTS[name] = Artifact(runs, render)
        return render
    return register


__all__ = ["EXPERIMENTS", "Artifact", "Results", "artifact"]

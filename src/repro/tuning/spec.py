"""TuningSpec — the typed front door of the tuning subsystem.

``BufferSystem.build(tuning=...)`` historically took ``True`` or a raw
:class:`~repro.tuning.controller.TuningConfig`.  The spec replaces the
ad-hoc plumbing with one declarative object that covers both controller
modes:

* ``mode="select"`` — the PR 5 winner-take-all ghost selection.
  ``experts`` (policy names) become the candidate panel; ``candidates``
  passes an explicit :class:`Candidate` panel through unchanged.
* ``mode="ensemble"`` — the live policy becomes an
  :class:`~repro.tuning.ensemble.EnsemblePolicy` over ``experts`` and
  the controller re-weights the mixture per epoch (multiplicative
  weights).  ``weights_path`` loads an offline-fitted artifact
  (``python -m repro tune fit``) as the starting mixture.

A spec is frozen and buffer-independent: one spec can build many
systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.tuning.controller import Candidate, TuningConfig
from repro.tuning.ensemble import DEFAULT_EXPERTS


@dataclass(frozen=True)
class TuningSpec:
    """Declarative tuning configuration for ``BufferSystem.build``."""

    mode: str = "select"
    #: Expert policy names.  ``None`` means the mode's default panel:
    #: ``select`` derives candidates from the live policy
    #: (:func:`~repro.tuning.controller.default_candidates`), ``ensemble``
    #: uses :data:`~repro.tuning.ensemble.DEFAULT_EXPERTS`.
    experts: tuple[str, ...] | None = None
    epoch_length: int = 2000
    #: Path of a ``repro-tuning-weights`` artifact (``repro tune fit``)
    #: used as the ensemble's starting mixture.  Ensemble mode only.
    weights_path: str | Path | None = None
    # Select-mode decision guards (ignored by ensemble mode).
    hysteresis: float = 0.02
    patience: int = 2
    cooldown: int = 2
    #: Explicit candidate panel (select mode only; overrides ``experts``).
    candidates: Sequence[Candidate] | None = None
    # Ensemble-mode multiplicative-weights knobs.
    eta: float = 10.0
    weight_floor: float = 0.01
    #: SHARDS-style spatial sampling of the ghost stream (both modes).
    sample: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("select", "ensemble"):
            raise ValueError(
                f'TuningSpec mode must be "select" or "ensemble", '
                f"got {self.mode!r}"
            )
        if self.experts is not None:
            experts = tuple(self.experts)
            if not experts:
                raise ValueError("experts must name at least one policy")
            for name in experts:
                if not isinstance(name, str):
                    raise TypeError(
                        "experts must be policy names (strings); got "
                        f"{type(name).__name__} — pass policy instances "
                        "via BufferSystem.build(policy=...) instead"
                    )
            object.__setattr__(self, "experts", experts)
        if self.weights_path is not None and self.mode != "ensemble":
            raise ValueError(
                'weights_path requires mode="ensemble" '
                "(select mode has no mixture to seed)"
            )
        if self.candidates is not None and self.mode != "select":
            raise ValueError(
                'an explicit candidate panel requires mode="select"; '
                "ensemble mode derives its ghosts from the expert list"
            )
        if self.candidates is not None and self.experts is not None:
            raise ValueError("pass either experts or candidates, not both")
        # Range checks are delegated to TuningConfig.__post_init__ so the
        # two surfaces can never disagree about what is valid.
        self.to_config()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolved_experts(self) -> tuple[str, ...]:
        """The expert panel, with the mode default applied."""
        if self.experts is not None:
            return self.experts
        return DEFAULT_EXPERTS

    def initial_weights(self) -> tuple[float, ...] | None:
        """The starting mixture from ``weights_path`` (None = uniform)."""
        if self.weights_path is None:
            return None
        from repro.tuning.fit import FittedWeights

        fitted = FittedWeights.load(self.weights_path)
        return fitted.weights_for(self.resolved_experts())

    def to_config(self) -> TuningConfig:
        """The equivalent controller :class:`TuningConfig`."""
        candidates = self.candidates
        if candidates is None and self.experts is not None and self.mode == "select":
            candidates = tuple(
                Candidate(name=name, policy=name) for name in self.experts
            )
        return TuningConfig(
            candidates=candidates,
            epoch_length=self.epoch_length,
            hysteresis=self.hysteresis,
            patience=self.patience,
            cooldown=self.cooldown,
            sample=self.sample,
            mode=self.mode,
            eta=self.eta,
            weight_floor=self.weight_floor,
        )

__all__ = ["TuningSpec"]

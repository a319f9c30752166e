"""Outcome distributions shared by every engine and experiment runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Outcome = Union[str, tuple[str, str]]

ENGINE_STREAMS = "streams"
ENGINE_HILBERT = "hilbert"

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probabilities over detector (or joint detector) outcomes.

    ``engine`` records which backend produced the numbers: streams or hilbert.
    The probabilities are the whole result: no engine attaches per-path
    detail to them, and what reproduces a run (its settings and seed) is
    recorded by the command that ran it, not here.
    """

    outcomes: dict[Outcome, float]
    engine: str

    def __post_init__(self) -> None:
        cleaned: dict[Outcome, float] = {}
        for key, p in self.outcomes.items():
            # NaN fails this test too; rounding residue past 0 or 1 is clipped.
            if not -_SUM_TOL <= p <= 1.0 + _SUM_TOL:
                raise ValueError(f"probability {p!r} for {key!r} is outside [0, 1]")
            cleaned[key] = min(max(p, 0.0), 1.0)
        total = sum(cleaned.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "outcomes", cleaned)

    def probability(self, outcome: Outcome) -> float:
        return self.outcomes.get(outcome, 0.0)

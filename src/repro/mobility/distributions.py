"""Spatial placement distributions for vehicle generation.

The paper's toolkit generates *"10,000 cars randomly generated along the
roads based on Gaussian distribution"* (Section IV). This module reproduces
that placement model and adds a uniform alternative for ablations:

* :class:`GaussianPlacement` — cars cluster around one or more hot-spots
  (downtown-style density), truncated to the map extent.
* :class:`UniformPlacement` — cars spread evenly over the map extent.

Placements produce raw 2-D points; the simulator snaps each point to the
nearest road segment through a :class:`~repro.roadnet.SegmentIndex`, exactly
like dropping a vehicle onto the closest road.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..errors import MobilityError
from ..roadnet.geometry import BoundingBox, Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["PlacementDistribution", "GaussianPlacement", "UniformPlacement"]


class PlacementDistribution:
    """Interface: draw ``count`` points inside ``bounds`` from a seeded RNG."""

    def sample(
        self, count: int, bounds: BoundingBox, rng: np.random.Generator
    ) -> List[Point]:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianPlacement(PlacementDistribution):
    """Gaussian hot-spot placement (the paper's model).

    Attributes:
        hotspots: Relative hot-spot centres as ``(fx, fy)`` fractions of the
            map extent, e.g. ``(0.5, 0.5)`` for the map centre. Cars are
            assigned to hot-spots round-robin, giving deterministic
            proportions.
        sigma_fraction: Standard deviation as a fraction of the map diagonal.
    """

    hotspots: Tuple[Tuple[float, float], ...] = ((0.5, 0.5),)
    sigma_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not self.hotspots:
            raise MobilityError("GaussianPlacement needs at least one hotspot")
        if self.sigma_fraction <= 0:
            raise MobilityError(
                f"sigma_fraction must be positive, got {self.sigma_fraction}"
            )

    def sample(
        self, count: int, bounds: BoundingBox, rng: np.random.Generator
    ) -> List[Point]:
        if count < 0:
            raise MobilityError(f"count must be non-negative, got {count}")
        sigma = self.sigma_fraction * bounds.diagonal
        points: List[Point] = []
        for index in range(count):
            fx, fy = self.hotspots[index % len(self.hotspots)]
            cx = bounds.min_x + fx * bounds.width
            cy = bounds.min_y + fy * bounds.height
            # Redraw until inside the map (truncated Gaussian); cap the
            # attempts so a degenerate configuration cannot loop forever.
            for __ in range(64):
                x = rng.normal(cx, sigma)
                y = rng.normal(cy, sigma)
                if bounds.contains(Point(x, y)):
                    break
            else:
                x, y = cx, cy
            points.append(Point(float(x), float(y)))
        return points


@dataclass(frozen=True)
class UniformPlacement(PlacementDistribution):
    """Uniform placement across the map extent (ablation baseline)."""

    def sample(
        self, count: int, bounds: BoundingBox, rng: np.random.Generator
    ) -> List[Point]:
        if count < 0:
            raise MobilityError(f"count must be non-negative, got {count}")
        xs = rng.uniform(bounds.min_x, bounds.max_x, size=count)
        ys = rng.uniform(bounds.min_y, bounds.max_y, size=count)
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]

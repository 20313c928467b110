"""Ground-truth resource usage recording.

The simulated systems report every resource-consuming activity as an
interval ``(resource, t_start, t_end, rate)`` — a thread running on a core
records ``(cpu@m0, t0, t1, 1.0)``, a network transfer records the NIC rate
over its duration, and so on.  The recorder turns these intervals into:

* a **ground-truth trace** at arbitrary (fine) granularity — the 50 ms
  reference Table II compares against;
* **coarse monitoring samples** at a configurable interval — what a real
  cluster monitor (Ganglia et al.) would deliver, and what Grade10's
  upsampler receives.

Rasterization is the vectorized difference-array scan from
:mod:`repro.core.timeline`; cost is ``O(intervals + slices)``.
"""

from __future__ import annotations

import numpy as np

from ..core.timeline import TimeGrid, rasterize_intervals
from ..core.traces import ResourceTrace

__all__ = ["MetricsRecorder"]


class MetricsRecorder:
    """Accumulates usage intervals per resource."""

    def __init__(self) -> None:
        self._intervals: dict[str, list[tuple[float, float, float]]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, resource: str, t_start: float, t_end: float, rate: float) -> None:
        """Record that ``resource`` was consumed at ``rate`` over an interval."""
        if t_end < t_start:
            raise ValueError(f"interval ends before it starts: {t_start} .. {t_end}")
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if t_end > t_start and rate > 0.0:
            self._intervals.setdefault(resource, []).append((t_start, t_end, rate))

    def resources(self) -> list[str]:
        """Names of all resources with recorded activity."""
        return list(self._intervals)

    @property
    def t_end(self) -> float:
        """Latest interval end across all resources (0.0 when empty)."""
        ends = [iv[1] for ivs in self._intervals.values() for iv in ivs]
        return max(ends) if ends else 0.0

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def rate_on_grid(self, resource: str, grid: TimeGrid) -> np.ndarray:
        """Average consumption rate of ``resource`` per grid slice."""
        ivs = self._intervals.get(resource)
        if not ivs:
            return np.zeros(grid.n_slices)
        arr = np.asarray(ivs, dtype=np.float64)
        return rasterize_intervals(grid, arr[:, 0], arr[:, 1], arr[:, 2])

    def ground_truth(self, grid: TimeGrid) -> dict[str, np.ndarray]:
        """Fine-grained rate arrays for every recorded resource."""
        return {name: self.rate_on_grid(name, grid) for name in self._intervals}

    def sample(
        self,
        interval: float,
        *,
        t0: float = 0.0,
        t_end: float | None = None,
        resources: list[str] | None = None,
        jitter: float = 0.0,
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> ResourceTrace:
        """Downsample into monitoring measurements of width ``interval``.

        Each measurement reports the average consumption rate over its
        window, exactly like a periodic cluster monitor.  Two optional
        imperfections model real collectors:

        * ``jitter`` — multiplicative value noise: each reported rate is
          scaled by ``1 + U(-jitter, +jitter)`` (sensor/serialization
          error);
        * ``drop_rate`` — each sample is independently lost with this
          probability (UDP collectors drop under load).

        Both are seeded and deterministic.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if t_end is None:
            t_end = self.t_end
        trace = ResourceTrace()
        if t_end <= t0:
            return trace
        rng = np.random.default_rng(seed) if (jitter > 0 or drop_rate > 0) else None
        grid = TimeGrid.covering(t0, t_end, interval)
        names = resources if resources is not None else self.resources()
        for name in names:
            rates = self.rate_on_grid(name, grid)
            edges = grid.edges
            for k in range(grid.n_slices):
                # Difference-array cancellation can leave a -1e-16 residue
                # where intervals end; a rate is never negative.
                value = max(float(rates[k]), 0.0)
                if rng is not None:
                    if drop_rate > 0 and rng.random() < drop_rate:
                        continue
                    if jitter > 0:
                        value = max(value * (1.0 + rng.uniform(-jitter, jitter)), 0.0)
                trace.add_measurement(name, float(edges[k]), float(edges[k + 1]), value)
        return trace

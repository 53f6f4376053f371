"""The solver's budgets, apart from the solver so that the CLI can read
their defaults without loading it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SolverConfig:
    """Search and verification budgets.

    ``constant_pool`` supplies the alternatives for integer ``(Constant _)``
    shorthands; bit-vector pools are exhaustive up to width 4 and otherwise
    use 0, 1, all-ones plus ``solver.BV_SAMPLE_COUNT`` seeded draws; enum
    pools are all constructors.  Verification checks the integer grid of
    radius ``grid_radius`` (cut at ``solver.GRID_POINT_CAP`` points) under
    each of ``uf_model_count`` sampled models, then ``random_samples``
    random points.  ``timeout_seconds`` bounds the whole solve; ``None``
    means no limit, and ``0`` is a limit that has already passed.
    """

    max_term_size: int = 12
    grid_radius: int = 5
    random_samples: int = 256
    uf_model_count: int = 32
    seed: int = 0
    constant_pool: tuple[int, ...] = (0, 1, -1, 2)
    timeout_seconds: Optional[float] = None

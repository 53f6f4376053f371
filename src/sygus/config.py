"""The solver's budgets, apart from the solver so that the CLI can read
their defaults without loading it.  ``SolverConfig`` is a record (see
``syntax.Record``): immutable, with its defaults in its ``_defaults``,
and ``replace`` gives a copy with some fields changed."""

from __future__ import annotations

from typing import Optional

from .syntax import Record


class SolverConfig(Record):
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

    __slots__ = (
        "max_term_size", "grid_radius", "random_samples", "uf_model_count", "seed",
        "constant_pool", "timeout_seconds",
    )
    _defaults = {
        "max_term_size": 12, "grid_radius": 5, "random_samples": 256, "uf_model_count": 32,
        "seed": 0, "constant_pool": (0, 1, -1, 2), "timeout_seconds": None,
    }
    max_term_size: int
    grid_radius: int
    random_samples: int
    uf_model_count: int
    seed: int
    constant_pool: tuple[int, ...]
    timeout_seconds: Optional[float]

    def replace(self, **changes: object) -> SolverConfig:
        """This config with the fields named in ``changes`` set to their
        values; an unknown name is a ``TypeError``."""
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields.update(changes)
        return SolverConfig(**fields)

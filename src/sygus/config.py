"""The solver's budgets, apart from the solver so that the CLI can read
their defaults without loading it.  ``SolverConfig`` is a record (see
``syntax.Record``): immutable, with its defaults in the signature of its
``__init__``, and ``replace`` gives a copy with some fields changed."""

from __future__ import annotations

from typing import Optional

from .syntax import Record, set_field


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
    max_term_size: int
    grid_radius: int
    random_samples: int
    uf_model_count: int
    seed: int
    constant_pool: tuple[int, ...]
    timeout_seconds: Optional[float]

    def __init__(
        self,
        max_term_size: int = 12,
        grid_radius: int = 5,
        random_samples: int = 256,
        uf_model_count: int = 32,
        seed: int = 0,
        constant_pool: tuple[int, ...] = (0, 1, -1, 2),
        timeout_seconds: Optional[float] = None,
    ) -> None:
        set_field(self, "max_term_size", max_term_size)
        set_field(self, "grid_radius", grid_radius)
        set_field(self, "random_samples", random_samples)
        set_field(self, "uf_model_count", uf_model_count)
        set_field(self, "seed", seed)
        set_field(self, "constant_pool", constant_pool)
        set_field(self, "timeout_seconds", timeout_seconds)

    def replace(self, **changes: object) -> SolverConfig:
        """This config with the fields named in ``changes`` set to their
        values; an unknown name is a ``TypeError``."""
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields.update(changes)
        return SolverConfig(**fields)

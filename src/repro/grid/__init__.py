"""Process grids and 2D block-cyclic distribution arithmetic.

:mod:`repro.grid.block_cyclic` is pure index math (ScaLAPACK conventions,
source process 0); :mod:`repro.grid.process_grid` binds a world communicator
to a ``P x Q`` grid with row and column sub-communicators, matching Fig. 1
of the paper.
"""

from .block_cyclic import (
    global_to_local,
    local_to_global,
    local_indices,
    num_local_before,
    numroc,
    owning_process,
)


def __getattr__(name: str):
    # Lazy: the index math must not pull in repro.simmpi.
    if name == "ProcessGrid":
        from .process_grid import ProcessGrid

        return ProcessGrid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "numroc",
    "num_local_before",
    "owning_process",
    "global_to_local",
    "local_to_global",
    "local_indices",
    "ProcessGrid",
]

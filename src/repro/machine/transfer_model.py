"""Host-device transfer model.

Each iteration the factoring column ships the look-ahead columns to the
host for FACT and the factored panel back (paper Fig. 3's "transfer"
bands).  Pure alpha-beta over the per-device host link.
"""

from __future__ import annotations

import numpy as np

from .spec import LinkSpec, NodeSpec


def transfer_seconds_array(link: LinkSpec, nbytes: np.ndarray) -> np.ndarray:
    """Seconds to move each ``nbytes`` payload across one host-device link."""
    nbytes = np.asarray(nbytes, dtype=np.float64)
    return np.where(
        nbytes > 0,
        link.latency_s + nbytes / (link.bandwidth_gbs * 1e9),
        0.0,
    )


def transfer_seconds(link: LinkSpec, nbytes: float) -> float:
    """Scalar :func:`transfer_seconds_array`."""
    return float(transfer_seconds_array(link, nbytes))


def panel_roundtrip_seconds(node: NodeSpec, m_local: int, nb: int) -> float:
    """D2H of the updated look-ahead panel plus H2D of the factored panel."""
    nbytes = 8.0 * m_local * nb
    return transfer_seconds(node.d2h, nbytes) + transfer_seconds(node.h2d, nbytes)

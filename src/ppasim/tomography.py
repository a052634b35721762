"""Pauli-basis tomography of a qubit, on Bloch vectors.

Tomography samples the three Pauli expectations with a finite shot budget,
linearly inverts them (unbiased in the expectations), and projects the
result back to the Bloch ball.  For a qubit, clipping the negative
eigenvalue of the linear inversion and renormalizing is the radial map
e -> e / max(1, |e|), so an estimate outside the ball lands on the sphere:
a pure state, where the QFI of :func:`ppasim.fisher.qfi_bloch` takes its
boundary branch (fig4 first projects the derivative onto the tangent plane
there).
"""

from __future__ import annotations

import numpy as np

from .states import _reject

__all__ = ["DEFAULT_DTHETA", "simulate_tomography"]

# Phase step of the three-point central difference in the fig4 pipeline.
DEFAULT_DTHETA = 0.035


def simulate_tomography(
    r, shots_per_basis: int, rng: np.random.Generator
) -> np.ndarray:
    """Estimated Bloch vector from Pauli-basis measurements of Bloch vector ``r``.

    Each basis takes ``shots_per_basis`` shots; the plus-counts come from one
    ``rng.binomial(shots, (1 + r)/2)`` draw, in x, y, z order.  The sampled
    expectations e = 2 counts/shots - 1 are returned as e / max(1, |e|), the
    physical state nearest the linear inversion.  ``r`` may be a (..., 3)
    stack, drawn in C order by the same single call; a vector with a
    component outside [-1, 1] raises ValueError naming the first such
    instance.
    """
    shots = int(shots_per_basis)
    if shots < 1:
        raise ValueError("shots_per_basis must be >= 1")
    r = np.asarray(r, dtype=float)
    _reject(~(np.abs(r) <= 1.0).all(-1), "Bloch vector components must lie in [-1, 1]")
    e = 2.0 * rng.binomial(shots, (1.0 + r) / 2.0) / shots - 1.0
    return e / np.maximum(1.0, np.sqrt((e * e).sum(-1, keepdims=True)))

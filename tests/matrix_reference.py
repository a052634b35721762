"""Independent references for the amplification scheme's closed forms.

The program builds the pass-conditioned (A, filter, A) table only in closed
form (``quasiprob.kd_table_closed_form``).  The tests check it against the
general route kept here: 2x2 density matrices, projective POVMs onto
|a+->, the filter POVM, the general ``kd_distribution`` and a slice
renormalized by its total.  The survival probability is kept here in its
theta form, against which ``fisher.survival_probability`` is checked.
:func:`run_point` runs one bench point on the count stream of a packed point
seed, and :func:`point_stream` builds a grid point's keyed stream afresh.
:func:`kd_entries` is ``kd_distribution`` one instance and one outcome tuple
at a time, and :func:`qubit_instances` draws verify's random qubit instances
as one stack.
"""

import functools
import itertools
import math

import numpy as np

from ppasim import verify
from ppasim.bench import run_trials
from ppasim.cli import SweepSpec
from ppasim.quasiprob import POVM, filter_povm, kd_distribution
from ppasim.states import (
    ID2,
    PAULIS,
    DensityMatrix,
    make_filter,
    phase_unitary,
    ppa_generator,
    pure_state,
)


def survival_theta_form(theta, t_mag, v=1.0):
    """Survival probability v (|t|^2 cos^2(theta/2) + sin^2(theta/2)) +
    (1 - v)(1 + |t|^2)/2: the pure family's, mixed with the filter's
    response to the maximally mixed state.  At small theta its
    1 - cos^2(theta/2) loses digits."""
    c = math.cos(theta / 2.0) ** 2
    p_pure = t_mag**2 * c + (1.0 - c)
    return v * p_pure + (1.0 - v) * (1.0 + t_mag**2) / 2.0


def plus_minus_states():
    """The +-x eigenvectors (|0> +- |1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex)


def projective_povm(vectors):
    """Rank-1 projective POVM from an orthonormal set of vectors, in order."""
    elems = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        elems.append(np.outer(v, v.conj()) / np.vdot(v, v).real)
    return POVM(tuple(elems))


@functools.cache
def _a_basis_povm():
    return projective_povm(plus_minus_states())


def ppa_povm_sequence(t):
    """(A-basis, filter, A-basis) POVMs of the amplification scheme.

    POVMs 0 and 2 are one shared projective POVM onto |a+>, |a-> (outcomes
    0 and 1, in that order); POVM 1 is ``filter_povm(make_filter(t))``,
    whose outcome 0 is the pass.
    """
    proj = _a_basis_povm()
    return (proj, filter_povm(make_filter(t)), proj)


def condition(kd, axis, outcome):
    """Condition a quasidistribution on measurement ``axis`` giving ``outcome``.

    ``kd`` is the table of one instance, without batch axes.  Returns the
    read-only slice at index ``outcome`` of ``axis`` (one axis fewer),
    renormalized by its total.  An ``axis`` or ``outcome`` out of range,
    negative ones included, or a total of magnitude <= 1e-14 raises
    ValueError.
    """
    if not 0 <= axis < kd.ndim:
        raise ValueError(f"axis {axis} out of range for {kd.ndim} measurements")
    if not 0 <= outcome < kd.shape[axis]:
        raise ValueError(
            f"outcome {outcome} out of range for axis {axis} of shape {kd.shape}"
        )
    sliced = np.take(kd, outcome, axis=axis)
    norm = complex(sliced.sum())
    if abs(norm) <= 1e-14:
        raise ValueError(
            f"outcome {outcome} of measurement {axis} has zero quasiprobability"
        )
    out = sliced / norm
    out.flags.writeable = False
    return out


def unfiltered_state(theta, v=1.0):
    """The imprinted state before the filter acts: U (v|0><0| + (1 - v) 1/2) U^dag
    with U = exp(i theta sigma_x / 2), the input of ``fisher.PPAFamily``."""
    u = phase_unitary(ppa_generator(), theta)
    rho0 = v * np.diag([1.0, 0.0]) + (1.0 - v) * ID2 / 2
    return DensityMatrix(u @ rho0 @ u.conj().T)


def imprinted_table(theta, t):
    """Pass-conditioned table of exp(i theta sigma_x / 2)|0>, built from matrices."""
    rho = pure_state(phase_unitary(ppa_generator(), theta) @ np.array([1.0, 0.0]))
    return condition(kd_distribution(rho, ppa_povm_sequence(t)), 1, 0)


def bloch_vector(rho: DensityMatrix):
    """Standard Bloch components (Tr rho sigma_x, sigma_y, sigma_z) of one qubit."""
    if rho.mat.shape != (2, 2):
        raise ValueError("Bloch vectors are defined for one qubit state only")
    return np.array([float(np.trace(rho.mat @ s).real) for s in PAULIS])


def run_point(theta_true, t_set, seed=0, **fields):
    """The sweep record of one bench point keyed by the packed point seed
    ``seed``: grid point (i, j) = ((seed >> 32) & 0xffffffff, seed & 0xffffffff)
    of a run with seed ``seed >> 64``, whose grids repeat theta_true and t_set
    up to that index.  ``fields`` are the other SweepSpec fields."""
    i, j = (seed >> 32) & 0xFFFFFFFF, seed & 0xFFFFFFFF
    spec = SweepSpec(
        theta_list=[theta_true] * (i + 1), t_list=[t_set] * (j + 1), seed=seed >> 64,
        **fields,
    )
    [rec] = run_trials(spec, [(i, j)])
    return rec


def point_stream(seed, stage, i, j):
    """A new Philox generator on the key (first SeedSequence((seed, stage))
    word, i << 32 | j) at counter 0: the stream of grid point (i, j) of a run
    with seed ``seed`` in ``stage``."""
    word = np.random.SeedSequence((seed, stage)).generate_state(1, np.uint64)[0]
    key = np.array([word, i << 32 | j], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def kd_entries(rho: DensityMatrix, povms):
    """Tr(M^(k)_{m_k} ... M^(1)_{m_1} rho), one entry at a time: a Python loop
    over the broadcast batch axes of rho and the POVMs, then over every
    outcome tuple, multiplying d x d matrices and taking np.trace."""
    stacks = [p.stack for p in povms]
    batch = np.broadcast_shapes(rho.mat.shape[:-2], *(s.shape[:-3] for s in stacks))
    rho_b = np.broadcast_to(rho.mat, batch + rho.mat.shape[-2:])
    stacks_b = [np.broadcast_to(s, batch + s.shape[-3:]) for s in stacks]
    outcomes = tuple(s.shape[-3] for s in stacks)
    out = np.empty(batch + outcomes, dtype=complex)
    for b in np.ndindex(*batch):
        for ms in itertools.product(*(range(n) for n in outcomes)):
            op = rho_b[b]
            for s, m in zip(stacks_b, ms):
                op = s[b][m] @ op
            out[b + ms] = np.trace(op)
    return out


def qubit_instances(rng, n):
    """verify's n random qubit instances drawn from ``rng``, as one stack:
    (states, the shared sigma_x/2 generator, filters)."""
    [(_, *draws)] = verify._qubit_draws(rng, n)  # one group of d = 2, as one run
    [(_, *instances)] = verify._qubit_batches([draws])
    return tuple(instances)

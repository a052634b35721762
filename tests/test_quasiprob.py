import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ppasim.fisher import qfi_postselected_pure, qfi_ppa_family, survival_probability
from ppasim.quasiprob import (
    filter_povm,
    gap4_ppa_family,
    kd_distribution,
    kd_table_closed_form,
    nonclassicality_gap,
    verify_gap_equality,
)
from ppasim.states import (
    ID2,
    PAULIS,
    make_filter,
    phase_unitary,
    ppa_generator,
    pure_state,
)
from ppasim import quasiprob, verify
from ppasim.verify import (
    _marginalization_residual,
    gap_equality_suite,
    marginalization_suite,
    random_marginalization_instances,
    random_qudit_instances,
)

from matrix_reference import (
    condition,
    density_matrix,
    generator,
    kd_entries,
    plus_minus_states,
    povm,
    ppa_povm_sequence,
    projective_povm,
    psd_sqrt,
    qubit_instances,
    spectral_generator,
    unfiltered_state,
)

RNG = np.random.default_rng(4242)


def random_povm(rng, d, n_out):
    raw = []
    for _ in range(n_out):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(x @ x.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return povm(tuple(inv_sqrt @ g @ inv_sqrt for g in raw))


def random_density(rng, d):
    probs = rng.dirichlet(np.ones(d))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    return density_matrix((q * probs) @ q.conj().T)


def imprinted_state(theta):
    return unfiltered_state(theta)


def imprinted_bloch(theta):
    """Bloch vector of imprinted_state(theta)."""
    return np.array([0.0, math.sin(theta), math.cos(theta)])


def imprinted_table(theta, t):
    """kd_table_closed_form of imprinted_state(theta), |1> population sin^2(theta/2)."""
    return kd_table_closed_form(imprinted_bloch(theta), t, math.sin(theta / 2) ** 2)


def population(r):
    """The |1> population (1 - r_z)/2 of Bloch vectors r."""
    return (1.0 - np.asarray(r)[..., 2]) / 2.0


# ----------------------------------------------------------------- structure


def test_povm_rejects_incomplete_set():
    with pytest.raises(ValueError):
        povm((np.diag([0.5, 0.5]).astype(complex),))


def test_povm_rejects_negative_element():
    with pytest.raises(ValueError):
        povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    # complete but with one non-PSD element: caught in every position
    bad = np.array([[0.1, 0.3], [0.3, 0.1]])  # eigenvalues 0.4 and -0.2
    good = [np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), np.diag([0.5, 0.5]) - bad]
    assert all(np.linalg.eigvalsh(g).min() >= 0.0 for g in good)
    for pos in range(4):
        elems = list(good)
        elems.insert(pos, bad)
        assert np.abs(sum(elems) - np.eye(2)).max() < 1e-15
        with pytest.raises(ValueError, match="not PSD"):
            povm(tuple(elems))


def test_verify_builds_only_what_the_reference_validators_accept(monkeypatch):
    """Every state, generator and POVM that a verify suite builds, at seeds
    0-5 and the default sizes, meets the reference rules, though nothing
    checks them when they are made: the qubit and qudit gap instances, the
    gap check's coarse-grained and filter POVMs, the marginalization states
    and POVMs, the Sylvester states and the 84 grid states."""
    seen = {"gap": [], "kd": [], "sld": []}

    def recording(kind, real):
        def call(*args):
            seen[kind].append(args)
            return real(*args)
        return call

    gap = recording("gap", verify_gap_equality)
    monkeypatch.setattr(verify, "verify_gap_equality", gap)
    for module in (verify, quasiprob):
        monkeypatch.setattr(module, "kd_distribution", recording("kd", kd_distribution))
    monkeypatch.setattr(verify, "sld", recording("sld", verify.sld))
    for seed in range(6):
        # a fresh grid cache, so the grid states reach sld at every seed
        fresh = functools.cache(verify._grid_solution.__wrapped__)
        monkeypatch.setattr(verify, "_grid_solution", fresh)
        for calls in seen.values():
            calls.clear()
        assert all(r.passed for r in verify.run_all(seed))
        for rho, gen, _ in seen["gap"]:
            density_matrix(rho)
            generator(*gen)
        for rho, povms in seen["kd"]:
            density_matrix(rho)
            for stack in povms:
                povm(stack)
        sld_states = [density_matrix(rho)[..., 0, 0].size for rho, _ in seen["sld"]]
        # 1000 qubits and 200 qudits; those again and 200 marginalization
        # states, each in 4 tables; 84 grid and 100 Sylvester states
        assert sum(len(rho) for rho, *_ in seen["gap"]) == 1200
        assert sum(len(rho) for rho, _ in seen["kd"]) == 1200 + 4 * 200
        assert sorted(sld_states)[-1] == 84 and sum(sld_states) == 84 + 100


def test_filter_povm_checks_the_contraction_and_matches_the_public_povm():
    # what filter_povm makes of a contraction passes the reference POVM rules
    k = psd_sqrt(np.array([random_density(RNG, 3) for _ in range(4)]))
    filt = filter_povm(k)
    assert filt.shape == (4, 2, 3, 3)
    assert np.array_equal(povm(filt), filt)
    k[2] *= 1.1 / np.linalg.eigvalsh(k[2]).max()  # largest singular value 1.1
    with pytest.raises(ValueError, match="^instance 2: POVM element is not PSD within"):
        filter_povm(k)


def test_sequence_rejects_mixed_dimensions():
    p2 = projective_povm(np.eye(2))
    p3 = projective_povm(np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        kd_distribution(pure_state([1, 0]), (p2, p3))


def test_kd_rejects_dimension_mismatch():
    p3 = projective_povm(np.eye(3))
    with pytest.raises(ValueError):
        kd_distribution(pure_state([1, 0]), (p3,))


def test_kd_rejects_an_empty_sequence():
    with pytest.raises(ValueError, match="at least one POVM"):
        kd_distribution(pure_state([1, 0]), ())


def test_kd_distribution_is_read_only():
    kd = kd_distribution(imprinted_state(0.3), ppa_povm_sequence(0.5))
    assert isinstance(kd, np.ndarray)
    assert kd.shape == (2, 2, 2)
    assert kd.dtype == complex
    assert not kd.flags.writeable
    with pytest.raises(ValueError):
        kd[0, 0, 0] = 0.0
    assert not condition(kd, 1, 0).flags.writeable


def test_kd_distribution_checks_the_sum_per_instance():
    # a stack of two valid states totals 2 over all axes but 1 per instance
    thetas = (0.3, 1.1)
    stack = density_matrix(np.stack([imprinted_state(th) for th in thetas]))
    kd = kd_distribution(stack, ppa_povm_sequence(0.5))
    assert kd.shape == (2, 2, 2, 2)
    for i, th in enumerate(thetas):
        one = kd_distribution(imprinted_state(th), ppa_povm_sequence(0.5))
        assert np.abs(kd[i] - one).max() < 1e-15
    # each deviation passes its own 1e-10 check; together they leave 1.8e-10
    rho = density_matrix(
        np.stack([np.diag([0.5, 0.5]), np.diag([0.5, 0.5 + 9e-11])]).astype(complex)
    )
    half = np.diag([0.5, 0.5]) * (1.0 + 9e-11)
    halves = povm((half, half))
    with pytest.raises(ValueError, match="instance 1: quasidistribution does not sum"):
        kd_distribution(rho, (halves,))
    assert kd_distribution(density_matrix(rho[0]), (halves,)).shape == (2,)


# ------------------------------------------------------------- born behavior


def test_single_povm_reduces_to_born_probabilities():
    for _ in range(10):
        d = int(RNG.integers(2, 5))
        rho = random_density(RNG, d)
        povm = random_povm(RNG, d, 3)
        vals = kd_distribution(rho, (povm,))
        assert np.abs(vals.imag).max() < 1e-12
        assert vals.real.min() > -1e-12
        assert abs(vals.sum() - 1.0) < 1e-10


def test_commuting_sequence_on_joint_eigenstate_is_deterministic():
    basis = np.eye(3, dtype=complex)
    povm = projective_povm(basis)
    kd = kd_distribution(pure_state(basis[1]), (povm, povm))
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert np.abs(kd - expected).max() < 1e-14


def test_kd_distribution_equals_per_outcome_loop():
    # the last trace is a contraction, not np.trace of a product, so the two
    # routes agree to rounding, not bit for bit
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        arity = int(rng.integers(1, 4))
        povms = tuple(
            random_povm(rng, d, int(rng.integers(2, 5))) for _ in range(arity)
        )
        rho = random_density(rng, d)
        kd = kd_distribution(rho, povms)
        assert np.abs(kd - kd_entries(rho, povms)).max() <= 1e-15
    for t in (0.044, 0.5, 1.0):
        rho = imprinted_state(0.3)
        povms = ppa_povm_sequence(t)
        kd = kd_distribution(rho, povms)
        assert np.abs(kd - kd_entries(rho, povms)).max() <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("batched", ["rho", "one-povm", "both"])
def test_batched_kd_distribution_equals_per_entry_loop(k, batched):
    # batch axes (3,) on rho and (2, 1) on POVM k // 2, which broadcast to
    # (2, 3) when both have them
    rng = np.random.default_rng(40 + k)
    d = 3
    mats = np.stack([random_density(rng, d) for _ in range(3)])
    rho = density_matrix(mats if batched != "one-povm" else mats[0])
    povms = [random_povm(rng, d, n_out) for n_out in (2, 3, 4)[:k]]
    if batched != "rho":
        n_out = len(povms[k // 2])
        stacks = [random_povm(rng, d, n_out) for _ in range(2)]
        povms[k // 2] = povm(np.stack(stacks)[:, None])
    kd = kd_distribution(rho, tuple(povms))
    batch = {"rho": (3,), "one-povm": (2, 1), "both": (2, 3)}[batched]
    assert kd.shape == batch + tuple(p.shape[-3] for p in povms)
    assert np.abs(kd - kd_entries(rho, povms)).max() <= 1e-14


def test_full_distribution_sums_to_one():
    for theta in (0.02, 0.2, 1.0):
        for t in (0.044, 0.5, 1.0):
            kd = kd_distribution(imprinted_state(theta), ppa_povm_sequence(t))
            assert abs(kd.sum() - 1.0) < 1e-10


# ------------------------------------------------- conditioning and the table


def test_conditional_table_matches_closed_form():
    for theta in (0.02, 0.2, 0.7):
        for t in (0.044, 0.3, 0.9, 1.0):
            kd = kd_distribution(imprinted_state(theta), ppa_povm_sequence(t))
            cond = condition(kd, 1, 0)
            table = imprinted_table(theta, t)
            assert np.abs(cond - table).max() < 1e-12
    # mixed states anywhere in the ball (tomographic estimates among them)
    # and complex amplitudes
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
        t = rng.uniform(0.044, 1.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        rho = density_matrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)
        cond = condition(kd_distribution(rho, ppa_povm_sequence(t)), 1, 0)
        assert np.abs(cond - kd_table_closed_form(r, t, population(r))).max() < 1e-12


def test_conditional_table_frozen_values():
    table = imprinted_table(0.2, 0.5)
    assert abs(table[0, 0] - 1.2137099119211106) < 1e-12
    assert abs(table[0, 1] - (-0.7137099119211106 - 0.14467616158841984j)) < 1e-12
    # rounded presentation values
    assert abs(table[0, 0].real - 1.21371) < 1e-5
    assert abs(table[0, 1] - (-0.71372 - 0.14468j)) < 1.5e-5


def test_conditional_normalizer_is_survival_probability():
    theta, t = 0.2, 0.5
    kd = kd_distribution(imprinted_state(theta), ppa_povm_sequence(t))
    norm = kd[:, 0, :].sum()
    expected = t**2 * math.cos(theta / 2) ** 2 + math.sin(theta / 2) ** 2
    assert abs(norm - expected) < 1e-12


def test_conditional_table_no_filter_is_classical():
    table = imprinted_table(0.3, 1.0)
    assert np.abs(table - np.diag([0.5, 0.5])).max() < 1e-14


def test_conditional_table_sums_to_one():
    for _ in range(20):
        theta = float(RNG.uniform(0.01, 3.0))
        t = float(RNG.uniform(0.0, 1.0))
        assert abs(imprinted_table(theta, t).sum() - 1.0) < 1e-10


def test_closed_form_table_rejects_dead_slice():
    # t = 0 blocks |0> (r_z = 1) entirely: that instance has no conditional
    # table, so its table and gap are nan, in a one-axis and a two-axis
    # stack; every other table, one whose survival probability is 1e-14
    # among them, is finite and bit for bit the per-vector one
    rng = np.random.default_rng(15)
    r = rng.normal(size=(2, 3, 3))
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    r *= rng.uniform(0.0, 1.0, size=(2, 3, 1))
    r[0, 0] = (0.0, 0.0, 1.0 - 2e-14)
    dead = np.zeros((2, 3), dtype=bool)
    dead[0, 1] = dead[1, 2] = True
    r[dead] = (0.0, 0.0, 1.0)
    for stack, mask in ((r, dead), (r[1], dead[1])):
        tables = kd_table_closed_form(stack, 0.0, population(stack))
        gaps = nonclassicality_gap(tables, axes=(-2, -1))
        assert np.isnan(tables[mask]).all() and np.isfinite(tables[~mask]).all()
        assert np.array_equal(np.isnan(gaps), mask)
        for k in np.ndindex(mask.shape):
            one = kd_table_closed_form(stack[k], 0.0, population(stack[k]))
            assert np.array_equal(tables[k], one, equal_nan=True)


def test_closed_form_table_of_a_stack_is_the_per_vector_tables():
    # a (2, 3, 3) stack of Bloch vectors gives (2, 3, 2, 2) tables, bit for
    # bit the per-vector ones, and per-table gaps over the outcome axes
    rng = np.random.default_rng(14)
    r = rng.normal(size=(2, 3, 3))
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    r *= rng.uniform(0.0, 1.0, size=(2, 3, 1))
    t = 0.3 * np.exp(0.4j)
    tables = kd_table_closed_form(r, t, population(r))
    gaps = nonclassicality_gap(tables, axes=(-2, -1))
    assert tables.shape == (2, 3, 2, 2) and gaps.shape == (2, 3)
    for k in np.ndindex(2, 3):
        one = kd_table_closed_form(r[k], t, population(r[k]))
        assert np.array_equal(tables[k], one)
        assert gaps[k] == nonclassicality_gap(one)


def test_gap_of_the_tables_without_building_them_is_their_gap_bit_for_bit():
    # fig4 takes each estimate's gap from the squared moduli of the entries
    # kd_table_closed_form builds its tables from, so it is 4 x
    # nonclassicality_gap of those tables byte for byte, and nan where a table
    # is: the estimate (0, 0, 1), which t = 1e-9 passes with probability 1e-18
    rng = np.random.default_rng(16)
    r = rng.normal(size=(12, 4, 3))
    r /= np.maximum(1.0, np.linalg.norm(r, axis=-1, keepdims=True))
    r[1, 2] = (0.0, 0.0, 1.0)
    t = np.repeat([1e-9, 0.044, 0.5, 1.0], 3)[:, None]
    w = (1.0 - r[..., 2]) / 2.0
    gap4 = quasiprob._gap4_of_tables(r, t, w)
    tables = kd_table_closed_form(r, t, w)
    assert gap4.tobytes() == (4.0 * nonclassicality_gap(tables, axes=(-2, -1))).tobytes()
    assert np.argwhere(np.isnan(gap4)).tolist() == [[1, 2]]


def test_condition_rejects_zero_normalizer():
    # fully blocking filter on a state it annihilates: slice sums to zero
    kd = kd_distribution(pure_state([1, 0]), ppa_povm_sequence(0.0))
    with pytest.raises(
        ValueError, match="^outcome 0 of measurement 1 has zero quasiprobability$"
    ):
        condition(kd, 1, 0)


def test_condition_drops_one_index():
    kd = kd_distribution(imprinted_state(0.3), ppa_povm_sequence(0.5))
    cond = condition(kd, 1, 0)
    assert cond.shape == (2, 2)
    assert np.abs(cond - kd[:, 0, :] / kd[:, 0, :].sum()).max() < 1e-15
    assert abs(cond.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "axis, outcome", [(3, 0), (-1, 0), (-3, 0), (1, 2), (1, -1), (0, -2)]
)
def test_condition_rejects_out_of_range_indices(axis, outcome):
    # a negative index must not wrap around to the last axis or outcome
    kd = kd_distribution(imprinted_state(0.3), ppa_povm_sequence(0.5))
    with pytest.raises(ValueError, match="out of range"):
        condition(kd, axis, outcome)


# -------------------------------------------------------------- marginalizing


def test_marginalization_equals_shorter_sequence():
    for _ in range(15):
        d = int(RNG.integers(2, 5))
        rho = random_density(RNG, d)
        povms = tuple(random_povm(RNG, d, int(RNG.integers(2, 4))) for _ in range(3))
        kd = kd_distribution(rho, povms)
        for idx in range(3):
            direct = kd_distribution(rho, povms[:idx] + povms[idx + 1 :])
            assert np.abs(kd.sum(axis=idx) - direct).max() < 1e-12


def gaussian(parts):
    """The complex matrix of drawn (2, d, d) real and imaginary parts."""
    return parts[0] + 1j * parts[1]


def marginalization_instance(n_out, probs, z, x):
    """Reference for random_marginalization_instances: one instance built
    alone from its draws, with its used outcomes only.

    The state is Q diag(probs) Q^dag with Q from the QR of z; POVM i has
    the n_out[i] elements S^-1/2 G_k S^-1/2, G_k = X_k X_k^dag for the
    first n_out[i] of its drawn X; each measurement of the three-POVM
    quasidistribution is summed out against the distribution of the other
    two.  Returns (rho, povms, residual).
    """
    q, _ = np.linalg.qr(gaussian(z))
    rho = density_matrix((q * probs) @ q.conj().T)
    povms = []
    for k, slots in zip(n_out, x):
        raw = [gaussian(a) @ gaussian(a).conj().T for a in slots[:k]]
        w, v = np.linalg.eigh(sum(raw))
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        povms.append(povm(tuple(inv_sqrt @ g @ inv_sqrt for g in raw)))
    povms = tuple(povms)
    kd = kd_distribution(rho, povms)
    residual = 0.0
    for idx in range(3):
        direct = kd_distribution(rho, povms[:idx] + povms[idx + 1 :])
        residual = max(residual, float(np.abs(kd.sum(axis=idx) - direct).max()))
    return rho, povms, residual


def by_position(draws, build):
    """``build`` applied to each instance's draws, keyed by its position."""
    return {
        int(pos[j]): build(*(col[j] for col in cols))
        for _, pos, *cols in draws
        for j in range(len(pos))
    }


@pytest.mark.parametrize("seed", range(4))
def test_batched_marginalization_matches_the_per_instance_loop(seed, monkeypatch):
    # the default suite's 200 instances (verify --n 1000), in batches of at
    # most 16 so that every d needs more than one: runs of 9, 4 and 2 rows
    # at d = 2, 3, 4
    monkeypatch.setattr(verify, "MAX_BATCH", 1)
    n = 200
    drawn, batch = suite_streams(seed, 2)
    draws = verify._marginalization_draws(drawn, n)
    refs = by_position(draws, marginalization_instance)
    groups = list(random_marginalization_instances(batch, n))
    assert batch.bit_generator.state == drawn.bit_generator.state
    assert sorted(np.concatenate([pos for pos, *_ in groups]).tolist()) == list(range(n))
    dims = [rho.shape[-1] for _, rho, _ in groups]
    assert dims == sorted(dims) and set(dims) == {2, 3, 4}
    assert all(dims.count(d) > 1 for d in dims)
    assert all(len(pos) <= 16 for pos, *_ in groups)
    worst = 0.0
    padded = 0
    for pos, rho, povms in groups:
        residual = _marginalization_residual(rho, povms)
        assert residual.shape == pos.shape
        for j, i in enumerate(pos):
            ref_rho, ref_povms, ref_residual = refs[i]
            assert np.abs(rho[j] - ref_rho).max() <= 1e-12
            for stack, ref_stack in zip(povms, ref_povms):
                k = len(ref_stack)
                assert np.abs(stack[j, :k] - ref_stack).max() <= 1e-12
                # an unused outcome slot is exactly the zero element
                assert np.all(stack[j, k:] == 0.0)
                padded += k < 3
            assert abs(residual[j] - ref_residual) <= 1e-12
        worst = max(worst, float(residual.max()))
    assert padded
    assert marginalization_suite(seed, n).max_residual == worst
    assert abs(worst - max(r for *_, r in refs.values())) <= 1e-12


def test_marginalize_filter_recovers_projective_joint():
    kd = kd_distribution(imprinted_state(0.3), ppa_povm_sequence(0.5))
    proj = ppa_povm_sequence(0.5)[0]
    direct = kd_distribution(imprinted_state(0.3), (proj, proj))
    assert np.abs(kd.sum(axis=1) - direct).max() < 1e-14


def test_marginalize_everything_reaches_unity():
    kd = kd_distribution(imprinted_state(0.3), ppa_povm_sequence(0.5))
    twice = kd.sum(axis=1).sum(axis=0)
    assert abs(twice.sum() - 1.0) < 1e-12


# ------------------------------------------------------------ nonclassicality


def test_gap_of_classical_distribution():
    basis = np.eye(2, dtype=complex)
    povm = projective_povm(basis)
    gap = nonclassicality_gap(kd_distribution(pure_state(basis[0]), (povm,)))
    assert isinstance(gap, float)
    assert abs(gap - 1.0) < 1e-14


def test_gap_frozen_value():
    kd = kd_distribution(imprinted_state(0.2), ppa_povm_sequence(0.5))
    gap = nonclassicality_gap(condition(kd, 1, 0))
    assert abs(gap - 0.9427787201891519) < 1e-12
    assert abs(gap - 0.94278) < 1e-5
    assert abs(4 * gap - 3.7711148807566075) < 1e-12


def test_gap_vanishing_enhancement_without_filter():
    kd = kd_distribution(imprinted_state(0.2), ppa_povm_sequence(1.0))
    gap = nonclassicality_gap(condition(kd, 1, 0))
    assert abs(4 * gap - 1.0) < 1e-12


@pytest.mark.parametrize("v", [1.0, 0.98, 0.9, 0.5])
def test_family_gap_is_the_gap_of_its_table(v):
    # on the default grid and a negative t, where the table's max - min
    # keeps its digits, the closed form is 4 x the table's gap; at v = 1 it
    # is the family's QFI (t/p)^2
    theta, t = np.array(verify.THETA_GRID)[:, None], np.array((-0.5,) + verify.T_GRID)
    r = v * np.stack(np.broadcast_arrays(0.0, np.sin(theta), np.cos(theta)), -1)
    tables = kd_table_closed_form(r, t, population(r))
    table = 4.0 * nonclassicality_gap(tables, axes=(-2, -1))
    closed = gap4_ppa_family(theta, t, v)
    np.testing.assert_allclose(closed, table, rtol=1e-12, atol=0.0)
    if v == 1.0:
        qfi = qfi_ppa_family(theta, np.abs(t))
        np.testing.assert_allclose(closed, qfi, rtol=1e-14, atol=0.0)


def test_family_gap_of_a_blocking_filter():
    # t = 0 leaves the pure family no gap, where the table's max - min of
    # two equal entries cancels, and none at all (nan, as the table) at
    # theta = 0, which it blocks entirely; at v < 1 the gap is (1 - v^2)/(4 p^2)
    assert gap4_ppa_family(0.5, 0.0) == 0.0
    assert math.isnan(gap4_ppa_family(0.0, 0.0))
    assert np.isnan(kd_table_closed_form([0.0, 0.0, 1.0], 0.0, 0.0)).all()
    assert gap4_ppa_family(0.0, 0.0, 0.5) == pytest.approx(0.75 / 0.25**2 / 4, rel=1e-15)


def exact_family_gap4(t2, v, p):
    """The 4 gap (4T + (1 - v^2)(1 - T)^2) / (4 p^2) in exact rationals."""
    t2, v, p = Fraction(t2), Fraction(v), Fraction(p)
    return (4 * t2 + (1 - v * v) * (1 - t2) ** 2) / (4 * p * p)


def test_family_gap_keeps_its_digits_where_one_minus_v_squared_cancels():
    # at v = 1 - 1e-9, 1 - v*v keeps only about 7 of its digits and the
    # (1 - v^2)(1 - T)^2 term outweighs 4T some 500 times: a kernel that
    # forms 1 - v*v instead of (1 - v)(1 + v) is some 3e6 ulp off
    theta, t, v = 0.1, 1e-6, 1.0 - 1e-9
    s2 = float(np.square(np.sin(theta / 2.0)))  # the one transcendental step
    p = float(survival_probability(t, (1.0 - v) / 2.0 + v * s2))
    kernel = float(quasiprob._family_gap4(t * t, v, p))
    exact = float(exact_family_gap4(t * t, v, p))
    assert abs(kernel - exact) <= 4 * math.ulp(exact)
    # the public form, its p taken exactly from the same t, v and sin^2
    t2 = Fraction(t) ** 2
    p_exact = t2 + (1 - t2) * ((1 - Fraction(v)) / 2 + Fraction(v) * Fraction(s2))
    public = float(gap4_ppa_family(theta, t, v))
    exact = float(exact_family_gap4(t2, v, p_exact))
    assert abs(public - exact) <= 4 * math.ulp(exact)
    assert "%.12g" % exact == "8.02936881945e-05"


def test_commuting_filter_keeps_table_classical():
    # a filter diagonal in the measured eigenbasis commutes with the
    # projectors; the conditional quasiprobabilities stay real non-negative
    a_plus, a_minus = plus_minus_states()
    k = 0.4 * np.outer(a_plus, a_plus.conj()) + np.outer(a_minus, a_minus.conj())
    proj = projective_povm((a_plus, a_minus))
    povms = (proj, filter_povm(k), proj)
    for theta in (0.1, 0.7, 2.0):
        cond = condition(kd_distribution(imprinted_state(theta), povms), 1, 0)
        assert np.abs(cond.imag).max() < 1e-12
        assert cond.real.min() > -1e-10


def test_off_diagonal_negativity_with_noncommuting_filter():
    # Re of the cross term carries cos(theta) * (t^2 - 1) / (4 p): strictly
    # negative on the near quadrant whenever the filter actually filters
    for theta in (0.05, 0.4, 1.2, 1.5):
        for t in (0.0, 0.3, 0.9):
            table = imprinted_table(theta, t)
            assert table[0, 1].real < 0.0


# ---------------------------------------------------------------- gap = QFI/4


def test_gap_equality_on_the_working_point():
    gen = ppa_generator()
    res = verify_gap_equality(imprinted_state(0.2), gen, make_filter(0.5))
    assert abs(res.lhs - 3.7711148807566075) < 1e-9
    assert res.residual < 1e-12


def test_gap_equality_random_qubits():
    rng = np.random.default_rng(99)
    rho, gen, k = qubit_instances(rng, 100)
    assert verify_gap_equality(rho, gen, k).residual.max() < 1e-10


def per_instance_gap_equality(rng, n):
    """Reference for the qubit half of gap_equality_suite: the per-instance loop.

    Each instance draws theta, |t| and arg t with three scalar calls, builds
    its state with phase_unitary and its filter with make_filter, and
    evaluates the identity on 2x2 matrices: lhs from M = K+^dag K+ and
    np.trace, rhs by conditioning the (A, filter, A) quasidistribution on
    the pass outcome.  Both eigenspaces of sigma_x/2 carry every instance.
    Returns the lhs, rhs and residual arrays.
    """
    gen = ppa_generator()
    a, values, projectors = gen
    proj = povm(projectors)
    rows = []
    for _ in range(n):
        theta = float(rng.uniform(0.01, 3.1))
        mag = float(rng.uniform(0.01, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        k = make_filter(mag * complex(math.cos(phase), math.sin(phase)))
        rho = pure_state(phase_unitary(gen, theta) @ np.array([1.0, 0.0]))
        m = k.conj().T @ k
        p = np.trace(rho @ m).real
        lhs = (
            4.0 * np.trace(a @ rho @ a @ m).real / p
            - 4.0 * abs(np.trace(a @ rho @ m)) ** 2 / p**2
        )
        kd = kd_distribution(rho, (proj, filter_povm(k), proj))
        spread = values[-1] - values[0]
        rhs = 4.0 * spread**2 * nonclassicality_gap(condition(kd, 1, 0))
        rows.append((lhs, rhs, abs(lhs - rhs) / max(lhs, 1.0)))
    return np.array(rows).T


def test_one_uniform_call_draws_what_three_scalar_calls_draw():
    loop, batch = np.random.default_rng(11), np.random.default_rng(11)
    rows = [
        (
            loop.uniform(0.01, 3.1),
            loop.uniform(0.01, 1.0),
            loop.uniform(0.0, 2.0 * math.pi),
        )
        for _ in range(500)
    ]
    drawn = batch.uniform([0.01, 0.01, 0.0], [3.1, 1.0, 2.0 * math.pi], size=(500, 3))
    assert np.array_equal(drawn, np.array(rows))
    assert batch.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_batched_qubit_instances_match_the_per_instance_loop(seed):
    n = 1000
    loop = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    batch = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    lhs, rhs, residual = per_instance_gap_equality(loop, n)
    got = verify_gap_equality(*qubit_instances(batch, n))
    assert got.lhs.shape == got.rhs.shape == got.residual.shape == (n,)
    assert np.all(np.abs(got.lhs - lhs) <= 1e-12 * lhs)
    assert np.all(np.abs(got.rhs - rhs) <= 1e-12 * rhs)
    # a residual is rounding noise already scaled by max(lhs, 1): compare it
    # on that scale
    assert np.all(np.abs(got.residual - residual) <= 1e-12)
    # the stream is left where the loop leaves it, so the qudit instances
    # that the suite draws next are those of the loop
    assert batch.bit_generator.state == loop.bit_generator.state
    suite = gap_equality_suite(seed, n_qubit=n, n_qudit=200)
    assert suite.n_instances == 1200
    assert suite.max_residual >= got.residual.max()


def qubit_stack(n=5):
    """Five random qubit instances as one batch: states, generator, filters."""
    rho, gen, k = qubit_instances(np.random.default_rng(7), n)
    return np.array(rho), gen, np.array(k)


def test_batched_gap_equality_names_the_mixed_instance():
    mats, gen, k = qubit_stack()
    mats[3] = np.eye(2) / 2
    with pytest.raises(ValueError, match="instance 3: state purity"):
        verify_gap_equality(density_matrix(mats), gen, k)


def test_batched_gap_equality_names_the_unbalanced_instance():
    mats, gen, k = qubit_stack()
    a_plus, a_minus = plus_minus_states()
    k[2] = 0.4 * np.outer(a_plus, a_plus.conj()) + np.outer(a_minus, a_minus.conj())
    with pytest.raises(ValueError, match="instance 2: filter is unbalanced"):
        verify_gap_equality(density_matrix(mats), gen, k)


def test_batched_gap_equality_names_the_single_eigenspace_instance():
    mats, gen, k = qubit_stack()
    a_plus, _ = plus_minus_states()
    mats[1] = np.outer(a_plus, a_plus.conj())
    with pytest.raises(ValueError, match="instance 1: state is supported on 1 "):
        verify_gap_equality(density_matrix(mats), gen, k)


def test_batched_gap_equality_equals_its_instances():
    mats, gen, k = qubit_stack()
    got = verify_gap_equality(density_matrix(mats), gen, k)
    for i in range(len(mats)):
        one = verify_gap_equality(density_matrix(mats[i]), gen, k[i])
        assert np.ndim(one.lhs) == 0
        assert np.allclose(
            (got.lhs[i], got.rhs[i], got.residual[i]), one, rtol=1e-14, atol=1e-15
        )


def qudit_instance(z, middle, amp, rel, x, top_to):
    """Reference for random_qudit_instances: one instance built alone from its draws.

    The generator gets the eigenvalues -3, ``middle`` and 3 (distinct
    extremes, possibly degenerate middle) in the frame Q from the QR of z,
    the state is a superposition of the extreme eigenvectors, and the
    filter's pass element is the PSD matrix X X^dag balanced between the
    two supported eigenspaces by a diagonal congruence, then rescaled to a
    contraction whose largest eigenvalue is ``top_to``.
    """
    q, _ = np.linalg.qr(gaussian(z))
    d = len(q)
    eigs = np.sort(np.concatenate(([-3], middle, [3])))
    gen = spectral_generator(q, eigs)

    v_lo = q[:, 0]
    v_hi = q[:, -1]
    psi = math.sqrt(amp) * v_lo + math.sqrt(1.0 - amp) * np.exp(1j * rel) * v_hi
    rho = pure_state(psi)

    m = gaussian(x) @ gaussian(x).conj().T
    basis = np.column_stack(
        [v_lo] + [q[:, i] for i in range(1, d - 1)] + [v_hi]
    )
    mb = basis.conj().T @ m @ basis
    w_lo = (abs(psi @ basis[:, 0].conj()) ** 2) * mb[0, 0].real
    w_hi = (abs(psi @ basis[:, -1].conj()) ** 2) * mb[-1, -1].real
    scale = np.ones(d)
    s = (w_hi / w_lo) ** 0.25
    scale[0] = s
    scale[-1] = 1.0 / s
    mb = (scale[:, None] * mb) * scale[None, :]
    m = basis @ mb @ basis.conj().T
    m = (m + m.conj().T) / 2
    top = np.linalg.eigvalsh(m).max()
    m = m * (top_to / top)
    return rho, gen, psd_sqrt(m)


def suite_streams(seed, stream, skip_qubits=0):
    """Two identical suite streams, both advanced past ``skip_qubits`` qubit draws."""
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, stream))) for _ in range(2)]
    for rng in rngs:
        verify._qubit_draws(rng, skip_qubits)
    return rngs


@pytest.mark.parametrize("seed", range(4))
def test_batched_qudit_instances_match_the_per_instance_loop(seed, monkeypatch):
    # the qudit instances of the default suite (verify --n 1000): 200, drawn
    # after the 1000 qubit instances, in batches of at most 16 so that
    # every d needs more than one: runs of 16, 9, 5 and 4 rows at d = 3 ... 6
    monkeypatch.setattr(verify, "MAX_BATCH", 4)
    n = 200
    drawn, batch = suite_streams(seed, 1, skip_qubits=1000)
    refs = by_position(verify._qudit_draws(drawn, n), qudit_instance)
    groups = list(random_qudit_instances(batch, n))
    assert batch.bit_generator.state == drawn.bit_generator.state
    assert sorted(np.concatenate([pos for pos, *_ in groups]).tolist()) == list(range(n))
    dims = [rho.shape[-1] for _, rho, _, _ in groups]
    assert dims == sorted(dims) and set(dims) == {3, 4, 5, 6}
    assert all(dims.count(d) > 1 for d in dims)
    assert all(len(pos) <= 16 for pos, *_ in groups)
    wide_extreme = repeated_middle = 0
    for pos, rho, gen, k in groups:
        got = verify_gap_equality(rho, gen, k)
        assert got.residual.shape == pos.shape
        for j, i in enumerate(pos):
            ref_rho, ref_gen, ref_k = refs[i]
            values = np.round(ref_gen[1])
            assert np.abs(ref_gen[1] - values).max() <= 1e-12
            ref_proj = dict(zip(values.tolist(), ref_gen[2]))
            assert np.abs(rho[j] - ref_rho).max() <= 1e-12
            assert np.abs(gen[0][j] - ref_gen[0]).max() <= 1e-12
            # one slot per value -3 ... 3, shared by the batch: the reference
            # projector of that eigenvalue, or exactly zero where the
            # instance lacks it
            assert np.array_equal(gen[1], np.arange(-3.0, 4.0))
            for value, proj in zip(gen[1].tolist(), gen[2][j]):
                if value in ref_proj:
                    assert np.abs(proj - ref_proj[value]).max() <= 1e-12
                else:
                    assert np.all(proj == 0.0)
            assert np.abs(k[j] - ref_k).max() <= 1e-12
            ref = verify_gap_equality(ref_rho, ref_gen, ref_k)
            assert abs(got.residual[j] - ref.residual) <= 1e-12
            assert abs(got.lhs[j] - ref.lhs) <= 1e-12 * ref.lhs
            ranks = [round(np.trace(p).real) for p in ref_gen[2]]
            wide_extreme += ranks[0] > 1 or ranks[-1] > 1
            repeated_middle += any(r > 1 for r in ranks[1:-1])
    # degenerate spectra: a middle eigenvalue at -3 or 3, and a repeated
    # middle eigenvalue
    assert wide_extreme and repeated_middle


def test_random_suites_draw_every_d_then_each_parameter_per_d():
    # the stream layout of the qudit and marginalization draws, call by call
    n = 60
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    qudits = verify._qudit_draws(rng, n)
    dims = ref.integers(3, 7, size=n)
    assert [q[0] for q in qudits] == np.unique(dims).tolist()
    for d, pos, *params in qudits:
        m = len(pos)
        assert len(params[0][0, 0]) == d
        assert np.array_equal(pos, np.flatnonzero(dims == d))
        want = (
            ref.normal(size=(m, 2, d, d)),
            ref.integers(-3, 4, size=(m, d - 2)),
            ref.uniform(0.2, 0.8, size=m),
            ref.uniform(0.0, 2.0 * math.pi, size=m),
            ref.normal(size=(m, 2, d, d)),
            ref.uniform(0.3, 1.0, size=m),
        )
        assert all(np.array_equal(a, b) for a, b in zip(params, want))
    margs = verify._marginalization_draws(rng, n)
    dims = ref.integers(2, 5, size=n)
    n_out = ref.integers(2, 4, size=(n, 3))
    assert [g[0] for g in margs] == np.unique(dims).tolist()
    for d, pos, *params in margs:
        m = len(pos)
        assert len(params[1][0]) == d
        assert np.array_equal(pos, np.flatnonzero(dims == d))
        want = (
            n_out[pos],
            ref.dirichlet(np.ones(d), size=m),
            ref.normal(size=(m, 2, d, d)),
            ref.normal(size=(m, 3, 3, 2, d, d)),
        )
        assert all(np.array_equal(a, b) for a, b in zip(params, want))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_coarse_grained_table_keeps_the_pair_entries_and_the_norm(monkeypatch):
    # verify_gap_equality builds its (A, filter, A) table on the slots
    # (a_lo, a_hi, rest); the full seven-slot table has the same four pair
    # entries and the same pass-slice total
    tables = []

    def recording(rho, povms):
        tables.append(kd_distribution(rho, povms))
        return tables[-1]

    monkeypatch.setattr(quasiprob, "kd_distribution", recording)
    for pos, rho, gen, k in random_qudit_instances(np.random.default_rng(12), 200):
        tables.clear()
        verify_gap_equality(rho, gen, k)
        [coarse] = tables
        assert coarse.shape == (len(pos), 3, 2, 3)
        # the state is supported on the slots of -3 and 3, the first and last
        weights = np.einsum("niab,nba->ni", gen[2], rho).real
        assert np.array_equal(np.flatnonzero((weights > 1e-12).any(0)), [0, 6])
        proj = povm(gen[2])
        full = kd_distribution(rho, (proj, filter_povm(k), proj))[:, :, 0, :]
        assert full.shape == (len(pos), 7, 7)
        passed = coarse[:, :, 0, :]
        assert np.abs(passed[:, :2, :2] - full[:, [0, 6]][:, :, [0, 6]]).max() <= 1e-15
        assert np.abs(passed.sum((-2, -1)) - full.sum((-2, -1))).max() <= 1e-15


def qudit_residuals(seed, n):
    """Gap residuals of ``random_qudit_instances(default_rng(seed), n)``, in draw order."""
    gap = np.empty(n)
    for pos, rho, gen, k in random_qudit_instances(np.random.default_rng(seed), n):
        gap[pos] = verify_gap_equality(rho, gen, k).residual
    return gap


def suite_qubit_residuals(seed, n, monkeypatch):
    """Gap residuals of the qubit instances of ``gap_equality_suite(seed, n, 1)``."""
    got = []

    def recording(*instances):
        res = verify_gap_equality(*instances)
        got.append(res.residual)
        return res

    monkeypatch.setattr(verify, "verify_gap_equality", recording)
    gap_equality_suite(seed, n_qubit=n, n_qudit=1)
    monkeypatch.setattr(verify, "verify_gap_equality", verify_gap_equality)
    return np.concatenate(got)[:n]


@pytest.mark.parametrize("d, rows", [(2, 1152), (3, 512), (4, 288), (5, 184), (6, 128)])
def test_runs_hold_as_many_matrix_entries_as_max_batch_six_level_instances(d, rows):
    # a d-level group is cut at MAX_BATCH * 36 // d**2 rows, at least one
    assert rows == max(1, verify.MAX_BATCH * 36 // d**2)
    pos = np.arange(2 * rows + 1)
    runs = list(verify._runs([(d, pos, -pos)]))
    assert [len(p) for p, _ in runs] == [rows, rows, 1]
    assert all(np.array_equal(p, -q) for p, q in runs)
    assert np.array_equal(np.concatenate([p for p, _ in runs]), pos)


def test_runs_keep_at_least_one_row(monkeypatch):
    # 1 * 36 // 7**2 is 0
    monkeypatch.setattr(verify, "MAX_BATCH", 1)
    runs = list(verify._runs([(7, np.arange(3))]))
    assert [len(p) for p, in runs] == [1, 1, 1]


@pytest.mark.parametrize("max_batch", [1, 7, 16, verify.MAX_BATCH])
def test_batch_size_does_not_change_any_residual(max_batch, monkeypatch):
    n = 40
    n_qubit = 1200  # more than one qubit run (1152) of the default MAX_BATCH

    def residuals():
        gap = qudit_residuals(5, n)
        marg = np.empty(n)
        for pos, rho, povms in random_marginalization_instances(
            np.random.default_rng(6), n
        ):
            marg[pos] = _marginalization_residual(rho, povms)
        return gap, marg

    gap, marg = residuals()
    # the suite's qubits as one stack, whatever MAX_BATCH is
    qubit = verify_gap_equality(
        *qubit_instances(suite_streams(3, 1)[0], n_qubit)
    ).residual
    monkeypatch.setattr(verify, "MAX_BATCH", max_batch)
    got_gap, got_marg = residuals()
    # every POVM has three outcome slots and every generator seven,
    # whatever its batch: bit for bit
    assert np.array_equal(got_marg, marg)
    assert np.array_equal(got_gap, gap)
    assert np.array_equal(suite_qubit_residuals(3, n_qubit, monkeypatch), qubit)


def test_gap_equality_suite_memory_is_bounded_for_many_qubits():
    # the qubits are built and checked in runs of MAX_BATCH, so the peak does
    # not grow with their number; one stack of 20 000 peaks at about 18 MiB
    gap_equality_suite(0, n_qubit=10, n_qudit=1)  # first-call caches
    tracemalloc.start()
    try:
        gap_equality_suite(0, n_qubit=20000, n_qudit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("seed", range(4))
def test_batch_size_does_not_change_any_qudit_residual_of_the_suite(seed, monkeypatch):
    # 200 qudit instances, the suite's default count, in batches of 128, 16, 7, 1
    gap = qudit_residuals(seed, 200)
    for max_batch in (1, 7, 16):
        monkeypatch.setattr(verify, "MAX_BATCH", max_batch)
        assert np.array_equal(qudit_residuals(seed, 200), gap)


def test_gap_equality_random_qudits():
    groups = random_qudit_instances(np.random.default_rng(100), 40)
    for _, rho, gen, k in groups:
        assert verify_gap_equality(rho, gen, k).residual.max() < 1e-10


def qudit_group():
    """The d = 4 group of some random qudit instances, as writable arrays."""
    [(pos, rho, gen, k)] = [g for g in random_qudit_instances(np.random.default_rng(3), 40)
                            if g[1].shape[-1] == 4]
    assert len(pos) >= 4
    return np.array(rho), gen, np.array(k)


def test_gap_equality_on_a_generator_stack_names_the_unsupported_instance():
    mats, gen, k = qudit_group()
    # an eigenvector of the generator's lowest eigenspace alone
    w, v = np.linalg.eigh(gen[0][2])
    mats[2] = np.outer(v[:, 0], v[:, 0].conj())
    with pytest.raises(ValueError, match="^instance 2: state is supported on 1 "):
        verify_gap_equality(density_matrix(mats), gen, k)


def test_gap_equality_on_a_generator_stack_names_the_unbalanced_instance():
    mats, gen, k = qudit_group()
    k[1] = np.diag([0.3, 0.6, 0.8, 0.9])
    with pytest.raises(ValueError, match="^instance 1: filter is unbalanced"):
        verify_gap_equality(density_matrix(mats), gen, k)


def test_gap_equality_on_a_generator_stack_equals_its_instances():
    mats, gen, k = qudit_group()
    got = verify_gap_equality(density_matrix(mats), gen, k)
    for i in range(len(mats)):
        one = verify_gap_equality(
            density_matrix(mats[i]),
            generator(gen[0][i], gen[1], gen[2][i]),
            k[i],
        )
        assert (got.lhs[i], got.rhs[i], got.residual[i]) == one


def test_gap_equality_degenerate_four_level():
    # explicit d=4 instance with a doubly degenerate middle eigenvalue
    gen = generator(
        mat=np.diag([-1.0, 0.0, 0.0, 2.0]),
        eigenvalues=[-1.0, 0.0, 2.0],
        projectors=[np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 1.0, 0]),
                    np.diag([0, 0, 0, 1.0])],
    )
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.sqrt(0.5)
    psi[3] = math.sqrt(0.5) * np.exp(0.3j)
    rho = pure_state(psi)
    m = np.diag([0.09, 0.5, 0.5, 0.09]).astype(complex)
    res = verify_gap_equality(rho, gen, psd_sqrt(m))
    assert res.residual < 1e-12


def test_gap_equality_rejects_single_eigenspace_support():
    gen = ppa_generator()
    a_plus, _ = plus_minus_states()
    with pytest.raises(
        ValueError, match="^state is supported on 1 generator eigenspaces, need 2$"
    ):
        verify_gap_equality(pure_state(a_plus), gen, make_filter(0.5))


def test_gap_equality_rejects_unbalanced_filter():
    gen = ppa_generator()
    a_plus, a_minus = plus_minus_states()
    lopsided = 0.4 * np.outer(a_plus, a_plus.conj()) + np.outer(a_minus, a_minus.conj())
    with pytest.raises(ValueError, match=(
        r"^filter is unbalanced across the supported eigenspaces "
        r"\(5\.000e-01 vs 8\.000e-02\)$"
    )):
        verify_gap_equality(imprinted_state(0.2), gen, lopsided)


def test_gap_equality_rejects_mixed_state():
    gen = ppa_generator()
    with pytest.raises(
        ValueError, match=r"^state purity 0\.5000000000; formula requires a pure state$"
    ):
        verify_gap_equality(
            density_matrix(np.eye(2) / 2), gen, make_filter(0.5)
        )


# ----------------------------------------------------------------- interfaces


def test_non_contracting_filter_is_rejected():
    k = np.diag([1.2, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="not PSD"):
        filter_povm(k)
    with pytest.raises(ValueError, match="not PSD"):
        verify_gap_equality(imprinted_state(0.2), ppa_generator(), k)

import copy
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from ppasim.bench import postselected_bloch
from ppasim.cli import SweepSpec
from ppasim.fisher import qfi_postselected_pure
from ppasim.quasiprob import filter_povm
from ppasim.states import (
    _MM_CROSSOVER,
    _mm,
    _reject,
    amplified_angle,
    make_filter,
    phase_unitary,
    ppa_generator,
    pure_state,
    ID2,
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
)

from matrix_reference import (
    bloch_vector,
    density_matrix,
    generator,
    psd_sqrt,
    spectral_generator,
)

RNG = np.random.default_rng(1234)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def random_generator(rng, d):
    """A generator in a random frame with d normal eigenvalues."""
    return spectral_generator(random_unitary(rng, d), rng.normal(size=d))


def stacked(gens):
    """One generator stack of generators of one shape, checked."""
    return generator(*(np.stack(arrays) for arrays in zip(*gens)))


def imprinted(theta):
    """U(theta - pi) |1><1| U^dag for the generator sigma_x / 2."""
    u = phase_unitary(ppa_generator(), theta - math.pi)
    return density_matrix(u @ pure_state(E1) @ u.conj().T)


def purity(rho):
    return np.einsum("...ij,...ji->...", rho, rho).real


# ------------------------------------------- the reference validators' rules


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        density_matrix(0.7 * ID2)


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        density_matrix(np.diag([1.3, -0.3]).astype(complex))


def test_reject_raises_at_the_first_true_entry_with_its_instance():
    # a Python bool and a NumPy bool scalar are masks with no batch axes, as
    # is a 0-d array; one axis names "instance k", more name the index tuple,
    # and each value is formatted at that entry
    for mask in (True, np.True_, np.array(True)):
        with pytest.raises(ValueError) as exc:
            _reject(mask, "t = {:.1f} too large", 1.5)
        assert str(exc.value) == "t = 1.5 too large"
    values = np.arange(6.0)
    with pytest.raises(ValueError) as exc:
        _reject(np.array([False, False, True, False, True, False]), "t = {}", values)
    assert str(exc.value) == "instance 2: t = 2.0"
    with pytest.raises(ValueError) as exc:
        _reject(values.reshape(2, 3) > 3.5, "t = {}", values.reshape(2, 3))
    assert str(exc.value) == "instance (1, 1): t = 4.0"
    for mask in (False, np.False_, np.array(False), np.zeros(3, bool), np.zeros((2, 3), bool)):
        assert _reject(mask, "never {}", values) is None


def test_density_matrix_stack_names_the_failing_instance():
    good = pure_state(E0)
    stack = density_matrix(np.stack([good, ID2 / 2, good]))
    assert stack.shape == (3, 2, 2)
    assert np.allclose(purity(stack), [1.0, 0.5, 1.0])
    cases = (
        (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
        (0.7 * ID2, "trace"),
        (np.diag([1.3, -0.3]), "negative eigenvalue"),
    )
    for bad, what in cases:
        with pytest.raises(ValueError, match=f"instance 2: density matrix .*{what}"):
            density_matrix(np.stack([good, good, bad]))
    with pytest.raises(ValueError, match="instance 1: cannot normalize"):
        pure_state([[1.0, 0.0], [0.0, 0.0]])


def test_generator_rejects_non_hermitian():
    # no real spectrum rebuilds a non-Hermitian matrix, not even the spectrum
    # of its Hermitian part, here sigma_x / 2
    _, values, projectors = ppa_generator()
    with pytest.raises(
        ValueError, match="^spectral decomposition does not reproduce the generator$"
    ):
        generator([[0.0, 1.0], [0.0, 0.0]], values, projectors)


def test_generator_spectral_reconstruction():
    for _ in range(20):
        d = int(RNG.integers(2, 7))
        # integer eigenvalues, so some eigenspaces have more than one dimension
        values = RNG.integers(-2, 3, size=d).astype(float)
        mat, eigenvalues, projectors = spectral_generator(random_unitary(RNG, d), values)
        rebuilt = sum(a * p for a, p in zip(eigenvalues, projectors))
        assert np.abs(rebuilt - mat).max() < 1e-10
        for a, p in zip(eigenvalues, projectors):
            assert np.abs(p @ p - p).max() < 1e-10
            assert round(np.trace(p).real) == np.count_nonzero(values == a)


def test_ppa_generator_is_its_exact_spectrum():
    _, eigenvalues, projectors = ppa_generator()
    assert eigenvalues.tolist() == [-0.5, 0.5]
    assert np.array_equal(projectors, [(ID2 - SIGMA_X) / 2, (ID2 + SIGMA_X) / 2])
    generator(*ppa_generator())  # the reference rules hold


def test_generator_built_directly_rejects_projectors_that_are_not_a_povm():
    # every set reproduces diag(0, 1) as sum_i a_i P_i; the bad ones sum to
    # diag(1, 2), or to 1 with a zero-weight slot that is not PSD
    mat = np.diag([0.0, 1.0])
    cases = [
        ([0.0, 1.0], [np.diag([1.0, 0.0]), mat], [np.eye(2), mat],
         "POVM elements do not sum to the identity within 1e-10"),
        ([0.0, 0.0, 1.0], [np.diag([1.0, 0.0]), np.zeros((2, 2)), mat],
         [np.diag([1.0, 0.5]), np.diag([0.0, -0.5]), mat],
         "POVM element is not PSD within 1e-10"),
    ]
    for values, good, bad, message in cases:
        generator(mat, values, good)
        with pytest.raises(ValueError, match=f"^{message}$"):
            generator(mat, values, bad)
        with pytest.raises(ValueError, match=f"^instance 1: {message}$"):
            generator([mat, mat], [values] * 2, [good, bad])


def test_generator_built_directly_rejects_a_non_finite_spectrum():
    good = generator(SIGMA_Z / 2, [-0.5, 0.5], [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
    mat, eigenvalues, projectors = good
    with pytest.raises(ValueError, match="^spectral decomposition does not"):
        generator(mat, [-0.5, np.nan], projectors)
    with pytest.raises(ValueError, match="^spectral decomposition does not"):
        generator(np.diag([0.5, np.nan]), eigenvalues, projectors)


@pytest.mark.parametrize(
    "make", [lambda: SweepSpec(theta_list=[0.1, 1], seed=4)], ids=["SweepSpec"]
)
def test_holders_are_read_only_compare_by_identity_and_round_trip(make):
    # SweepSpec is the one holder class left (states, generators and POVMs
    # are arrays): it is read-only, compares and hashes by value, and
    # survives pickle and copy
    obj, twin = make(), make()
    assert obj == twin and hash(obj) == hash(twin)
    name = obj._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert copied is not obj
        assert type(copied) is type(obj) and copied == obj


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
def test_pure_state_rejects_non_finite_vectors(bad):
    message = "state vector is not finite"
    with pytest.raises(ValueError, match=f"^{message}$"):
        pure_state([1.0, bad])
    with pytest.raises(ValueError, match=f"^instance 2: {message}$"):
        pure_state([[1.0, 0.0], [0.0, 1.0], [bad, 0.0]])


def test_pure_state_rejects_a_norm_that_overflows():
    with pytest.raises(ValueError, match="^instance 1: state vector norm overflows$"):
        with np.errstate(over="ignore"):
            pure_state([[1.0, 0.0], [1e200, 1e200]])


def test_generator_stack_names_the_non_hermitian_instance():
    mat, eigenvalues, projectors = stacked([random_generator(RNG, 3) for _ in range(4)])
    mats = np.array(mat)
    mats[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="^instance 2: spectral decomposition"):
        generator(mats, eigenvalues, projectors)


def test_generator_stack_names_the_instance_it_cannot_rebuild():
    mat, eigenvalues, projectors = stacked([random_generator(RNG, 3) for _ in range(3)])
    values = np.array(eigenvalues)
    values[1, 0] += 1e-3
    with pytest.raises(ValueError, match="^instance 1: spectral decomposition"):
        generator(mat, values, projectors)


def test_psd_sqrt_stack_squares_back_and_names_the_negative_instance():
    # the rule of states._spectral_sqrt, which makes verify's qudit filters,
    # through the reference's psd_sqrt
    x = RNG.normal(size=(5, 3, 3)) + 1j * RNG.normal(size=(5, 3, 3))
    m = x @ x.conj().swapaxes(-1, -2)
    root = psd_sqrt(m)
    assert np.abs(root @ root - m).max() < 1e-12
    for i in range(5):
        assert np.abs(root[i] - psd_sqrt(m[i])).max() < 1e-14
    m[3] = -m[3]
    with pytest.raises(ValueError, match="^instance 3: matrix is not PSD"):
        psd_sqrt(m)


def test_ppa_generator_is_one_read_only_instance():
    gen = ppa_generator()
    assert ppa_generator() is gen
    assert np.array_equal(gen[0], SIGMA_X / 2)
    for arr in gen:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ------------------------------------------------------------- phase_unitary


def test_phase_unitary_zero_is_identity():
    u = phase_unitary(ppa_generator(), 0.0)
    assert np.abs(u - ID2).max() < 1e-15


def test_phase_unitary_at_pi_over_generator_spread():
    # exp(i pi sigma_x / 2) = i sigma_x, exp(i 2pi sigma_x / 2) = -1
    u = phase_unitary(ppa_generator(), math.pi)
    assert np.abs(u - 1j * SIGMA_X).max() < 1e-12
    u2 = phase_unitary(ppa_generator(), 2 * math.pi)
    assert np.abs(u2 + ID2).max() < 1e-12


def test_phase_unitary_matches_expm():
    for _ in range(15):
        d = int(RNG.integers(2, 6))
        gen = random_generator(RNG, d)
        theta = float(RNG.uniform(-4, 4))
        expected = scipy.linalg.expm(1j * theta * gen[0])
        got = phase_unitary(gen, theta)
        assert np.abs(got - expected).max() < 1e-10


def test_phase_unitary_of_a_generator_stack_is_per_instance():
    # instances that share their eigenspace multiplicities, 1, 2 and 1
    spectra = ([-2.0, 0.5, 0.5, 3.0], [0.0, 1.0, 1.0, 3.0], [-1.0, 2.0, 2.0, 2.5])
    gens = [spectral_generator(random_unitary(RNG, 4), w) for w in spectra]
    got = phase_unitary(stacked(gens), 0.7)
    assert got.shape == (3, 4, 4)
    for i, gen in enumerate(gens):
        one = phase_unitary(gen, 0.7)
        assert np.abs(got[i] - one).max() < 1e-14
        assert np.abs(got[i] - scipy.linalg.expm(0.7j * gen[0])).max() < 1e-10


def test_phase_unitary_is_unitary():
    for _ in range(10):
        u = phase_unitary(random_generator(RNG, 4), float(RNG.uniform(-9, 9)))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_phase_unitary_population_follows_half_angle():
    # vertical input, generator sigma_x/2, phase theta - pi: the |0>
    # population of the imprinted state is cos^2(theta/2)
    for theta in (0.0, 0.1, 0.5, 1.0, 2.0):
        pop0 = imprinted(theta)[0, 0].real
        assert abs(pop0 - math.cos(theta / 2) ** 2) < 1e-12


def test_phase_unitary_preserves_purity():
    rho = pure_state(RNG.normal(size=3) + 1j * RNG.normal(size=3))
    u = phase_unitary(random_generator(RNG, 3), 0.7)
    assert abs(purity(density_matrix(u @ rho @ u.conj().T)) - 1.0) < 1e-12


# --------------------------------------------------------------- make_filter


def fail_element(t):
    return filter_povm(make_filter(t))[1]


def test_make_filter_limits():
    assert np.abs(make_filter(1.0) - ID2).max() < 1e-12
    assert np.abs(fail_element(1.0)).max() < 1e-12
    assert np.abs(make_filter(0.0) - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(fail_element(0.0) - np.diag([1.0, 0.0])).max() < 1e-12


def test_make_filter_half_transmission():
    assert np.abs(fail_element(0.5) - np.diag([0.75, 0.0])).max() < 1e-12


def test_make_filter_completeness_for_complex_t():
    for _ in range(20):
        t = RNG.uniform(0, 1) * np.exp(1j * RNG.uniform(0, 2 * math.pi))
        k = make_filter(t)
        total = k.conj().T @ k + fail_element(t)
        assert np.abs(total - ID2).max() < 1e-10


def test_make_filter_is_read_only_diagonal_for_complex_t():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        k = make_filter(t)
        assert k.dtype == complex
        assert np.array_equal(k, np.diag([t, 1.0]))
        with pytest.raises(ValueError):
            k[0, 0] = 0.0


def test_make_filter_rejects_amplifying_t():
    with pytest.raises(ValueError):
        make_filter(1.2)


# ---------------------------------------------------------------- postselect


def postselected(theta, t):
    """Postselected Bloch vector and survival of the ideal bench at (theta, t)."""
    return postselected_bloch(theta, t, 0.0, 1.0)


def test_postselect_survival_probability_closed_form():
    # p = t^2 cos^2(theta/2) + sin^2(theta/2) for the imprinted pure state
    for theta in (0.01, 0.04, 0.2, 1.0, 2.5):
        for t in (0.044, 0.3, 0.9):
            _, p = postselected(theta, t)
            expected = t**2 * math.cos(theta / 2) ** 2 + math.sin(theta / 2) ** 2
            assert abs(p - expected) < 1e-12


def test_postselect_frozen_value():
    _, p = postselected(0.040, 0.044)
    assert abs(p - 0.0023351723727588563) < 1e-15
    assert abs(p - 2.3352e-3) < 1e-7


def test_postselect_branch_probabilities_sum_to_one():
    for _ in range(10):
        t = RNG.uniform(0, 1) * np.exp(1j * RNG.uniform(0, 2 * math.pi))
        rho = pure_state(RNG.normal(size=2) + 1j * RNG.normal(size=2))
        k = make_filter(t)
        p_plus = np.trace(k @ rho @ k.conj().T).real
        p_minus = np.trace(fail_element(t) @ rho).real
        assert abs(p_plus + p_minus - 1.0) < 1e-10


def test_postselect_zero_probability_raises():
    # fully blocking filter on a state entirely in the blocked mode: the
    # postselected QFI has nothing to condition on
    with pytest.raises(ValueError, match="^postselection probability vanished$"):
        qfi_postselected_pure(pure_state(E0), ppa_generator()[0], make_filter(0.0))


def test_postselected_state_matches_amplified_superposition():
    # surviving state should be cos(Theta/2)|0> + i sin(Theta/2)|1>
    for theta in (0.02, 0.1, 0.4, 1.2):
        for t in (0.1, 0.5, 0.9):
            r, _ = postselected(theta, t)
            big = amplified_angle(theta, t)
            target = pure_state(
                np.array([math.cos(big / 2), 1j * math.sin(big / 2)])
            )
            assert np.abs(r - bloch_vector(target)).max() < 1e-12


# ----------------------------------------------------------- amplified_angle


def test_amplified_angle_identity_at_t_one():
    for theta in (-1.0, 0.0, 0.3, 2.0):
        assert abs(amplified_angle(theta, 1.0) - theta) < 1e-14


def test_amplified_angle_frozen_value():
    assert abs(amplified_angle(0.040, 0.044) - 0.8533554566561224) < 1e-14


def test_amplified_angle_right_angle_when_tangent_matches_t():
    for t in (0.1, 0.4, 0.8):
        theta = 2 * math.atan(t)
        assert abs(amplified_angle(theta, t) - math.pi / 2) < 1e-12


def test_amplified_angle_monotone_in_theta():
    thetas = np.linspace(-2.5, 2.5, 101)
    values = [amplified_angle(th, 0.2) for th in thetas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_amplified_angle_rejects_t_above_one():
    # the map is defined for 0 < t <= 1, the range of optimal_measurement
    for t in (1.5, 0.0):
        with pytest.raises(ValueError, match="0 < t_mag <= 1"):
            amplified_angle(0.1, t)


# ----------------------------------------------------------------- Bloch map


def test_bloch_round_trip():
    for _ in range(25):
        r = RNG.normal(size=3)
        r *= RNG.uniform(0, 1) / np.linalg.norm(r)
        rho = density_matrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)
        assert np.abs(bloch_vector(rho) - r).max() < 1e-12


def test_bloch_literals():
    assert np.abs(bloch_vector(pure_state(E0)) - [0, 0, 1]).max() < 1e-14
    plus = pure_state(np.array([1.0, 1.0]))
    assert np.abs(bloch_vector(plus) - [1, 0, 0]).max() < 1e-14
    circ = pure_state(np.array([1.0, 1j]))
    assert np.abs(bloch_vector(circ) - [0, 1, 0]).max() < 1e-14


def test_bloch_rejects_qutrit():
    rho3 = density_matrix(np.eye(3) / 3)
    with pytest.raises(ValueError):
        bloch_vector(rho3)


def test_bloch_rejects_long_vector():
    # |r| > 1 gives (1 + r . sigma)/2 a negative eigenvalue
    r = np.array([0.8, 0.8, 0.8])
    with pytest.raises(ValueError):
        density_matrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)


# ------------------------------------------------------------ amplified states


def test_amplified_states_lie_in_the_yz_plane():
    # for real t the postselected family has x = 0, and its polar angle is
    # the amplified angle
    for theta in (0.05, 0.3, 1.1):
        (x, y, z), _ = postselected(theta, 0.3)
        assert abs(x) < 1e-12
        big = amplified_angle(theta, 0.3)
        assert abs(math.atan2(abs(y), z) - big) < 1e-12


# ------------------------------------------------------ small-matrix products


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mm_is_matmul_in_every_broadcast_pattern_src_uses(d):
    # each product is a @ b to 1e-15 |a| |b| (Frobenius norms per instance);
    # above the crossover it is a @ b itself
    rng = np.random.default_rng(d)
    stack = lambda *lead: complex_normal(rng, *lead, d, d)
    patterns = [
        (stack(40), stack(40)),                    # two stacks (sld, verify builders)
        (stack(), stack(40)),                      # a shared 2-D operand on the left
        (stack(40), stack()),                      # and on the right (cfi, sld_axis)
        (stack(3, 1, 2), stack(3, 5, 1)),          # kd_distribution's outcome axes
        (stack(6, 1), stack(6, 3)),                # _random_povms' congruence
        (stack(30).conj().swapaxes(-1, -2), stack(30)),  # strided adjoints
        (stack(30).real, stack(30)),               # a real factor
        (complex_normal(rng, 20, d, 2), complex_normal(rng, 20, 2, d)),  # eigenspaces
    ]
    for a, b in patterns:
        got, want = _mm(a, b), a @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        scale = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
        assert (np.abs(got - want).max((-2, -1)) <= 1e-15 * scale).all()
        if a.shape[-1] > _MM_CROSSOVER:
            assert np.array_equal(got, want)

import copy
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from ppasim.bench import postselected_bloch
from ppasim.cli import SweepSpec
from ppasim.fisher import PPAFamily, qfi_postselected_pure
from ppasim.quasiprob import POVM, filter_povm
from ppasim.states import (
    DensityMatrix,
    Generator,
    InvalidGeneratorError,
    ZeroProbabilityError,
    amplified_angle,
    make_filter,
    phase_unitary,
    ppa_generator,
    psd_sqrt,
    pure_state,
    ID2,
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
)

from matrix_reference import bloch_vector

RNG = np.random.default_rng(1234)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def random_hermitian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (h + h.conj().T) / 2


def imprinted(theta):
    """U(theta - pi) |1><1| U^dag for the generator sigma_x / 2."""
    u = phase_unitary(ppa_generator(), theta - math.pi)
    return DensityMatrix(u @ pure_state(E1).mat @ u.conj().T)


# ---------------------------------------------------------------- validation


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(0.7 * ID2)


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.3, -0.3]).astype(complex))


def test_density_matrix_stack_names_the_failing_instance():
    good = pure_state(E0).mat
    stack = DensityMatrix(np.stack([good, ID2 / 2, good]))
    assert stack.dim == 2
    assert np.allclose(stack.purity(), [1.0, 0.5, 1.0])
    cases = (
        (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
        (0.7 * ID2, "trace"),
        (np.diag([1.3, -0.3]), "negative eigenvalue"),
    )
    for bad, what in cases:
        with pytest.raises(ValueError, match=f"instance 2: density matrix .*{what}"):
            DensityMatrix(np.stack([good, good, bad]))
    with pytest.raises(ValueError, match="instance 1: cannot normalize"):
        pure_state([[1.0, 0.0], [0.0, 0.0]])


def test_density_matrix_is_read_only():
    rho = pure_state(E0)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.0


def test_generator_rejects_non_hermitian():
    with pytest.raises(InvalidGeneratorError):
        Generator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_generator_spectral_reconstruction():
    for _ in range(20):
        d = int(RNG.integers(2, 7))
        h = random_hermitian(RNG, d)
        gen = Generator.from_matrix(h)
        rebuilt = sum(a * p for a, p in zip(gen.eigenvalues, gen.projectors))
        assert np.abs(rebuilt - h).max() < 1e-10
        for p in gen.projectors:
            assert np.abs(p @ p - p).max() < 1e-10


def test_generator_groups_degenerate_eigenvalues():
    gen = Generator.from_matrix(np.diag([-1.0, 0.0, 0.0, 2.0]))
    assert list(gen.eigenvalues) == [-1.0, 0.0, 2.0]
    assert [int(round(np.trace(p).real)) for p in gen.projectors] == [1, 2, 1]
    assert gen.eigenvalues[-1] - gen.eigenvalues[0] == 3.0


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def test_generator_stack_names_the_instance_with_other_multiplicities():
    # two eigenspaces of two in instances 0 and 1, four of one in instance 2
    spectra = ([-1.0, -1.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0], [-2.0, 0.5, 1.0, 3.0])
    frames = [random_unitary(RNG, 4) for _ in spectra]
    mats = np.array([(q * w) @ q.conj().T for q, w in zip(frames, spectra)])
    with pytest.raises(
        InvalidGeneratorError,
        match="^instance 2: eigenspace multiplicities differ from those of the first",
    ):
        Generator.from_matrix(mats)


def test_generator_built_directly_is_read_only():
    gen = Generator(
        mat=SIGMA_Z / 2,
        eigenvalues=[-0.5, 0.5],
        projectors=np.array([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]),
    )
    for arr in (gen.mat, gen.eigenvalues, gen.projectors):
        assert not arr.flags.writeable


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
        Generator(mat=mat, eigenvalues=values, projectors=good)
        with pytest.raises(InvalidGeneratorError, match=f"^{message}$"):
            Generator(mat=mat, eigenvalues=values, projectors=bad)
        with pytest.raises(InvalidGeneratorError, match=f"^instance 1: {message}$"):
            Generator(mat=[mat, mat], eigenvalues=[values] * 2, projectors=[good, bad])


def test_generator_built_directly_rejects_a_non_finite_spectrum():
    good = Generator.from_matrix(SIGMA_Z / 2)
    with pytest.raises(InvalidGeneratorError, match="^spectral decomposition does not"):
        Generator(mat=good.mat, eigenvalues=[-0.5, np.nan], projectors=good.projectors)
    with pytest.raises(InvalidGeneratorError, match="^spectral decomposition does not"):
        Generator(mat=np.diag([0.5, np.nan]), eigenvalues=good.eigenvalues,
                  projectors=good.projectors)


def assert_same_contents(x, y):
    """Equal values, slot by slot for a holder, and read-only arrays in ``y``."""
    assert type(x) is type(y)
    if isinstance(x, np.ndarray):
        assert np.array_equal(x, y)
        assert not y.flags.writeable
    elif isinstance(x, tuple) or not hasattr(type(x), "__slots__"):
        assert x == y
    else:
        for name in type(x).__slots__:
            assert_same_contents(getattr(x, name), getattr(y, name))


HOLDERS = {
    "DensityMatrix": lambda: DensityMatrix(np.diag([0.75, 0.25])),
    "Generator": lambda: Generator.from_matrix(SIGMA_X / 2),
    "POVM": lambda: POVM(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])),
    "PPAFamily": lambda: PPAFamily(0.3, 0.9),
    "SweepSpec": lambda: SweepSpec(theta_list=[0.1, 1], seed=4),
}


@pytest.mark.parametrize("make", HOLDERS.values(), ids=HOLDERS.keys())
def test_holders_are_read_only_compare_by_identity_and_round_trip(make):
    obj, twin = make(), make()
    # the array holders compare and hash by identity; a SweepSpec by value
    by_value = isinstance(obj, SweepSpec)
    assert obj == obj
    assert (obj == twin) is by_value
    assert (hash(obj) == hash(twin)) is by_value
    name = (obj._fields if by_value else type(obj).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert copied is not obj
        assert_same_contents(obj, copied)


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
    mats = np.array([random_hermitian(RNG, 3) for _ in range(4)])
    mats[2, 0, 1] += 1e-6
    with pytest.raises(InvalidGeneratorError, match="^instance 2: generator must be Hermitian"):
        Generator.from_matrix(mats)


def test_generator_stack_names_the_instance_it_cannot_rebuild():
    gen = Generator.from_matrix(np.array([random_hermitian(RNG, 3) for _ in range(3)]))
    values = np.array(gen.eigenvalues)
    values[1, 0] += 1e-3
    with pytest.raises(InvalidGeneratorError, match="^instance 1: spectral decomposition"):
        Generator(mat=gen.mat, eigenvalues=values, projectors=gen.projectors)


def test_psd_sqrt_stack_squares_back_and_names_the_negative_instance():
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
    assert np.array_equal(gen.mat, SIGMA_X / 2)
    for arr in (gen.mat, gen.eigenvalues, gen.projectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ------------------------------------------------------------- phase_unitary


def test_phase_unitary_zero_is_identity():
    u = phase_unitary(ppa_generator(), 0.0)
    assert np.abs(u - ID2).max() < 1e-15


def test_phase_unitary_at_pi_over_generator_spread():
    # exp(i pi sigma_x / 2) = i sigma_x, exp(i 2pi sigma_x / 2) = -1
    u = phase_unitary(Generator.from_matrix(SIGMA_X / 2), math.pi)
    assert np.abs(u - 1j * SIGMA_X).max() < 1e-12
    u2 = phase_unitary(Generator.from_matrix(SIGMA_X / 2), 2 * math.pi)
    assert np.abs(u2 + ID2).max() < 1e-12


def test_phase_unitary_matches_expm():
    for _ in range(15):
        d = int(RNG.integers(2, 6))
        h = random_hermitian(RNG, d)
        theta = float(RNG.uniform(-4, 4))
        expected = scipy.linalg.expm(1j * theta * h)
        got = phase_unitary(Generator.from_matrix(h), theta)
        assert np.abs(got - expected).max() < 1e-10


def test_phase_unitary_of_a_generator_stack_is_per_instance():
    # instances that share their eigenspace multiplicities, 1, 2 and 1
    spectra = ([-2.0, 0.5, 0.5, 3.0], [0.0, 1.0, 1.0, 3.0], [-1.0, 2.0, 2.0, 2.5])
    mats = []
    for w in spectra:
        q = random_unitary(RNG, 4)
        mats.append((q * w) @ q.conj().T)
    got = phase_unitary(Generator.from_matrix(np.array(mats)), 0.7)
    assert got.shape == (3, 4, 4)
    for i, mat in enumerate(mats):
        one = phase_unitary(Generator.from_matrix(mat), 0.7)
        assert np.abs(got[i] - one).max() < 1e-14
        assert np.abs(got[i] - scipy.linalg.expm(0.7j * mat)).max() < 1e-10


def test_phase_unitary_is_unitary():
    for _ in range(10):
        h = random_hermitian(RNG, 4)
        u = phase_unitary(Generator.from_matrix(h), float(RNG.uniform(-9, 9)))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_phase_unitary_rejects_non_hermitian():
    with pytest.raises(InvalidGeneratorError):
        phase_unitary(Generator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), 0.3)


def test_phase_unitary_population_follows_half_angle():
    # vertical input, generator sigma_x/2, phase theta - pi: the |0>
    # population of the imprinted state is cos^2(theta/2)
    for theta in (0.0, 0.1, 0.5, 1.0, 2.0):
        pop0 = imprinted(theta).mat[0, 0].real
        assert abs(pop0 - math.cos(theta / 2) ** 2) < 1e-12


def test_phase_unitary_preserves_purity():
    rho = pure_state(RNG.normal(size=3) + 1j * RNG.normal(size=3))
    u = phase_unitary(Generator.from_matrix(random_hermitian(RNG, 3)), 0.7)
    assert abs(DensityMatrix(u @ rho.mat @ u.conj().T).purity() - 1.0) < 1e-12


# --------------------------------------------------------------- make_filter


def fail_element(t):
    return filter_povm(make_filter(t)).stack[1]


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
        p_plus = np.trace(k @ rho.mat @ k.conj().T).real
        p_minus = np.trace(fail_element(t) @ rho.mat).real
        assert abs(p_plus + p_minus - 1.0) < 1e-10


def test_postselect_zero_probability_raises():
    # fully blocking filter on a state entirely in the blocked mode: the
    # postselected QFI has nothing to condition on
    with pytest.raises(ZeroProbabilityError):
        qfi_postselected_pure(pure_state(E0), ppa_generator(), make_filter(0.0))


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
        rho = DensityMatrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)
        assert np.abs(bloch_vector(rho) - r).max() < 1e-12


def test_bloch_literals():
    assert np.abs(bloch_vector(pure_state(E0)) - [0, 0, 1]).max() < 1e-14
    plus = pure_state(np.array([1.0, 1.0]))
    assert np.abs(bloch_vector(plus) - [1, 0, 0]).max() < 1e-14
    circ = pure_state(np.array([1.0, 1j]))
    assert np.abs(bloch_vector(circ) - [0, 1, 0]).max() < 1e-14


def test_bloch_rejects_qutrit():
    rho3 = DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError):
        bloch_vector(rho3)


def test_bloch_rejects_long_vector():
    # |r| > 1 gives (1 + r . sigma)/2 a negative eigenvalue
    r = np.array([0.8, 0.8, 0.8])
    with pytest.raises(ValueError):
        DensityMatrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)


# ------------------------------------------------------------ amplified states


def test_amplified_states_lie_in_the_yz_plane():
    # for real t the postselected family has x = 0, and its polar angle is
    # the amplified angle
    for theta in (0.05, 0.3, 1.1):
        (x, y, z), _ = postselected(theta, 0.3)
        assert abs(x) < 1e-12
        big = amplified_angle(theta, 0.3)
        assert abs(math.atan2(abs(y), z) - big) < 1e-12

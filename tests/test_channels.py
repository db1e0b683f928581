"""Tests for ideal/faulty Trotter channel construction.

Averaged noise channels are checked against Monte-Carlo oracles (sample means
of the corresponding unitary-jitter channels), against the complex
supermatrix products they replaced, against the dense real-basis
composition that the sector-pair path replaced and against a long-double
power built on exact spectral projectors; the closed-form depolarizing
channels against the step-by-step composition of their factors; and the
second-order error expansion against the exact supermatrix difference.
"""

import numpy as np
import pytest

from trotopt import linalg
from trotopt.channels import (
    AveragedTimingJitter,
    Decoherence,
    Depolarizing,
    TermSet,
    TimingJitter,
    TrotterPlan,
    commutator_defect_map,
    complete_noise,
    evolution_superop,
    faulty_trotter,
    ideal_map,
    jitter_deltas,
    jitter_defect_map,
    sampled_trotter_unitary,
    single_step_error_expansion,
    trotter_ideal,
)
from trotopt.experiments import default_n_grid
from trotopt.hamiltonians import ising_chain, terms_from_text
from trotopt.metrics import j_distance

SZ = np.diag([1.0 + 0.0j, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_plan(t=0.4, n=2, a=1.0):
    return TrotterPlan((SZ, SX), t=t, n=n, a=a)


def ising_plan(t=0.1, n=5, a=1.0):
    return TrotterPlan(ising_chain(2), t=t, n=n, a=a)


def averaged_expansion(plan, sigma):
    """Closed-form Gaussian average of ``single_step_error_expansion``: the
    splitting defect at ``tau^2 / 2`` and the jitter defect at ``sigma^2``."""
    return -0.5 * plan.tau**2 * commutator_defect_map(plan.terms) + sigma**2 * jitter_defect_map(
        plan.terms
    )


def sampled_channel(plan, sigma, rng):
    """Supermatrix of one sampled jitter run drawn from ``rng``."""
    return linalg.unitary_superop(sampled_trotter_unitary(plan, sigma, (rng,))[0])


def channel_of(plan, noise, rng):
    """The channel a noise model gives ``plan``; one sampled run under jitter."""
    if isinstance(noise, TimingJitter):
        return sampled_channel(plan, noise.sigma, rng)
    return faulty_trotter(plan, noise)


def averaged_factor(h, sigma):
    """The averaged jitter channel of one term at zero time: its dephasing factor."""
    return AveragedTimingJitter(sigma).channel(TrotterPlan((h,), t=0.0, n=1))


def complex_averaged_channel(plan, sigma):
    """The averaged jitter channel as complex supermatrix products: per term a
    dephasing factor in its eigenbasis times its evolution, one step, then
    the complex matrix power."""
    step = np.eye(plan.dim**2, dtype=complex)
    for h in plan.terms:
        evals, w = np.linalg.eigh(h)
        gaps = evals[:, None] - evals[None, :]
        basis = linalg.unitary_superop(w)
        lam = linalg.vec(np.exp(-0.5 * (plan.a * sigma * gaps) ** 2))
        err = (basis * lam) @ basis.conj().T
        step = err @ evolution_superop(h, plan.tau) @ step
    return np.linalg.matrix_power(step, plan.n)


def long_double_averaged_channel(plan, sigma):
    """The averaged jitter channel in long double, rounded to complex at the
    end, for terms with integer spectra: each factor is
    ``sum_{l,m} v(l - m) kron(P_m^T, P_l)`` over the terms' exact spectral
    projectors ``P_l = prod_{m != l} (H - m) / (l - m)``."""
    ld = np.longdouble
    d = plan.dim
    tau, width = ld(plan.t) / plan.n, ld(plan.a) * ld(sigma)
    eye = np.eye(d, dtype=np.clongdouble)
    step = np.eye(d * d, dtype=np.clongdouble)
    for h in plan.terms:
        energies = np.round(np.linalg.eigvalsh(h))
        assert np.allclose(np.linalg.eigvalsh(h), energies, rtol=0, atol=1e-12)
        energies = np.unique(energies).astype(int).tolist()
        proj = {}
        for l in energies:
            proj[l] = eye
            for m in energies:
                if m != l:
                    proj[l] = proj[l] @ (h.astype(np.clongdouble) - m * eye) / ld(l - m)
        factor = 0
        for l in energies:
            for m in energies:
                g = ld(l - m)
                v = np.exp(-(width * g) ** 2 / 2) * (np.cos(tau * g) + 1j * np.sin(tau * g))
                factor = factor + v * np.kron(proj[m].T, proj[l])
        step = factor @ step
    return np.linalg.matrix_power(step, plan.n).astype(complex)


def depolarizing_superop(p, d):
    """Supermatrix of one depolarizing factor ``rho -> (1 - p) rho + (p/d) I``."""
    return (1.0 - p) * np.eye(d * d, dtype=complex) + p * complete_noise(d)


def real_in_basis(s):
    """Real matrix ``Q^dag S Q`` of a Hermiticity-preserving supermatrix in the
    Hermitian basis of ``linalg.hermitian_basis_rows``."""
    left = linalg.hermitian_basis_rows(s).conj().T
    return linalg.hermitian_basis_rows(left).real.T


def step_unitary(plan):
    """One ideal Trotter step, each term's ``hermitian_exp`` in list order."""
    u = np.eye(plan.dim, dtype=complex)
    for h in plan.terms:
        u = linalg.hermitian_exp(h, plan.tau) @ u
    return u


def complex_depolarizing_channel(plan, p):
    step = depolarizing_superop(p, plan.dim) @ linalg.unitary_superop(step_unitary(plan))
    return np.linalg.matrix_power(step, plan.n)


def dense_real_averaged_channel(plan, sigma):
    """The averaged jitter channel with every factor and the power dense:
    per term a full ``eigh``, ``A = Q^dag kron(conj W, W)`` on all d^2
    positions, ``Re(A diag(v) A^dag)``, and one real ``matrix_power``."""
    step = None
    for h in plan.terms:
        evals, w = np.linalg.eigh(h)
        gaps = evals[:, None] - evals[None, :]
        v = linalg.vec(np.exp(-0.5 * (plan.a * sigma * gaps) ** 2 + 1j * plan.tau * gaps))
        a = linalg.hermitian_basis_rows(linalg.unitary_superop(w))
        av = a * v
        factor = av.real @ a.real.T + av.imag @ a.imag.T
        step = factor if step is None else factor @ step
    return linalg.from_hermitian_basis(np.linalg.matrix_power(step, plan.n))


def dense_real_depolarizing_channel(plan, p):
    step = depolarizing_superop(p, plan.dim) @ linalg.unitary_superop(step_unitary(plan))
    real_step = real_in_basis(step)
    return linalg.from_hermitian_basis(np.linalg.matrix_power(real_step, plan.n))


ROTATED_ISING4 = "4 | x... ; .x.. ; ..x. ; ...x | zz.. ; .zz. ; ..zz"


def dense_basis_change(s):
    """``Q^dag S Q`` with the imaginary part kept."""
    q_dag = linalg.hermitian_basis_rows(np.eye(s.shape[0]))
    return q_dag @ s @ q_dag.conj().T


def j_dist(ta, tb):
    """Trace distance between the Choi states of two supermatrices."""
    return 0.5 * linalg.trace_norm(linalg.choi_from_super(ta - tb)) / np.sqrt(ta.shape[0])


class TestTrotterPlan:
    def test_rejects_non_hermitian_term(self):
        with pytest.raises(ValueError, match="Hermitian"):
            TrotterPlan((np.array([[0.0, 1.0], [0.0, 0.0]]),), t=1.0, n=1)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            TrotterPlan((SZ, np.eye(4)), t=1.0, n=1)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="t must"):
            TrotterPlan((SZ,), t=-0.1, n=1)
        with pytest.raises(ValueError, match="n must"):
            TrotterPlan((SZ,), t=0.1, n=0)
        with pytest.raises(ValueError, match="a must"):
            TrotterPlan((SZ,), t=0.1, n=1, a=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time_and_scale(self, bad):
        # a NaN channel would otherwise fail late, in a metric's trace check
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            TrotterPlan((SZ,), t=bad, n=1)
        with pytest.raises(ValueError, match="a must be finite and > 0"):
            TrotterPlan((SZ,), t=0.1, n=1, a=bad)

    def test_terms_are_frozen_copies(self):
        h = SZ.copy()
        plan = TrotterPlan((h,), t=1.0, n=1)
        h[0, 0] = 99.0
        assert plan.terms[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            plan.terms[0][0, 0] = 5.0

    def test_noise_parameter_ranges(self):
        with pytest.raises(ValueError):
            TimingJitter(sigma=-1.0)
        with pytest.raises(ValueError):
            AveragedTimingJitter(sigma=-0.5)
        with pytest.raises(ValueError):
            Depolarizing(p=1.5)
        with pytest.raises(ValueError):
            Decoherence(gamma=-0.1)


class TestEvolutionSuperop:
    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(evolution_superop(SZ, 0.0), np.eye(4))

    def test_sigma_z_phases_coherences(self):
        tau = 0.7
        t = evolution_superop(SZ, tau)
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        out = linalg.unvec(t @ linalg.vec(rho))
        assert out[0, 0] == pytest.approx(0.6, abs=1e-12)
        assert out[1, 1] == pytest.approx(0.4, abs=1e-12)
        assert out[0, 1] == pytest.approx((0.2 - 0.1j) * np.exp(2j * tau), abs=1e-12)

    def test_one_parameter_group(self):
        h = SZ + 0.5 * SX
        lhs = evolution_superop(h, 0.3) @ evolution_superop(h, 0.9)
        np.testing.assert_allclose(lhs, evolution_superop(h, 1.2), atol=1e-10)


class TestCompleteNoise:
    def test_maps_pure_state_to_maximally_mixed(self):
        for d in (2, 3, 4):
            t = complete_noise(d)
            psi = np.zeros(d)
            psi[0] = 1.0
            rho = np.outer(psi, psi)
            np.testing.assert_allclose(
                linalg.unvec(t @ linalg.vec(rho)), np.eye(d) / d, atol=1e-12
            )

    def test_idempotent(self):
        t = complete_noise(3)
        np.testing.assert_allclose(t @ t, t, atol=1e-12)

    def test_qubit_supermatrix_pattern(self):
        t = complete_noise(2)
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        np.testing.assert_allclose(t, expected, atol=1e-15)
        # within an occupied row the two entries are separated by d zeros
        assert np.all(t[0, 1:3] == 0.0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match=">= 2"):
            complete_noise(1)


class TestDepolarizing:
    def test_endpoints(self):
        # p = 0 is the ideal product itself, p = 1 complete noise at any n
        for terms in ((SZ, SX), ising_chain(2), ising_chain(3)):
            for n in (1, 7, 1000):
                plan = TrotterPlan(terms, t=0.3, n=n)
                np.testing.assert_array_equal(Depolarizing(0.0).channel(plan), trotter_ideal(plan))
                np.testing.assert_array_equal(
                    Depolarizing(1.0).channel(plan), complete_noise(plan.dim)
                )

    def test_half_strength_on_ground_state(self):
        t = Depolarizing(0.5).channel(TrotterPlan((SZ,), t=0.0, n=1))
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = linalg.unvec(t @ linalg.vec(rho))
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-12)
        # two steps depolarize with strength 1 - (1 - p)^2 = 0.75
        t = Depolarizing(0.5).channel(TrotterPlan((SZ,), t=0.0, n=2))
        out = linalg.unvec(t @ linalg.vec(rho))
        np.testing.assert_allclose(out, np.diag([0.625, 0.375]), atol=1e-12)

    def test_rejects_out_of_range(self):
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError, match="p must lie in"):
                Depolarizing(p)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("qubits", [1, 2, 4])
    def test_equals_decoherence_of_the_gathered_rate(self, qubits, n):
        # n factors of strength p are one end-of-run factor of strength
        # 1 - (1 - p)^n, which decoherence reaches with gamma = -n log(1 - p) a / t
        terms = (SZ, SX) if qubits == 1 else ising_chain(qubits)
        plan = TrotterPlan(terms, t=0.3, n=n, a=1.3)
        p = 0.01
        gamma = -n * np.log1p(-p) * plan.a / plan.t
        np.testing.assert_allclose(
            Depolarizing(p).channel(plan), Decoherence(gamma).channel(plan), rtol=0, atol=1e-15
        )


class TestAveragedJitter:
    def test_zero_width_is_identity(self):
        np.testing.assert_allclose(averaged_factor(SX, 0.0), np.eye(4), atol=1e-14)

    def test_sigma_z_dephasing_factor(self):
        t = averaged_factor(SZ, 1.0)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = linalg.unvec(t @ linalg.vec(rho))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
        # energy gap 2, so coherences shrink by exp(-2)
        assert out[0, 1] == pytest.approx(0.5 * np.exp(-2.0), abs=1e-12)
        assert out[0, 1] == pytest.approx(0.5 * 0.135335, abs=1e-6)

    def test_against_monte_carlo_average(self):
        # oracle: sample mean of exp(iH delta) rho exp(-iH delta) over 1e5 draws
        h = SZ
        sigma = 1.0
        rng = np.random.default_rng(314)
        n_samples = 100_000
        deltas = rng.normal(0.0, sigma, n_samples)
        # H = sigma_z is diagonal, so each sample just phases the coherence
        phases = np.exp(2j * deltas)
        rho01 = 0.5
        mc_mean = rho01 * phases.mean()
        se = rho01 * phases.std(ddof=1) / np.sqrt(n_samples)
        t = averaged_factor(h, sigma)
        out = linalg.unvec(t @ linalg.vec(np.full((2, 2), 0.5, dtype=complex)))
        assert abs(out[0, 1] - mc_mean) <= 3.0 * max(se, 1e-12)

    def test_commutes_with_own_evolution(self):
        h = SZ + 0.3 * SX
        avg = averaged_factor(h, 0.4)
        evo = evolution_superop(h, 1.1)
        np.testing.assert_allclose(avg @ evo, evo @ avg, atol=1e-10)


class TestSampledJitter:
    def test_zero_width_is_identity(self):
        # zero-width jitter leaves every gate as planned: the noiseless circuit
        plan = qubit_plan(t=0.6, n=3)
        u = sampled_trotter_unitary(plan, 0.0, [np.random.default_rng(1)])[0]
        np.testing.assert_allclose(linalg.unitary_superop(u), trotter_ideal(plan), atol=1e-12)

    def test_preserves_purity(self):
        rng = np.random.default_rng(2)
        u = sampled_trotter_unitary(qubit_plan(t=0.6, n=3), 0.8, (rng,))[0]
        t = linalg.unitary_superop(u)
        for _ in range(5):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            out = linalg.unvec(t @ linalg.vec(rho))
            assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_stack_matches_per_gate_product(self, qubits, n, a):
        # oracle: the product of per-gate exponentials, each run from its own
        # generator drawn with the same seed
        terms = (SZ, SX) if qubits == 1 else ising_chain(qubits)
        plan = TrotterPlan(terms, t=0.7, n=n, a=a)
        sigma = 0.2
        seeds = (11, 12, 13)
        stack = sampled_trotter_unitary(
            plan, sigma, [np.random.default_rng(seed) for seed in seeds]
        )
        assert stack.shape == (len(seeds), 2**qubits, 2**qubits)
        for seed, u in zip(seeds, stack):
            deltas = jitter_deltas(plan, sigma, np.random.default_rng(seed))
            ref = np.eye(plan.dim, dtype=complex)
            for i in range(n):
                for j, h in enumerate(plan.terms):
                    ref = linalg.hermitian_exp(h, plan.tau + a * deltas[i, j]) @ ref
            np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)

    def test_run_depends_on_its_generator_alone(self):
        plan = ising_plan(t=0.5, n=7, a=1.5)
        seeds = (5, 6, 7, 8)
        forward = sampled_trotter_unitary(plan, 0.1, [np.random.default_rng(s) for s in seeds])
        backward = sampled_trotter_unitary(
            plan, 0.1, [np.random.default_rng(s) for s in reversed(seeds)]
        )
        np.testing.assert_array_equal(backward, forward[::-1])
        alone = sampled_trotter_unitary(plan, 0.1, [np.random.default_rng(seeds[2])])
        np.testing.assert_array_equal(alone[0], forward[2])

    def test_long_runs_stay_unitary(self):
        # 40,000 gates at ising:4: a product of full gates drifts off
        # unitarity linearly in n k, to 1.9e-11 here; increments stay at 2e-14
        plan = TrotterPlan(ising_chain(4), t=0.1, n=20_000)
        u = sampled_trotter_unitary(plan, 0.01, [np.random.default_rng(3)])[0]
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-12

    @pytest.mark.parametrize("qubits", [1, 2, 4])
    def test_preallocated_table_gives_the_stacked_runs(self, qubits):
        # oracle: the increment sampler on a stacked list of per-run tables,
        # with the angles computed gate by gate, on the same term-set
        # eigensystems; filling one preallocated table and turning it into
        # angles in place must not move a bit
        def stacked_sampler(plan, sigma, rngs):
            deltas = np.stack([jitter_deltas(plan, sigma, rng) for rng in rngs])
            x = np.zeros((len(rngs), plan.dim, plan.dim), dtype=complex)
            for i in range(plan.n):
                for j, (evals, evecs) in enumerate(plan.terms.eighs):
                    angles = plan.tau + plan.a * deltas[:, i, j]
                    g = (evecs * np.expm1(1j * angles[:, None] * evals)[:, None, :]) @ evecs.conj().T
                    x = g + x + g @ x
            return np.eye(plan.dim) + x

        terms = (SZ, SX) if qubits == 1 else ising_chain(qubits)
        for n, a in ((1, 1.0), (16, 2.5)):
            plan = TrotterPlan(terms, t=0.4, n=n, a=a)
            seeds = range(5)
            got = sampled_trotter_unitary(plan, 0.05, [np.random.default_rng(s) for s in seeds])
            want = stacked_sampler(plan, 0.05, [np.random.default_rng(s) for s in seeds])
            assert np.array_equal(got, want)

    def test_draw_statistics(self):
        sigma = 0.3
        plan = TrotterPlan((SZ, SX), t=1.0, n=50_000)
        draws = jitter_deltas(plan, sigma, np.random.default_rng(99)).ravel()
        assert draws.size == 100_000
        assert abs(draws.mean()) <= 4.0 * sigma / np.sqrt(draws.size)
        assert draws.var(ddof=1) == pytest.approx(sigma**2, rel=0.05)

    def test_draws_are_those_of_normal(self):
        # seeded outputs rest on these values, also when drawn into a row of
        # the table; at sigma 0 they are -0.0 where normal gives 0.0
        plan = TrotterPlan((SZ, SX), t=1.0, n=7)
        for sigma in (0.0, 0.01, 3.7):
            want = np.random.default_rng(5).normal(0.0, sigma, (7, 2))
            assert np.array_equal(jitter_deltas(plan, sigma, np.random.default_rng(5)), want)
            table = np.full((3, 7, 2), np.nan)
            got = jitter_deltas(plan, sigma, np.random.default_rng(5), out=table[1])
            assert np.shares_memory(got, table[1])
            assert np.array_equal(table[1], want)
            assert np.isnan(table[[0, 2]]).all()


class TestIdealAndTrotter:
    def test_zero_time_identity(self):
        plan = qubit_plan(t=0.0)
        np.testing.assert_allclose(ideal_map(plan), np.eye(4), atol=1e-14)

    def test_single_term_matches_evolution(self):
        plan = TrotterPlan((SZ,), t=0.9, n=3)
        np.testing.assert_allclose(ideal_map(plan), evolution_superop(SZ, 0.9), atol=1e-12)
        np.testing.assert_allclose(trotter_ideal(plan), evolution_superop(SZ, 0.9), atol=1e-10)

    def test_ideal_map_scale_invariant(self):
        plan = ising_plan()
        np.testing.assert_allclose(
            ideal_map(plan), ideal_map(ising_plan(a=2.0)), atol=1e-12
        )

    def test_commuting_terms_split_exactly(self):
        h1 = np.kron(SZ, np.eye(2))
        h2 = np.kron(np.eye(2), SZ)
        for n in (1, 3, 7):
            plan = TrotterPlan((h1, h2), t=0.8, n=n)
            np.testing.assert_allclose(trotter_ideal(plan), ideal_map(plan), atol=1e-10)

    def test_single_step_single_term(self):
        plan = TrotterPlan((SX,), t=0.5, n=1)
        np.testing.assert_allclose(trotter_ideal(plan), evolution_superop(SX, 0.5), atol=1e-12)

    def test_step_unitary_order_is_list_order(self):
        plan = qubit_plan(t=0.3, n=1)
        expected = linalg.hermitian_exp(SX, 0.3) @ linalg.hermitian_exp(SZ, 0.3)
        np.testing.assert_allclose(
            trotter_ideal(plan), linalg.unitary_superop(expected), atol=1e-12
        )


class TestFaultyTrotter:
    def test_noiseless_limits(self):
        plan = ising_plan()
        ref = trotter_ideal(plan)
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(sampled_channel(plan, 0.0, rng), ref, atol=1e-12)
        np.testing.assert_allclose(faulty_trotter(plan, AveragedTimingJitter(0.0)), ref, atol=1e-12)
        np.testing.assert_allclose(faulty_trotter(plan, Depolarizing(0.0)), ref, atol=1e-12)
        np.testing.assert_allclose(faulty_trotter(plan, Decoherence(0.0)), ref, atol=1e-12)

    def test_jitter_bit_reproducible(self):
        plan = ising_plan()
        a = sampled_channel(plan, 0.05, np.random.default_rng(1234))
        b = sampled_channel(plan, 0.05, np.random.default_rng(1234))
        assert np.array_equal(a, b)

    def test_depol_full_strength_erases_everything(self):
        plan = ising_plan(n=3)
        np.testing.assert_allclose(
            faulty_trotter(plan, Depolarizing(1.0)), complete_noise(4), atol=1e-12
        )

    def test_averaged_matches_sample_mean(self):
        # oracle: entrywise mean of 1e4 sampled-jitter supermatrices
        plan = ising_plan(t=0.1, n=5)
        sigma = 0.05
        n_runs = 10_000
        acc = np.zeros((16, 16), dtype=complex)
        acc_sq = np.zeros((16, 16))
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(run,)))
            for run in range(n_runs)
        ]
        for u in sampled_trotter_unitary(plan, sigma, rngs):
            t = linalg.unitary_superop(u)
            acc += t
            acc_sq += np.abs(t) ** 2
        mean = acc / n_runs
        var = np.maximum(acc_sq / n_runs - np.abs(mean) ** 2, 0.0)
        se = np.sqrt(var / n_runs)
        avg = faulty_trotter(plan, AveragedTimingJitter(sigma))
        assert np.all(np.abs(avg - mean) <= 4.0 * se + 1e-9)

    def test_decoherence_mixing_fraction(self):
        plan = qubit_plan(t=2.0, n=4)
        gamma = 0.3
        t = faulty_trotter(plan, Decoherence(gamma))
        ref = trotter_ideal(plan)
        p = 1.0 - np.exp(-gamma * plan.t)
        np.testing.assert_allclose(t, depolarizing_superop(p, 2) @ ref, atol=1e-12)

    @pytest.mark.parametrize(
        "noise",
        [
            TimingJitter(0.08),
            AveragedTimingJitter(0.08),
            Depolarizing(0.02),
            Decoherence(0.1),
        ],
        ids=["jitter", "avg-jitter", "depol", "decoh"],
    )
    def test_channels_are_cptp(self, noise):
        plan = ising_plan(t=0.3, n=4)
        t = channel_of(plan, noise, np.random.default_rng(42))
        d = plan.dim
        j = linalg.choi_from_super(t) / d
        np.testing.assert_allclose(j, j.conj().T, atol=1e-9)
        assert np.linalg.eigvalsh(j).min() >= -1e-9
        # trace-preserving: tracing out the output factor leaves I/d
        np.testing.assert_allclose(
            np.einsum("aiaj->ij", j.reshape(d, d, d, d)), np.eye(d) / d, atol=1e-9
        )

    def test_averaging_improves_over_mean_run(self):
        # convexity: the averaged channel is never farther from ideal than the
        # average distance of its sampled constituents
        plan = qubit_plan(t=1.0, n=3)
        sigma = 0.1
        ideal = ideal_map(plan)
        dists = []
        for run in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(run,)))
            dists.append(j_dist(sampled_channel(plan, sigma, rng), ideal))
        avg_dist = j_dist(faulty_trotter(plan, AveragedTimingJitter(sigma)), ideal)
        assert avg_dist <= np.mean(dists) + 1e-9

    def test_chaining_bound(self):
        plan = ising_plan(t=0.5, n=6)
        step_plan = TrotterPlan(plan.terms, t=plan.t / plan.n, n=1)
        for noise in (AveragedTimingJitter(0.05), Depolarizing(0.01)):
            full = j_dist(faulty_trotter(plan, noise), ideal_map(plan))
            step = j_dist(faulty_trotter(step_plan, noise), ideal_map(step_plan))
            assert full <= plan.n * step + 1e-9


class TestHermitianBasisChannels:
    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_real_power_matches_complex_products(self, qubits, n):
        # oracle: the complex step products and complex matrix power the
        # real-basis channels replaced
        terms = (SZ, SX) if qubits == 1 else ising_chain(qubits)
        plan = TrotterPlan(terms, t=0.3, n=n, a=1.3)
        np.testing.assert_allclose(
            faulty_trotter(plan, AveragedTimingJitter(0.05)),
            complex_averaged_channel(plan, 0.05),
            rtol=0,
            atol=1e-11,
        )
        np.testing.assert_allclose(
            faulty_trotter(plan, Depolarizing(0.01)),
            complex_depolarizing_channel(plan, 0.01),
            rtol=0,
            atol=1e-11,
        )

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_package_maps_are_real_in_the_basis(self, qubits):
        terms = [SZ, SX] if qubits == 1 else ising_chain(qubits)
        d = 2**qubits
        h = sum(terms[1:], start=terms[0].copy())
        maps = {
            "unitary": evolution_superop(h, 0.7),
            "dephasing": averaged_factor(h, 0.3),
            "depolarizing": depolarizing_superop(0.2, d),
            "commutator defect": commutator_defect_map(terms),
            "jitter defect": jitter_defect_map(terms),
        }
        for name, s in maps.items():
            r = dense_basis_change(s)
            assert np.abs(r.imag).max() <= 1e-13, name
            np.testing.assert_allclose(real_in_basis(s), r.real, rtol=0, atol=1e-13)


class TestBlockwiseChannels:
    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_blocks_match_dense_real_composition(self, qubits, n):
        # oracle: the same real-basis composition on dense d^2 x d^2 matrices
        terms = (SZ, SX) if qubits == 1 else ising_chain(qubits)
        plan = TrotterPlan(terms, t=0.3, n=n, a=1.3)
        np.testing.assert_allclose(
            faulty_trotter(plan, AveragedTimingJitter(0.05)),
            dense_real_averaged_channel(plan, 0.05),
            rtol=0,
            atol=1e-11,
        )
        np.testing.assert_allclose(
            faulty_trotter(plan, Depolarizing(0.01)),
            dense_real_depolarizing_channel(plan, 0.01),
            rtol=0,
            atol=1e-11,
        )

    def test_memo_follows_terms_and_parameters(self):
        # two term sets of one shape alternate, then a, sigma and n change
        # alone; every channel matches the dense composition, plans from one
        # term set share its sector pairs, and a new set builds its own
        first = TermSet(ising_chain(2))
        second = TermSet(terms_from_text("2 | x. ; .x | zz"))
        cases = [(first, 3, 1.0, 0.05), (second, 3, 1.0, 0.05)] * 2
        cases += [(second, 3, 1.7, 0.05), (second, 3, 1.7, 0.11), (second, 9, 1.7, 0.11)]
        cases += [(TermSet(h.copy() for h in first), 9, 1.7, 0.11)]
        seen = {}
        for terms, n, a, sigma in cases:
            plan = TrotterPlan(terms, t=0.2, n=n, a=a)
            assert plan.terms is terms
            np.testing.assert_allclose(
                AveragedTimingJitter(sigma).channel(plan),
                dense_real_averaged_channel(plan, sigma),
                rtol=0,
                atol=1e-12,
            )
            pairs = seen.setdefault(id(terms), plan.terms.sector_pairs)
            assert plan.terms.sector_pairs is pairs
            # the Ising chain's two parity sectors make two diagonal pairs and
            # one entry for the pairs between them; the x fields connect the
            # second set's four states in one sector
            assert len(pairs) == (1 if terms is second else 3)
        assert len({id(p) for p in seen.values()}) == 3

    def test_ising4_pairs_are_four_blocks_of_64(self):
        # the speed of the 4-qubit averaged-jitter path rests on these blocks:
        # Z-parity splits the system indices in two sectors of 8, and each of
        # the four ordered sector pairs is one block of 64 vec positions
        plan = TrotterPlan(ising_chain(4), t=0.1, n=1)
        pairs = TermSet(ising_chain(4)).sector_pairs
        assert [(rows.size, mirror is None) for rows, mirror, _ in pairs] == [
            (64, True),
            (64, True),
            (64, False),
        ]
        assert [[i.shape for i, _ in stacks] for _, _, stacks in pairs] == [[(1, 64)]] * 3
        step = AveragedTimingJitter(0.01).channel(plan)
        assert [p.size for p in linalg.blocks(step)] == [64] * 4

    def test_rotated_chain_is_one_block_with_the_same_j_grid(self):
        # the chain in the x <-> z rotated frame has no exact zeros to split
        # on and takes the dense path; its J values are the same physics
        ising = tuple(ising_chain(4))
        rotated = tuple(terms_from_text(ROTATED_ISING4))
        plan = TrotterPlan(rotated, t=0.1, n=1)
        step = real_in_basis(AveragedTimingJitter(0.01).channel(plan))
        assert [p.size for p in linalg.blocks(step)] == [256]
        for n in default_n_grid(1, 1000, 24):
            values = []
            for terms in (ising, rotated):
                plan = TrotterPlan(terms, t=0.1, n=n)
                faulty = faulty_trotter(plan, AveragedTimingJitter(0.01))
                values.append(j_distance(faulty, ideal_map(plan)))
            assert values[1] == pytest.approx(values[0], rel=0, abs=1e-11), n


def _random_terms(qubits, count, seed):
    rng = np.random.default_rng(seed)
    d = 2**qubits
    draws = rng.normal(size=(count, 2, d, d))
    return tuple(linalg.hermitize(x + 1j * y) for x, y in draws)


def _popcount(d):
    return np.array([bin(x).count("1") for x in range(d)])


# Term sets and the sector of each basis state, from the symmetry each
# conserves rather than from the code's pattern search: the Ising chain keeps
# Z-parity, the XX+YY hopping bonds keep the excitation number (sectors 1, 4,
# 6, 4, 1), and random dense terms keep nothing (one sector).
SECTOR_CASES = {
    "ising:2": (ising_chain(2), _popcount(4) % 2),
    "ising:3": (ising_chain(3), _popcount(8) % 2),
    "ising:4": (ising_chain(4), _popcount(16) % 2),
    "hopping:4": (terms_from_text("4 | xx.. ; yy.. | .xx. ; .yy. | ..xx ; ..yy"), _popcount(16)),
    "random:2": (_random_terms(2, 3, 5), np.zeros(4, dtype=int)),
}


def _sector_case(name, n):
    terms, sector = SECTOR_CASES[name]
    plan = TrotterPlan(terms, t=0.3, n=n, a=1.3)
    return plan, sector, faulty_trotter(plan, AveragedTimingJitter(0.05))


class TestSectorPairs:
    @pytest.mark.parametrize("name", SECTOR_CASES)
    def test_entries_outside_the_sector_pairs_are_exact_zeros(self, name):
        # S[a + d b, i + d j] may be nonzero only where a, i share a sector
        # and b, j share one; every ordered sector pair is one block
        plan, sector, s = _sector_case(name, 37)
        d = plan.dim
        ends = np.arange(d * d)
        a, b = sector[ends % d], sector[ends // d]
        inside = (a[:, None] == a) & (b[:, None] == b)
        assert np.all(s[~inside] == 0.0)
        sizes = np.bincount(sector)
        pairs = sorted(int(x) for x in np.outer(sizes, sizes).ravel())
        assert sorted(p.size for p in linalg.blocks(s)) == pairs

    @pytest.mark.parametrize("name", SECTOR_CASES)
    def test_choi_difference_rows_across_sectors_are_exact_zeros(self, name):
        # Choi row (a, i), output a and input i, vanishes across sectors
        plan, sector, s = _sector_case(name, 37)
        d = plan.dim
        choi = linalg.choi_from_super(s - ideal_map(plan))
        across = (sector[:, None] != sector).ravel()
        assert np.all(choi[across] == 0.0)
        assert np.all(choi[:, across] == 0.0)

    @pytest.mark.parametrize("name", SECTOR_CASES)
    def test_mirror_holds_bit_for_bit(self, name):
        # S(X^dag) = S(X)^dag: S[b + d a, j + d i] == conj(S[a + d b, i + d j])
        plan, _, s = _sector_case(name, 37)
        d = plan.dim
        swap = (np.arange(d)[:, None] + d * np.arange(d)).ravel()
        np.testing.assert_array_equal(s[swap][:, swap], s.conj())

    @pytest.mark.parametrize("n", [1, 100])
    @pytest.mark.parametrize("name", SECTOR_CASES)
    def test_j_matches_complex_products(self, name, n):
        # the complex oracle's own error grows with n: at n = 1000 its J on
        # hopping:4 lies 1.1e-12 below the long-double value, which the
        # package meets to 2e-15
        plan, _, s = _sector_case(name, n)
        ideal = ideal_map(plan)
        want = j_distance(complex_averaged_channel(plan, 0.05), ideal)
        assert j_distance(s, ideal) == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended long double")
    @pytest.mark.parametrize("text", ["3 | z.. ; .z. ; ..z | xx. ; .xx", "3 | xx. ; yy. | .xx ; .yy"])
    def test_j_matches_long_double_reference(self, text):
        # powering on increments keeps the error near one rounding: a
        # power of the rounded step would drift by about n * eps (1e-13)
        plan = TrotterPlan(terms_from_text(text), t=0.3, n=1000, a=1.3)
        ideal = ideal_map(plan)
        got = j_distance(faulty_trotter(plan, AveragedTimingJitter(0.05)), ideal)
        want = j_distance(long_double_averaged_channel(plan, 0.05), ideal)
        assert got == pytest.approx(want, rel=0, abs=1e-14)


class TestRescaling:
    def test_identity_rescale(self):
        # a rescales energy and time together, so the noiseless maps and the
        # plan's time, steps and terms do not depend on it
        plan = qubit_plan()
        for a in (1.0, 2.5):
            rescaled = qubit_plan(a=a)
            assert rescaled.a == a
            assert rescaled.t == plan.t and rescaled.n == plan.n
            for old, new in zip(plan.terms, rescaled.terms):
                np.testing.assert_array_equal(old, new)
            np.testing.assert_allclose(trotter_ideal(rescaled), trotter_ideal(plan), atol=1e-12)
            np.testing.assert_allclose(ideal_map(rescaled), ideal_map(plan), atol=1e-12)

    def test_rejects_nonpositive(self):
        for a in (0.0, -2.0):
            with pytest.raises(ValueError, match="a must be finite and > 0"):
                qubit_plan(a=a)

    def test_depol_invariant_under_rescaling(self):
        plan = ising_plan(n=4)
        noise = Depolarizing(0.05)
        np.testing.assert_allclose(
            faulty_trotter(plan, noise),
            faulty_trotter(ising_plan(n=4, a=3.0), noise),
            atol=1e-12,
        )

    def test_jitter_couples_through_a_sigma(self):
        plan = qubit_plan(t=0.8, n=4)
        sigma = 0.05
        fast = faulty_trotter(qubit_plan(t=0.8, n=4, a=2.0), AveragedTimingJitter(sigma))
        slow = faulty_trotter(plan, AveragedTimingJitter(2.0 * sigma))
        np.testing.assert_allclose(fast, slow, atol=1e-12)
        u_fast = sampled_trotter_unitary(
            qubit_plan(t=0.8, n=4, a=2.0), sigma, [np.random.default_rng(3)]
        )
        u_slow = sampled_trotter_unitary(plan, 2.0 * sigma, [np.random.default_rng(3)])
        np.testing.assert_allclose(u_fast, u_slow, atol=1e-12)

    def test_decoherence_sees_wall_clock_time(self):
        plan = qubit_plan(t=2.0, n=2)
        gamma = 0.4
        sped_up = faulty_trotter(qubit_plan(t=2.0, n=2, a=4.0), Decoherence(gamma))
        equivalent_p = 1.0 - np.exp(-gamma * plan.t / 4.0)
        np.testing.assert_allclose(
            sped_up, depolarizing_superop(equivalent_p, 2) @ trotter_ideal(plan), atol=1e-12
        )


class TestErrorExpansion:
    def exact_step_difference(self, plan, deltas):
        total = sum(plan.terms[1:], start=plan.terms[0].copy())
        ideal = evolution_superop(total, plan.tau)
        u = np.eye(plan.dim, dtype=complex)
        for j, h in enumerate(plan.terms):
            u = linalg.hermitian_exp(h, plan.tau + deltas[j]) @ u
        return ideal - linalg.unitary_superop(u)

    def test_commuting_zero_offsets_vanish(self):
        h1 = np.kron(SZ, np.eye(2))
        h2 = np.kron(np.eye(2), SZ)
        plan = TrotterPlan((h1, h2), t=0.4, n=2)
        out = single_step_error_expansion(plan, np.zeros(2))
        assert np.abs(out).max() <= 1e-14

    def test_residual_is_third_order(self):
        base_tau = 0.02
        base_deltas = np.array([0.013, -0.008])
        terms = ising_chain(2)
        residuals = []
        for lvl in range(4):
            s = 0.5**lvl
            plan = TrotterPlan(terms, t=base_tau * s, n=1)
            diff = self.exact_step_difference(plan, base_deltas * s)
            approx = single_step_error_expansion(plan, base_deltas * s)
            residuals.append(np.linalg.norm(diff - approx))
        slope = np.polyfit(np.log([0.5**lvl for lvl in range(4)]), np.log(residuals), 1)[0]
        assert slope >= 2.7

    def test_sample_average_matches_closed_form(self):
        # the expansion is a quadratic polynomial in the offsets, so its exact
        # coefficient matrices follow from a few probe evaluations and the
        # 1e5-sample average can be formed without 1e5 full rebuilds
        plan = TrotterPlan((SZ, SX), t=0.05, n=1)
        sigma = 0.02
        k = 2
        e0 = single_step_error_expansion(plan, np.zeros(k))
        lin = []
        quad = {}
        for j in range(k):
            probe = np.zeros(k)
            probe[j] = 1.0
            plus = single_step_error_expansion(plan, probe)
            minus = single_step_error_expansion(plan, -probe)
            lin.append((plus - minus) / 2.0)
            quad[(j, j)] = (plus + minus - 2.0 * e0) / 2.0
        both = single_step_error_expansion(plan, np.ones(k))
        plus0 = single_step_error_expansion(plan, np.array([1.0, 0.0]))
        plus1 = single_step_error_expansion(plan, np.array([0.0, 1.0]))
        quad[(0, 1)] = (both - plus0 - plus1 + e0) / 2.0
        # interpolation sanity: reproduce a full evaluation at a random point
        probe = np.array([0.3, -0.7])
        rebuilt = (
            e0
            + probe[0] * lin[0]
            + probe[1] * lin[1]
            + probe[0] ** 2 * quad[(0, 0)]
            + probe[1] ** 2 * quad[(1, 1)]
            + 2.0 * probe[0] * probe[1] * quad[(0, 1)]
        )
        np.testing.assert_allclose(rebuilt, single_step_error_expansion(plan, probe), atol=1e-12)

        n_samples = 100_000
        draws = np.random.default_rng(2718).normal(0.0, sigma, size=(n_samples, k))
        feats = np.stack(
            [draws[:, 0], draws[:, 1], draws[:, 0] ** 2, draws[:, 1] ** 2,
             2.0 * draws[:, 0] * draws[:, 1]],
            axis=1,
        )
        mats = np.stack([lin[0], lin[1], quad[(0, 0)], quad[(1, 1)], quad[(0, 1)]])
        samples = feats @ mats.reshape(5, -1)  # per-sample deviation from e0
        mean = e0 + samples.mean(axis=0).reshape(e0.shape)
        se = np.sqrt(
            samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)
        ).reshape(e0.shape) / np.sqrt(n_samples)
        closed = averaged_expansion(plan, sigma)
        assert np.all(np.abs(mean - closed) <= 4.0 * se + 1e-12)

    def test_averaged_commuting_zero_sigma(self):
        h1 = np.kron(SZ, np.eye(2))
        h2 = np.kron(np.eye(2), SZ)
        plan = TrotterPlan((h1, h2), t=0.4, n=2)
        assert np.abs(averaged_expansion(plan, 0.0)).max() <= 1e-14

    def test_averaged_single_qubit_by_hand(self):
        plan = TrotterPlan((SZ, SX), t=0.3, n=2)
        sigma = 0.07
        tau = plan.tau
        eye = np.eye(2)
        comm = SZ @ SX - SX @ SZ  # = 2i sigma_y
        np.testing.assert_allclose(comm, 2j * np.array([[0, -1j], [1j, 0]]), atol=1e-15)
        hand = -0.5 * tau**2 * (np.kron(comm.conj(), eye) + np.kron(eye, comm))
        # both generators square to the identity
        hand += sigma**2 * (2.0 * np.eye(4) - np.kron(SZ.conj(), SZ) - np.kron(SX.conj(), SX))
        np.testing.assert_allclose(averaged_expansion(plan, sigma), hand, atol=1e-13)

    def test_averaged_is_even_in_sigma(self):
        # flipping every offset flips only the linear part and the rest is
        # exactly quadratic, so a zero-mean Gaussian average sees sigma^2 alone
        plan = TrotterPlan(ising_chain(2), t=0.2, n=3)
        z = np.random.default_rng(5).standard_normal(len(plan.terms))
        e0 = single_step_error_expansion(plan, np.zeros(len(plan.terms)))

        def even_part(sigma):
            flipped = single_step_error_expansion(plan, -sigma * z)
            return 0.5 * (single_step_error_expansion(plan, sigma * z) + flipped) - e0

        np.testing.assert_allclose(even_part(0.08), 4.0 * even_part(0.04), atol=1e-15)
        np.testing.assert_allclose(even_part(-0.04), even_part(0.04), atol=1e-15)
        assert np.abs(even_part(0.04)).max() > 1e-4

    def test_offset_count_validated(self):
        with pytest.raises(ValueError, match="offsets"):
            single_step_error_expansion(qubit_plan(), np.zeros(3))

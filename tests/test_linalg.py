"""Tests for the dense linear-algebra kernel.

The Choi/supermatrix conversions are checked against a direct-definition
oracle (explicit sum over matrix units) so the index gymnastics in the
implementation can never drift from the convention silently.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from trotopt import linalg


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d):
    m = random_complex(rng, d)
    return (m + m.conj().T) / 2


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def choi_by_definition(t):
    """Oracle: normalized Choi via the defining sum over matrix units."""
    d = int(round(np.sqrt(t.shape[0])))
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            eik = np.zeros((d, d), dtype=complex)
            eik[i, k] = 1.0
            out = linalg.unvec(t @ linalg.vec(eik))
            j += np.kron(out, eik)
    return j / d


class TestVec:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(linalg.vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 8):
            m = random_complex(rng, d)
            np.testing.assert_array_equal(linalg.unvec(linalg.vec(m)), m)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            linalg.unvec(np.arange(5.0))

    def test_vec_of_product_identity(self):
        # vec(A X B) == (B^T kron A) vec(X), the identity the whole package leans on
        rng = np.random.default_rng(8)
        a, x, b = (random_complex(rng, 3) for _ in range(3))
        lhs = linalg.vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ linalg.vec(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestHermitianExp:
    def test_sigma_z_phases(self):
        sz = np.diag([1.0, -1.0])
        u = linalg.hermitian_exp(sz, 0.3)
        np.testing.assert_allclose(u, np.diag([np.exp(0.3j), np.exp(-0.3j)]), atol=1e-12)

    def test_against_expm(self):
        rng = np.random.default_rng(11)
        for d in (2, 4, 8):
            h = random_hermitian(rng, d)
            theta = rng.uniform(-3, 3)
            np.testing.assert_allclose(
                linalg.hermitian_exp(h, theta), expm(1j * theta * h), atol=1e-10
            )

    def test_inverse_pairs(self):
        rng = np.random.default_rng(12)
        for d in (2, 4, 8):
            h = random_hermitian(rng, d)
            theta = rng.uniform(0, 5)
            prod = linalg.hermitian_exp(h, theta) @ linalg.hermitian_exp(h, -theta)
            np.testing.assert_allclose(prod, np.eye(d), atol=1e-10)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_exp(m, 1.0)

    def test_rejects_nan(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_exp(m, 1.0)


class TestTraceNorm:
    def test_known_values(self):
        assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)
        assert linalg.trace_norm(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_matches_gram_eigenvalues(self):
        rng = np.random.default_rng(21)
        for d in (2, 5, 8):
            m = random_complex(rng, d)
            gram = np.linalg.eigvalsh(m.conj().T @ m)
            expected = float(np.sqrt(np.clip(gram, 0, None)).sum())
            assert linalg.trace_norm(m) == pytest.approx(expected, rel=1e-10)

    def test_norm_axioms(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            a = random_complex(rng, d)
            b = random_complex(rng, d)
            s = float(rng.uniform(-3, 3))
            assert linalg.trace_norm(a) >= 0.0
            assert linalg.trace_norm(s * a) == pytest.approx(abs(s) * linalg.trace_norm(a), abs=1e-10)
            assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for d in (2, 4):
            m = random_complex(rng, d)
            u = random_unitary(rng, d)
            assert linalg.trace_norm(u @ m @ u.conj().T) == pytest.approx(
                linalg.trace_norm(m), abs=1e-10
            )

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            linalg.trace_norm(np.ones((2, 3)))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        m = np.kron(a, b)
        np.testing.assert_allclose(linalg.partial_trace(m, (2, 3), 0), a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(linalg.partial_trace(m, (2, 3), 1), b * np.trace(a), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(32)
        da, db = 3, 4
        m = random_complex(rng, da * db)
        keep_a = np.zeros((da, da), dtype=complex)
        keep_b = np.zeros((db, db), dtype=complex)
        for i in range(da):
            for k in range(da):
                for j in range(db):
                    keep_a[i, k] += m[i * db + j, k * db + j]
        for j in range(db):
            for l in range(db):
                for i in range(da):
                    keep_b[j, l] += m[i * db + j, i * db + l]
        np.testing.assert_allclose(linalg.partial_trace(m, (da, db), 0), keep_a, atol=1e-12)
        np.testing.assert_allclose(linalg.partial_trace(m, (da, db), 1), keep_b, atol=1e-12)

    def test_trace_is_preserved(self):
        rng = np.random.default_rng(33)
        m = random_complex(rng, 6)
        for keep in (0, 1):
            red = linalg.partial_trace(m, (2, 3), keep)
            assert np.trace(red) == pytest.approx(np.trace(m), abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="factor"):
            linalg.partial_trace(np.eye(5), (2, 3), 0)
        with pytest.raises(ValueError, match="keep"):
            linalg.partial_trace(np.eye(6), (2, 3), 2)


class TestSuperop:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_unitary_superop_action(self, d):
        rng = np.random.default_rng(41 + d)
        u = random_unitary(rng, d)
        t = linalg.unitary_superop(u)
        for _ in range(3):
            rho = random_hermitian(rng, d)
            lhs = linalg.unvec(t @ linalg.vec(rho))
            np.testing.assert_allclose(lhs, u @ rho @ u.conj().T, atol=1e-10)

    def test_superop_composition_is_matmul(self):
        rng = np.random.default_rng(44)
        d = 3
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        np.testing.assert_allclose(
            linalg.unitary_superop(u @ v),
            linalg.unitary_superop(u) @ linalg.unitary_superop(v),
            atol=1e-12,
        )


class TestChoi:
    def test_identity_channel_choi(self):
        d = 2
        omega = np.zeros((4, 4))
        omega[np.ix_([0, 3], [0, 3])] = 0.5
        np.testing.assert_allclose(linalg.super_to_choi(np.eye(4)), omega, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_definition_oracle(self, d):
        rng = np.random.default_rng(50 + d)
        t = linalg.unitary_superop(random_unitary(rng, d))
        np.testing.assert_allclose(linalg.super_to_choi(t), choi_by_definition(t), atol=1e-12)
        # also on a non-unitary supermatrix
        t2 = random_complex(rng, d * d)
        np.testing.assert_allclose(linalg.super_to_choi(t2), choi_by_definition(t2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_roundtrip(self, d):
        rng = np.random.default_rng(60 + d)
        t = random_complex(rng, d * d)
        np.testing.assert_allclose(linalg.choi_to_super(linalg.super_to_choi(t)), t, atol=1e-12)
        j = random_hermitian(rng, d * d)
        np.testing.assert_allclose(linalg.super_to_choi(linalg.choi_to_super(j)), j, atol=1e-12)

    def test_unitary_channel_choi_properties(self):
        rng = np.random.default_rng(70)
        d = 4
        u = random_unitary(rng, d)
        j = linalg.super_to_choi(linalg.unitary_superop(u))
        assert np.trace(j) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(j, j.conj().T, atol=1e-12)
        # trace-preserving: reduced state on the input factor is I/d
        np.testing.assert_allclose(
            linalg.partial_trace(j, (d, d), 1), np.eye(d) / d, atol=1e-10
        )
        # a unitary channel gives a rank-one (pure) Choi state
        evals = np.linalg.eigvalsh(j)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(evals[:-1] < 1e-10)

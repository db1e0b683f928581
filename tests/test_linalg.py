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


def permuted_block_matrix(rng, sizes, hermitian=False):
    """A matrix dense on random diagonal blocks of the given sizes, each
    block on a random index subset, and the blocks as index sets."""
    d = sum(sizes)
    perm = rng.permutation(d)
    m = np.zeros((d, d), dtype=complex)
    parts, start = [], 0
    for size in sizes:
        idx = perm[start : start + size]
        start += size
        block = random_hermitian(rng, size) if hermitian else random_complex(rng, size)
        m[np.ix_(idx, idx)] = block
        parts.append(np.sort(idx))
    return m, sorted(parts, key=lambda p: p[0])


def choi_state(t):
    """Normalized Choi state: the reshuffle divided by ``d``."""
    return linalg.choi_from_super(t) / round(np.sqrt(t.shape[0]))


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

    def test_stacks_act_row_by_row(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        mats = linalg.unvec(rows)
        herm = linalg.hermitize(mats)
        for r in range(3):
            np.testing.assert_array_equal(mats[r], linalg.unvec(rows[r]))
            np.testing.assert_array_equal(herm[r], linalg.hermitize(mats[r]))

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

    def test_exactly_zero_off_block(self):
        rng = np.random.default_rng(13)
        h, parts = permuted_block_matrix(rng, [3, 1, 2, 3], hermitian=True)
        u = linalg.hermitian_exp(h, 0.7)
        on_block = np.zeros(h.shape, dtype=bool)
        for p in parts:
            on_block[np.ix_(p, p)] = True
        assert np.all(u[~on_block] == 0)
        np.testing.assert_allclose(u, expm(0.7j * h), rtol=0, atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_exp(m, 1.0)

    def test_rejects_nan(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_exp(m, 1.0)


class TestBlocks:
    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(40)
        for sizes in ([3, 1, 4, 2], [5, 5], [1, 7, 1]):
            m, parts = permuted_block_matrix(rng, sizes)
            got = linalg.blocks(m)
            assert [p.tolist() for p in got] == [p.tolist() for p in parts]

    def test_dense_matrix_is_one_block(self):
        m = random_complex(np.random.default_rng(41), 6)
        assert [p.tolist() for p in linalg.blocks(m)] == [list(range(6))]

    def test_diagonal_matrix_is_all_singletons(self):
        blocks = linalg.blocks(np.diag([2.0, -1.0, 0.5, 3.0]))
        assert [p.tolist() for p in blocks] == [[0], [1], [2], [3]]

    def test_order_and_symmetrized_pattern(self):
        # one-sided links join as well as two-sided ones; a chain whose
        # indices run out of order ends as one block; the zero row is its
        # own block; blocks come by smallest index, each ascending
        m = np.zeros((7, 7))
        m[5, 0] = m[2, 5] = m[6, 2] = 1.0
        m[3, 1] = -2.0
        got = [p.tolist() for p in linalg.blocks(m)]
        assert got == [[0, 2, 5, 6], [1, 3], [4]]
        assert [p.tolist() for p in linalg.blocks(m.T)] == got

    def test_only_exact_zeros_separate(self):
        m = np.eye(3)
        m[0, 2] = 1e-300
        assert [p.tolist() for p in linalg.blocks(m)] == [[0, 2], [1]]
        m[0, 2] = -0.0
        assert [p.tolist() for p in linalg.blocks(m)] == [[0], [1], [2]]

    def test_deterministic_across_calls(self):
        m, _ = permuted_block_matrix(np.random.default_rng(42), [2, 3, 2, 1])
        first = linalg.blocks(m)
        for _ in range(3):
            assert [p.tolist() for p in linalg.blocks(m.copy())] == [p.tolist() for p in first]

    def test_stacks_group_equal_sizes(self):
        m, parts = permuted_block_matrix(np.random.default_rng(43), [2, 3, 2, 1, 3])
        stacks = linalg.block_stacks(m)
        by_size = {}
        for p in parts:
            by_size.setdefault(p.size, []).append(p.tolist())
        assert [s.tolist() for s in stacks] == list(by_size.values())


class TestBlockEigh:
    def test_reconstructs_and_stays_on_blocks(self):
        rng = np.random.default_rng(44)
        for sizes in ([4], [1, 1, 1], [3, 1, 4, 3]):
            h, parts = permuted_block_matrix(rng, sizes, hermitian=True)
            evals, w = linalg.block_eigh(h)
            np.testing.assert_allclose((w * evals) @ w.conj().T, h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(w.conj().T @ w, np.eye(h.shape[0]), rtol=0, atol=1e-12)
            on_block = np.zeros(h.shape, dtype=bool)
            for p in parts:
                on_block[np.ix_(p, p)] = True
            assert np.all(w[~on_block] == 0)
            np.testing.assert_allclose(np.sort(evals), np.linalg.eigvalsh(h), rtol=0, atol=1e-12)

    def test_real_input_keeps_real_vectors(self):
        evals, w = linalg.block_eigh(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]))
        assert w.dtype == float
        np.testing.assert_allclose(evals, [1.0, 3.0, 5.0], rtol=0, atol=1e-14)
        assert w[2, 2] == 1.0


class TestTraceNorm:
    def test_blockwise_matches_dense_eigvalsh(self):
        rng = np.random.default_rng(45)
        for sizes in ([3, 1, 4, 2], [8], [1] * 6, [2, 2, 5, 2]):
            h, _ = permuted_block_matrix(rng, sizes, hermitian=True)
            want = float(np.abs(np.linalg.eigvalsh(h)).sum())
            assert linalg.trace_norm(h) == pytest.approx(want, rel=1e-13)

    def test_known_values(self):
        assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)
        assert linalg.trace_norm(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_matches_gram_eigenvalues(self):
        # on Hermitian inputs the singular values are the |eigenvalues|
        rng = np.random.default_rng(21)
        for d in (2, 5, 8):
            m = random_hermitian(rng, d)
            gram = np.linalg.eigvalsh(m.conj().T @ m)
            expected = float(np.sqrt(np.clip(gram, 0, None)).sum())
            assert linalg.trace_norm(m) == pytest.approx(expected, rel=1e-10)
            assert linalg.trace_norm(m) == pytest.approx(
                float(np.abs(np.linalg.eigvalsh(m)).sum()), rel=1e-13
            )

    def test_norm_axioms(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            s = float(rng.uniform(-3, 3))
            assert linalg.trace_norm(a) >= 0.0
            assert linalg.trace_norm(s * a) == pytest.approx(abs(s) * linalg.trace_norm(a), abs=1e-10)
            assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for d in (2, 4):
            m = random_hermitian(rng, d)
            u = random_unitary(rng, d)
            assert linalg.trace_norm(u @ m @ u.conj().T) == pytest.approx(
                linalg.trace_norm(m), abs=1e-10
            )

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            linalg.trace_norm(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        rng = np.random.default_rng(24)
        m = random_hermitian(rng, 4)
        # roundoff-sized asymmetry is taken as its Hermitian part
        off = m.copy()
        off[0, 1] += 0.5 * linalg.TRACE_NORM_HERMITIAN_ATOL
        assert linalg.trace_norm(off) == pytest.approx(linalg.trace_norm(m), abs=1e-8)
        off[0, 1] += linalg.TRACE_NORM_HERMITIAN_ATOL
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.trace_norm(off)
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.trace_norm(random_complex(rng, 3))


    def test_one_adjoint_for_check_and_hermitian_part(self):
        # the value is that of the Hermitian part, bit for bit, and the check
        # names the argument and the deviation
        rng = np.random.default_rng(25)
        h, _ = permuted_block_matrix(rng, [3, 1, 4], hermitian=True)
        h[0, 0] += 1e-12j
        part = linalg.hermitize(h)
        evals = [
            np.linalg.eigvalsh(part[i[:, :, None], i[:, None, :]]).ravel()
            for i in linalg.block_stacks(part)
        ]
        assert linalg.trace_norm(h) == float(np.sum(np.abs(np.concatenate(evals))))
        message = r"trace_norm argument is not Hermitian: max \|M - M\^dag\| = "
        with pytest.raises(ValueError, match=message):
            linalg.trace_norm(h + 1e-6j * np.eye(8))


def hermitian_basis_element(d, p):
    """Element ``p = a + d*b`` of the Hermitian matrix-unit basis, by definition."""
    a, b = p % d, p // d
    e = np.zeros((d, d), dtype=complex)
    if a == b:
        e[a, a] = 1.0
    elif a < b:
        e[a, b] = e[b, a] = np.sqrt(0.5)
    else:
        e[a, b], e[b, a] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    return e


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_basis_is_orthonormal_and_hermitian(self, d):
        q = linalg.hermitian_basis_rows(np.eye(d * d)).conj().T
        np.testing.assert_allclose(q.conj().T @ q, np.eye(d * d), rtol=0, atol=1e-14)
        for p in range(d * d):
            np.testing.assert_array_equal(q[:, p], linalg.vec(hermitian_basis_element(d, p)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_round_trip_is_identity(self, d):
        # oracle: the dense change of basis Q^dag S Q
        rng = np.random.default_rng(80 + d)
        q = linalg.hermitian_basis_rows(np.eye(d * d)).conj().T
        r = rng.standard_normal((d * d, d * d))
        s = linalg.from_hermitian_basis(r)
        np.testing.assert_allclose(q.conj().T @ s @ q, r, rtol=0, atol=1e-13)
        # and from the supermatrix side, on a Hermiticity-preserving map
        kraus = [random_complex(rng, d) for _ in range(3)]
        s = sum(np.kron(k.conj(), k) for k in kraus[1:]) - np.kron(kraus[0].conj(), kraus[0])
        dense = q.conj().T @ s @ q
        assert np.abs(dense.imag).max() <= 1e-12
        np.testing.assert_allclose(linalg.from_hermitian_basis(dense.real), s, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_entries_are_basis_expectations(self, d):
        # oracle: R[k, l] = tr(B_k S(B_l)) from the explicit basis elements
        rng = np.random.default_rng(90 + d)
        u = random_unitary(rng, d)
        s = 0.6 * linalg.unitary_superop(u) + 0.4 * np.outer(
            linalg.vec(np.eye(d)), linalg.vec(np.eye(d))
        ) / d
        basis = [hermitian_basis_element(d, p) for p in range(d * d)]
        want = np.array(
            [[np.trace(bk @ linalg.unvec(s @ linalg.vec(bl))).real for bl in basis] for bk in basis]
        )
        np.testing.assert_allclose(linalg.from_hermitian_basis(want), s, rtol=0, atol=1e-14)


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
    def test_stack_is_reshuffled_matrix_by_matrix(self):
        rng = np.random.default_rng(35)
        stack = np.array([random_complex(rng, 9) for _ in range(2)])
        got = linalg.choi_from_super(stack)
        assert np.array_equal(got, [linalg.choi_from_super(t) for t in stack])

    def test_identity_channel_choi(self):
        d = 2
        omega = np.zeros((4, 4))
        omega[np.ix_([0, 3], [0, 3])] = 0.5
        np.testing.assert_allclose(choi_state(np.eye(4)), omega, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_definition_oracle(self, d):
        rng = np.random.default_rng(50 + d)
        t = linalg.unitary_superop(random_unitary(rng, d))
        np.testing.assert_allclose(choi_state(t), choi_by_definition(t), atol=1e-12)
        # also on a non-unitary supermatrix
        t2 = random_complex(rng, d * d)
        np.testing.assert_allclose(choi_state(t2), choi_by_definition(t2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_roundtrip(self, d):
        rng = np.random.default_rng(60 + d)
        t = random_complex(rng, d * d)
        np.testing.assert_allclose(linalg.choi_to_super(choi_state(t)), t, atol=1e-12)
        j = random_hermitian(rng, d * d)
        np.testing.assert_allclose(choi_state(linalg.choi_to_super(j)), j, atol=1e-12)

    def test_unitary_channel_choi_properties(self):
        rng = np.random.default_rng(70)
        d = 4
        u = random_unitary(rng, d)
        j = choi_state(linalg.unitary_superop(u))
        assert np.trace(j) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(j, j.conj().T, atol=1e-12)
        # trace-preserving: reduced state on the input factor is I/d
        np.testing.assert_allclose(
            np.einsum("aiaj->ij", j.reshape(d, d, d, d)), np.eye(d) / d, atol=1e-10
        )
        # a unitary channel gives a rank-one (pure) Choi state
        evals = np.linalg.eigvalsh(j)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(evals[:-1] < 1e-10)

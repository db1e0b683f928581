"""Tests for Hamiltonian construction and the term-group text format."""

import math

import numpy as np
import pytest

from trotopt.hamiltonians import (
    HamiltonianFormatError,
    build_terms,
    ising_chain,
    parse_hamiltonian_spec,
    pauli_embed,
    pauli_string,
    terms_from_text,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_pauli_embed_places_site_zero_leftmost():
    np.testing.assert_array_equal(pauli_embed("z", 0, 2), np.kron(SZ, np.eye(2)))
    np.testing.assert_array_equal(pauli_embed("x", 1, 2), np.kron(np.eye(2), SX))


def test_pauli_embed_validates_arguments():
    with pytest.raises(ValueError, match="axis"):
        pauli_embed("w", 0, 2)
    with pytest.raises(ValueError, match="out of range"):
        pauli_embed("x", 2, 2)


def test_pauli_string_identity_aliases():
    np.testing.assert_array_equal(pauli_string(".."), np.eye(4))
    np.testing.assert_array_equal(pauli_string("ii"), np.eye(4))
    np.testing.assert_array_equal(pauli_string("zx"), np.kron(SZ, SX))


def test_ising_chain_two_sites():
    h1, h2 = ising_chain(2)
    np.testing.assert_allclose(h1, np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15)
    np.testing.assert_allclose(h2, np.kron(SX, SX), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_term_spectrum_is_binomial(n):
    h1, _ = ising_chain(n)
    evals = np.sort(np.linalg.eigvalsh(h1))
    expected = []
    for k in range(n + 1):
        expected.extend([n - 2 * k] * math.comb(n, k))
    np.testing.assert_allclose(evals, np.sort(expected), atol=1e-12)


def test_ising_chain_terms_are_hermitian():
    for n in (2, 3):
        for h in ising_chain(n):
            np.testing.assert_allclose(h, h.conj().T, atol=1e-15)


def test_ising_chain_periodic_adds_closing_bond():
    _, open_h2 = ising_chain(3)
    _, ring_h2 = ising_chain(3, periodic=True)
    closing = pauli_embed("x", 2, 3) @ pauli_embed("x", 0, 3)
    np.testing.assert_allclose(ring_h2, open_h2 + closing, atol=1e-15)


def test_ising_chain_rejects_bad_sizes():
    with pytest.raises(ValueError, match="at least 2"):
        ising_chain(1)
    with pytest.raises(ValueError, match="at most"):
        ising_chain(5)
    with pytest.raises(ValueError, match="periodic"):
        ising_chain(2, periodic=True)


class TestParser:
    def test_reproduces_ising_chain(self):
        terms = terms_from_text("2 | z. ; .z | xx")
        h1, h2 = ising_chain(2)
        np.testing.assert_allclose(terms[0], h1, atol=1e-15)
        np.testing.assert_allclose(terms[1], h2, atol=1e-15)

    def test_coefficients(self):
        spec = parse_hamiltonian_spec("2 | 1.5 zz ; -0.25 xy")
        assert spec.n_sites == 2
        assert spec.groups == (((1.5, "zz"), (-0.25, "xy")),)

    def test_single_group_single_term(self):
        (h,) = terms_from_text("1 | x")
        np.testing.assert_array_equal(h, SX)

    def test_materialized_terms_are_hermitian(self):
        for h in terms_from_text("3 | z.. ; .z. ; ..z | 2 xx. ; 2 .xx"):
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_missing_groups(self):
        with pytest.raises(HamiltonianFormatError, match="expected"):
            parse_hamiltonian_spec("2")

    def test_bad_site_count(self):
        with pytest.raises(HamiltonianFormatError, match="integer site count"):
            parse_hamiltonian_spec("two | xx")

    def test_wrong_string_length_reports_position(self):
        with pytest.raises(HamiltonianFormatError, match="column 5") as exc:
            parse_hamiltonian_spec("2 | xxx")
        assert exc.value.position == 5

    def test_invalid_character_reports_its_column(self):
        text = "2 | xx ; xq"
        with pytest.raises(HamiltonianFormatError, match="column 11"):
            parse_hamiltonian_spec(text)
        assert text[10] == "q"

    def test_bad_coefficient(self):
        with pytest.raises(HamiltonianFormatError, match="coefficient"):
            parse_hamiltonian_spec("2 | abc xx")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_reports_its_column(self, token):
        text = f"1 | {token} x | z"
        with pytest.raises(HamiltonianFormatError, match="column 5: coefficient must be finite"):
            parse_hamiltonian_spec(text)

    def test_empty_term(self):
        with pytest.raises(HamiltonianFormatError, match="empty term"):
            parse_hamiltonian_spec("2 | xx ; ; zz")

    def test_build_rejects_oversized_register(self):
        spec = parse_hamiltonian_spec("5 | xxxxx")
        with pytest.raises(ValueError, match="beyond the supported"):
            build_terms(spec)

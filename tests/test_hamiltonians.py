"""Tests for Hamiltonian construction and the term-group text format."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from trotopt.hamiltonians import (
    HamiltonianFormatError,
    ising_chain,
    pauli_string,
    terms_from_text,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
README = Path(__file__).resolve().parent.parent / "README.md"


def _on_sites(n_sites, ops):
    """Kronecker product placing ``ops[site]`` on each listed site, identity elsewhere."""
    out = np.eye(1)
    for site in range(n_sites):
        out = np.kron(out, ops.get(site, np.eye(2)))
    return out


def test_pauli_string_places_site_zero_leftmost():
    np.testing.assert_array_equal(pauli_string("z."), np.kron(SZ, np.eye(2)))
    np.testing.assert_array_equal(pauli_string(".x"), np.kron(np.eye(2), SX))


def test_pauli_string_rejects_unknown_character():
    with pytest.raises(ValueError, match="unknown Pauli character 'w'"):
        pauli_string("w.")


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
    np.testing.assert_array_equal(ring_h2, open_h2 + pauli_string("x.x"))


@pytest.mark.parametrize(
    "n, periodic", [(2, False), (3, False), (4, False), (3, True), (4, True)]
)
def test_ising_chain_matches_kron_construction(n, periodic):
    fields = sum(_on_sites(n, {r: SZ}) for r in range(n))
    bonds = [(r, r + 1) for r in range(n - 1)] + ([(n - 1, 0)] if periodic else [])
    couplings = sum(_on_sites(n, {r: SX, s: SX}) for r, s in bonds)
    h1, h2 = ising_chain(n, periodic=periodic)
    np.testing.assert_array_equal(h1, fields)
    np.testing.assert_array_equal(h2, couplings)


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
        (h,) = terms_from_text("2 | 1.5 zz ; -0.25 xy")
        np.testing.assert_array_equal(h, 1.5 * np.kron(SZ, SZ) - 0.25 * np.kron(SX, SY))

    def test_single_group_single_term(self):
        (h,) = terms_from_text("1 | x")
        np.testing.assert_array_equal(h, SX)

    def test_materialized_terms_are_hermitian(self):
        for h in terms_from_text("3 | z.. ; .z. ; ..z | 2 xx. ; 2 .xx"):
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_missing_groups(self):
        with pytest.raises(HamiltonianFormatError, match="expected"):
            terms_from_text("2")

    def test_bad_site_count(self):
        with pytest.raises(HamiltonianFormatError, match="integer site count"):
            terms_from_text("two | xx")

    def test_wrong_string_length_reports_position(self):
        with pytest.raises(HamiltonianFormatError, match="column 5") as exc:
            terms_from_text("2 | xxx")
        assert exc.value.position == 5

    def test_invalid_character_reports_its_column(self):
        text = "2 | xx ; xq"
        with pytest.raises(HamiltonianFormatError, match="column 11"):
            terms_from_text(text)
        assert text[10] == "q"

    def test_bad_coefficient(self):
        with pytest.raises(HamiltonianFormatError, match="coefficient"):
            terms_from_text("2 | abc xx")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_reports_its_column(self, token):
        text = f"1 | {token} x | z"
        with pytest.raises(HamiltonianFormatError, match="column 5: coefficient must be finite"):
            terms_from_text(text)

    def test_empty_term(self):
        with pytest.raises(HamiltonianFormatError, match="empty term"):
            terms_from_text("2 | xx ; ; zz")

    @pytest.mark.parametrize("count", [0, 5])
    def test_site_count_out_of_range_reports_its_column(self, count):
        with pytest.raises(HamiltonianFormatError) as exc:
            terms_from_text(f"  {count} | {'x' * count}")
        assert str(exc.value) == f"column 3: site count must be in [1, 4], got {count}"
        assert exc.value.position == 3

    def test_readme_examples_parse(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Hamiltonian text format", 1)[1].split("\n## ", 1)[0]
        block = section.split("```")[3]
        lines = [re.split(r"\s{2,}", line)[0] for line in block.strip().splitlines()]
        assert lines == ["2 | z. ; .z | 0.5 xx", "1 | x | y"]
        fields, coupling = terms_from_text(lines[0])
        np.testing.assert_array_equal(fields, ising_chain(2)[0])
        np.testing.assert_array_equal(coupling, 0.5 * np.kron(SX, SX))
        np.testing.assert_array_equal(terms_from_text(lines[1]), [SX, SY])

"""Qubit Hamiltonians: Pauli embeddings, the Ising-chain preset, and a small
text format for user-supplied term groups.

The text format describes a Hamiltonian already split into the summands of a
product formula::

    "<n_sites> | <group> | <group> | ..."

Each group is a ``;``-separated list of Pauli strings over ``x``, ``y``,
``z`` and ``.`` (identity), one character per site, optionally prefixed by a
real coefficient, e.g. ``"2 | z. ; .z | xx"`` or ``"3 | 1.5 zzi..."``-style
weighted terms.  Site 0 is the leftmost character and the leftmost Kronecker
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAULIS = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

MAX_SITES = 4  # 2**4 = 16, the largest dense dimension this package supports


class HamiltonianFormatError(ValueError):
    """Raised for malformed Hamiltonian text, with a 1-based column position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"column {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parsed Hamiltonian: site count plus one tuple of (coefficient, pauli
    string) terms per product-formula group."""

    n_sites: int
    groups: tuple[tuple[tuple[float, str], ...], ...]


def pauli_string(s: str) -> np.ndarray:
    """Kronecker product of single-site Paulis; ``.`` and ``i`` mean identity."""
    out = np.array([[1.0 + 0.0j]])
    for ch in s.lower():
        key = "i" if ch == "." else ch
        if key not in PAULIS:
            raise ValueError(f"unknown Pauli character {ch!r}")
        out = np.kron(out, PAULIS[key])
    return out


def pauli_embed(axis: str, site: int, n_sites: int) -> np.ndarray:
    """Single-site Pauli ``axis`` acting on ``site`` of an ``n_sites`` register.

    ``pauli_embed("z", 0, 2)`` is ``sigma_z (x) I``.
    """
    axis = axis.lower()
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    chars = ["."] * n_sites
    chars[site] = axis
    return pauli_string("".join(chars))


def ising_chain(n_sites: int, periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Transverse-coupling Ising splitting ``(H1, H2)`` on a qubit chain.

    ``H1 = sum_r sigma_z^(r)`` collects the on-site fields and
    ``H2 = sum_r sigma_x^(r) sigma_x^(r+1)`` the nearest-neighbour couplings
    of an open chain.  With ``periodic=True`` (three or more sites) the bond
    closing the ring is appended to ``H2``.
    """
    if n_sites < 2:
        raise ValueError(f"ising_chain needs at least 2 sites, got {n_sites}")
    if n_sites > MAX_SITES:
        raise ValueError(f"ising_chain supports at most {MAX_SITES} sites, got {n_sites}")
    if periodic and n_sites < 3:
        raise ValueError("periodic chain needs at least 3 sites")
    dim = 2**n_sites
    h1 = np.zeros((dim, dim), dtype=complex)
    h2 = np.zeros((dim, dim), dtype=complex)
    for r in range(n_sites):
        h1 += pauli_embed("z", r, n_sites)
    for r in range(n_sites - 1):
        h2 += pauli_embed("x", r, n_sites) @ pauli_embed("x", r + 1, n_sites)
    if periodic:
        h2 += pauli_embed("x", n_sites - 1, n_sites) @ pauli_embed("x", 0, n_sites)
    return h1, h2


def _split_tracking(text: str, sep: str, base: int) -> list[tuple[str, int]]:
    """Split on ``sep`` keeping the 0-based offset of each piece in the input."""
    pieces = []
    start = 0
    while True:
        idx = text.find(sep, start)
        if idx < 0:
            pieces.append((text[start:], base + start))
            return pieces
        pieces.append((text[start:idx], base + start))
        start = idx + 1


def _strip_tracking(piece: str, pos: int) -> tuple[str, int]:
    stripped = piece.lstrip()
    return stripped.rstrip(), pos + (len(piece) - len(stripped))


def _parse_term(piece: str, pos: int, n_sites: int) -> tuple[float, str]:
    term, pos = _strip_tracking(piece, pos)
    if not term:
        raise HamiltonianFormatError("empty term", pos + 1)
    tokens = term.split()
    if len(tokens) == 1:
        coeff, word = 1.0, tokens[0]
        word_pos = pos
    elif len(tokens) == 2:
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise HamiltonianFormatError(
                f"expected a real coefficient, got {tokens[0]!r}", pos + 1
            ) from None
        if not math.isfinite(coeff):
            raise HamiltonianFormatError(
                f"coefficient must be finite, got {tokens[0]!r}", pos + 1
            )
        word = tokens[1]
        word_pos = pos + term.rfind(tokens[1])
    else:
        raise HamiltonianFormatError(
            f"term has {len(tokens)} fields, expected 'pauli-string' or 'coeff pauli-string'",
            pos + 1,
        )
    if len(word) != n_sites:
        raise HamiltonianFormatError(
            f"pauli string {word!r} has {len(word)} characters for {n_sites} sites",
            word_pos + 1,
        )
    for k, ch in enumerate(word):
        if ch.lower() not in ("x", "y", "z", ".", "i"):
            raise HamiltonianFormatError(
                f"invalid Pauli character {ch!r} (use x, y, z or .)", word_pos + k + 1
            )
    return coeff, word.lower()


def parse_hamiltonian_spec(text: str) -> HamiltonianSpec:
    """Parse the term-group text format into a :class:`HamiltonianSpec`.

    Raises :class:`HamiltonianFormatError` with a column position when the
    input is malformed.
    """
    fields = _split_tracking(text, "|", 0)
    if len(fields) < 2:
        raise HamiltonianFormatError("expected '<n_sites> | <group> | ...'", 1)
    head, head_pos = _strip_tracking(*fields[0])
    try:
        n_sites = int(head)
    except ValueError:
        raise HamiltonianFormatError(
            f"expected an integer site count, got {head!r}", head_pos + 1
        ) from None
    if n_sites < 1:
        raise HamiltonianFormatError(f"site count must be positive, got {n_sites}", head_pos + 1)
    groups = []
    for piece, pos in fields[1:]:
        terms = tuple(
            _parse_term(tp, tpos, n_sites) for tp, tpos in _split_tracking(piece, ";", pos)
        )
        groups.append(terms)
    return HamiltonianSpec(n_sites=n_sites, groups=tuple(groups))


def build_terms(spec: HamiltonianSpec) -> list[np.ndarray]:
    """Materialize the Hermitian matrix of each group of a parsed spec."""
    if spec.n_sites > MAX_SITES:
        raise ValueError(
            f"{spec.n_sites} sites give dimension {2**spec.n_sites}, beyond the supported 16"
        )
    dim = 2**spec.n_sites
    out = []
    for group in spec.groups:
        h = np.zeros((dim, dim), dtype=complex)
        for coeff, word in group:
            h += coeff * pauli_string(word)
        out.append(h)
    return out


def terms_from_text(text: str) -> list[np.ndarray]:
    """Parse and materialize in one call."""
    return build_terms(parse_hamiltonian_spec(text))

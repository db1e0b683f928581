"""Qubit Hamiltonians in a small text format for product-formula term groups,
and the Ising-chain preset written in that format.

The text format describes a Hamiltonian already split into the summands of a
product formula::

    "<n_sites> | <group> | <group> | ..."

Each group is a ``;``-separated sum of Pauli strings over ``x``, ``y``,
``z`` and ``.`` (identity), one character per site, each optionally prefixed
by a real coefficient, e.g. ``"2 | z. ; .z | 0.5 xx"``.  Site 0 is the
leftmost character and the leftmost Kronecker factor.  :func:`terms_from_text`
is the one place where Pauli strings become term matrices; :func:`ising_chain`
writes its splitting as such text.
"""

from __future__ import annotations

import math

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


def pauli_string(s: str) -> np.ndarray:
    """Kronecker product of single-site Paulis; ``.`` and ``i`` mean identity."""
    out = np.array([[1.0 + 0.0j]])
    for ch in s.lower():
        key = "i" if ch == "." else ch
        if key not in PAULIS:
            raise ValueError(f"unknown Pauli character {ch!r}")
        out = np.kron(out, PAULIS[key])
    return out


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


def terms_from_text(text: str) -> list[np.ndarray]:
    """Parse the term-group text format into one Hermitian matrix per group.

    Raises :class:`HamiltonianFormatError` with a column position when the
    input is malformed or its site count is outside ``[1, MAX_SITES]``.
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
    if not 1 <= n_sites <= MAX_SITES:
        raise HamiltonianFormatError(
            f"site count must be in [1, {MAX_SITES}], got {n_sites}", head_pos + 1
        )
    dim = 2**n_sites
    terms = []
    for piece, pos in fields[1:]:
        h = np.zeros((dim, dim), dtype=complex)
        for term, term_pos in _split_tracking(piece, ";", pos):
            coeff, word = _parse_term(term, term_pos, n_sites)
            h += coeff * pauli_string(word)
        terms.append(h)
    return terms


def ising_chain(n_sites: int, periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Transverse-coupling Ising splitting ``(H1, H2)`` on a qubit chain.

    ``H1 = sum_r sigma_z^(r)`` collects the on-site fields and
    ``H2 = sum_r sigma_x^(r) sigma_x^(r+1)`` the nearest-neighbour couplings
    of an open chain.  With ``periodic=True`` (three or more sites) the bond
    closing the ring is appended to ``H2``.  Three sites read
    ``"3 | z.. ; .z. ; ..z | xx. ; .xx"``, plus ``x.x`` when periodic.
    """
    if n_sites < 2:
        raise ValueError(f"ising_chain needs at least 2 sites, got {n_sites}")
    if n_sites > MAX_SITES:
        raise ValueError(f"ising_chain supports at most {MAX_SITES} sites, got {n_sites}")
    if periodic and n_sites < 3:
        raise ValueError("periodic chain needs at least 3 sites")
    fields = " ; ".join("." * r + "z" + "." * (n_sites - r - 1) for r in range(n_sites))
    bonds = ["." * r + "xx" + "." * (n_sites - r - 2) for r in range(n_sites - 1)]
    if periodic:
        bonds.append("x" + "." * (n_sites - 2) + "x")
    h1, h2 = terms_from_text(f"{n_sites} | {fields} | {' ; '.join(bonds)}")
    return h1, h2

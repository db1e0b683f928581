"""Small dense semidefinite-program solver for Hermitian linear matrix
inequalities.

Problems are posed in primal LMI form: minimize ``c.x`` over real parameters
``x`` subject to one or more blocks ``F0 + sum_i x_i F_i >= 0`` (PSD), where
every ``F`` is complex Hermitian.  Matrix-valued variables are flattened to
real parameters through a fixed basis, handled natively (no real-symmetric
embedding):

* one parameter per diagonal entry ``(a, a)``, basis element ``E_aa``;
* for each pair ``a < b`` (row-major order) two parameters with basis
  elements ``E_ab + E_ba`` and ``i E_ab - i E_ba``, in that order.

The associated dual is ``max -<F0, Z>`` over PSD ``Z`` with
``<F_i, Z> = c_i``; weak duality ``c.x + <F0, Z> = <F(x), Z> >= 0`` holds for
every feasible pair, and both values are recorded at every iterate.  The
reported dual value is evaluated as the Lagrangian bound
``c.x - <F(x), Z>``, which equals ``-<F0, Z>`` whenever the dual equalities
hold exactly and stays a weak-duality partner of the primal value even under
floating-point drift of those equalities, so the reported gap is always the
complementarity ``<S, Z>`` of a strictly PSD pair.

The algorithm is a feasible-start primal-dual interior-point method with
Nesterov-Todd scaling ``W`` (``W Z W = S``), a fixed barrier reduction
factor ``sigma = 0.3``, fraction-to-boundary 0.98 and an iteration cap of
200.  Strict feasibility of the supplied starting point is required (and
checked); infeasibility detection is out of scope.  Block dimensions are
capped at 128.

Everything is dense numpy/scipy and deterministic; a single solve is
single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

SIGMA = 0.3
BOUNDARY_FRACTION = 0.98
MAX_BLOCK_DIM = 128
DEFAULT_MAX_ITER = 200
_KRON_LIMIT = 48  # largest block size for which kron(G.T, G) is materialized


@dataclass(frozen=True)
class HermitianVar:
    """Handle to a Hermitian matrix variable (contiguous parameter slice)."""

    start: int
    dim: int

    @property
    def n_params(self) -> int:
        return self.dim * self.dim


@dataclass(frozen=True)
class ScalarVar:
    """Handle to a single real scalar variable."""

    index: int


@dataclass
class SdpSolution:
    primal: float
    dual: float
    gap: float
    iterations: int
    status: str  # "Optimal" | "IterationCap" | "NumericalFailure"
    x: np.ndarray
    trace: list[tuple[float, float]] = field(default_factory=list)


_PAIR_CACHE: dict[int, list[tuple[int, int]]] = {}


def _pairs(dim: int) -> list[tuple[int, int]]:
    if dim not in _PAIR_CACHE:
        _PAIR_CACHE[dim] = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    return _PAIR_CACHE[dim]


def _basis_entries(dim: int, local: int) -> list[tuple[int, int, complex]]:
    """Sparse entries of the ``local``-th basis element of a dim x dim variable."""
    if local < dim:
        return [(local, local, 1.0 + 0.0j)]
    pair, kind = divmod(local - dim, 2)
    a, b = _pairs(dim)[pair]
    if kind == 0:
        return [(a, b, 1.0 + 0.0j), (b, a, 1.0 + 0.0j)]
    return [(a, b, 1.0j), (b, a, -1.0j)]


def _basis_matrix(dim: int, local: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    for r, c, v in _basis_entries(dim, local):
        m[r, c] = v
    return m


def params_from_hermitian(m: np.ndarray) -> np.ndarray:
    """Parameter slice whose basis expansion is the Hermitian ``m``
    (imaginary diagonal discarded)."""
    dim = m.shape[0]
    values = np.empty(dim * dim)
    values[:dim] = np.diag(m).real
    for pair, (a, b) in enumerate(_pairs(dim)):
        values[dim + 2 * pair] = m[a, b].real
        values[dim + 2 * pair + 1] = m[a, b].imag
    return values


class SdpProblem:
    """Builder for block-diagonal Hermitian LMI problems.

    Add variables, then constraint blocks, then placements that wire variable
    parameters into blocks.  ``solve`` compiles the placements into one
    sparse coefficient matrix per block.
    """

    def __init__(self):
        self.n_params = 0
        self._blocks: list[dict] = []
        self._objective: dict[int, float] = {}

    # -- variables ---------------------------------------------------------

    def add_hermitian(self, dim: int) -> HermitianVar:
        if dim < 1:
            raise ValueError(f"variable dimension must be >= 1, got {dim}")
        var = HermitianVar(start=self.n_params, dim=dim)
        self.n_params += var.n_params
        return var

    def add_scalar(self) -> ScalarVar:
        var = ScalarVar(index=self.n_params)
        self.n_params += 1
        return var

    # -- blocks and placements --------------------------------------------

    def add_block(self, dim: int, const: np.ndarray | None = None) -> int:
        if dim < 1 or dim > MAX_BLOCK_DIM:
            raise ValueError(f"block dimension must be in [1, {MAX_BLOCK_DIM}], got {dim}")
        if const is None:
            f0 = np.zeros((dim, dim), dtype=complex)
        else:
            f0 = np.asarray(const, dtype=complex)
            if f0.shape != (dim, dim):
                raise ValueError(f"constant term has shape {f0.shape}, expected {(dim, dim)}")
            if np.max(np.abs(f0 - f0.conj().T)) > 1e-12:
                raise ValueError("constant term must be Hermitian")
        self._blocks.append({"dim": dim, "f0": f0, "p": [], "pos": [], "val": []})
        return len(self._blocks) - 1

    def _entries(self, block: int, param: int, row: int, col: int, val: complex):
        blk = self._blocks[block]
        n = blk["dim"]
        if not (0 <= row < n and 0 <= col < n):
            raise ValueError(f"entry ({row}, {col}) outside block of dimension {n}")
        blk["p"].append(param)
        blk["pos"].append(row + n * col)
        blk["val"].append(val)

    def place_hermitian(self, block: int, var: HermitianVar, offset: int = 0, coeff: float = 1.0):
        """Embed ``coeff * Y`` on the block diagonal starting at ``offset``."""
        for local in range(var.n_params):
            for r, c, v in _basis_entries(var.dim, local):
                self._entries(block, var.start + local, offset + r, offset + c, coeff * v)

    def place_scalar(self, block: int, var: ScalarVar, coeff: float = 1.0):
        """Add ``coeff * s * I`` to the block."""
        n = self._blocks[block]["dim"]
        for q in range(n):
            self._entries(block, var.index, q, q, complex(coeff))

    def place_linear(self, block: int, var: HermitianVar, op) -> None:
        """Add ``L(Y)`` to the block for a Hermitian-to-Hermitian linear map.

        ``op`` receives each basis element of the variable and must return
        its (dense, Hermitian) contribution to the block.
        """
        for local in range(var.n_params):
            img = np.asarray(op(_basis_matrix(var.dim, local)), dtype=complex)
            rows, cols = np.nonzero(np.abs(img) > 0.0)
            for r, c in zip(rows, cols):
                self._entries(block, var.start + local, int(r), int(c), img[r, c])

    # -- objective ---------------------------------------------------------

    def set_objective_scalar(self, var: ScalarVar, coeff: float):
        self._objective[var.index] = self._objective.get(var.index, 0.0) + float(coeff)

    def set_objective_matrix(self, var: HermitianVar, gamma: np.ndarray):
        """Contribute ``<Gamma, Y>`` to the objective for Hermitian ``Gamma``."""
        gamma = np.asarray(gamma, dtype=complex)
        if np.max(np.abs(gamma - gamma.conj().T)) > 1e-12:
            raise ValueError("objective gradient must be Hermitian")
        coeffs = np.empty(var.n_params)
        coeffs[: var.dim] = np.diag(gamma).real
        for pair, (a, b) in enumerate(_pairs(var.dim)):
            coeffs[var.dim + 2 * pair] = 2.0 * gamma[a, b].real
            coeffs[var.dim + 2 * pair + 1] = 2.0 * gamma[a, b].imag
        for local, cf in enumerate(coeffs):
            if cf != 0.0:
                self._objective[var.start + local] = (
                    self._objective.get(var.start + local, 0.0) + cf
                )

    # -- compiled views ----------------------------------------------------

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_params)
        for idx, cf in self._objective.items():
            c[idx] = cf
        return c

    def compiled_blocks(self) -> list[tuple[int, np.ndarray, sp.csr_matrix]]:
        out = []
        for blk in self._blocks:
            n = blk["dim"]
            a = sp.csr_matrix(
                (blk["val"], (blk["p"], blk["pos"])),
                shape=(self.n_params, n * n),
                dtype=complex,
            )
            out.append((n, blk["f0"], a))
        return out


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(n, n, order="F")


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _psd_sqrt_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(M^(1/2), M^(-1/2), min eigenvalue) of a Hermitian matrix."""
    evals, vecs = np.linalg.eigh(m)
    lo = float(evals[0])
    if lo <= 0.0:
        return np.empty(0), np.empty(0), lo
    root = np.sqrt(evals)
    return (vecs * root) @ vecs.conj().T, (vecs / root) @ vecs.conj().T, lo


def _sandwich_rows(a: sp.csr_matrix, g: np.ndarray, n: int) -> np.ndarray:
    """Dense matrix whose row ``i`` is ``vec(G F_i G)`` for ``F_i = unvec(a[i])``."""
    if n <= _KRON_LIMIT:
        gg = np.kron(g.T, g)
        return a @ gg.T
    m = a.shape[0]
    out = np.empty((m, n * n), dtype=complex)
    chunk = max(1, (1 << 22) // (n * n))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        fs = np.asarray(a[lo:hi].todense()).reshape(hi - lo, n, n).transpose(0, 2, 1)
        ks = g @ fs @ g
        out[lo:hi] = ks.transpose(0, 2, 1).reshape(hi - lo, n * n)
    return out


def _max_step(shrink_half: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with ``M + alpha * D > 0`` given ``M^(-1/2)``."""
    scaled = _hermitize(shrink_half @ direction @ shrink_half)
    lo = float(np.linalg.eigvalsh(scaled)[0])
    if lo >= 0.0:
        return np.inf
    return -1.0 / lo


def solve(
    problem: SdpProblem,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
    z0: list[np.ndarray] | None = None,
) -> SdpSolution:
    """Run the interior-point iteration on a compiled problem.

    ``x0`` must make every block strictly positive definite (defaults to the
    zero vector, i.e. the constant terms themselves must be PD).  ``z0``
    optionally supplies strictly feasible dual blocks; when omitted,
    identity matrices are used and the dual equality residual is driven to
    zero by the iteration itself.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if problem.n_params == 0:
        raise ValueError("problem has no variables")
    if not problem._blocks:
        raise ValueError("problem has no constraint blocks")

    c = problem.objective_vector()
    blocks = problem.compiled_blocks()
    total_dim = sum(n for n, _, _ in blocks)
    m = problem.n_params

    x = np.zeros(m) if x0 is None else np.array(x0, dtype=float).reshape(m)
    if z0 is None:
        zs = [np.eye(n, dtype=complex) for n, _, _ in blocks]
    else:
        zs = [np.array(z, dtype=complex) for z in z0]
        for (n, _, _), z in zip(blocks, zs):
            if z.shape != (n, n):
                raise ValueError("dual start has mismatched block shape")

    trace: list[tuple[float, float]] = []
    best = (np.nan, np.nan)
    status = "IterationCap"
    iterations = 0
    stalls = 0
    # keep the barrier target from collapsing below what double precision can
    # certify; iterates then hover near the tolerance scale instead of
    # grinding into singular S, Z
    mu_floor = 0.25 * tol / total_dim

    def sum_dual_images() -> np.ndarray:
        acc = np.zeros(m)
        for (n, _, a), z in zip(blocks, zs):
            acc += (a.conj() @ z.reshape(-1, order="F")).real
        return acc

    for iterations in range(1, max_iter + 1):
        ss = []
        s_invhalves = []
        ok = True
        for (n, f0, a) in blocks:
            s = _hermitize(f0 + _unvec(a.T @ x, n))
            half, invhalf, lo = _psd_sqrt_pair(s)
            if lo <= 0.0:
                ok = False
                break
            ss.append(s)
            s_invhalves.append((half, invhalf))
        if not ok:
            status = "NumericalFailure"
            break

        primal = float(c @ x)
        comp = sum(float(np.vdot(s, z).real) for s, z in zip(ss, zs))
        dual = primal - comp
        trace.append((primal, dual))
        best = (primal, dual)
        if comp <= tol:
            status = "Optimal"
            break

        mu = max(comp / total_dim, mu_floor)

        # Nesterov-Todd scaling and Newton system assembly per block
        mmat = np.zeros((m, m))
        rhs = np.zeros(m)
        gs = []
        rcs = []
        z_invhalves = []
        failed = False
        for (n, f0, a), s, (s_half, s_invhalf), z in zip(blocks, ss, s_invhalves, zs):
            z_half, z_invhalf, z_lo = _psd_sqrt_pair(z)
            if z_lo <= 0.0:
                failed = True
                break
            z_invhalves.append(z_invhalf)
            inner = _hermitize(s_half @ z @ s_half)
            in_evals, in_vecs = np.linalg.eigh(inner)
            if in_evals[0] <= 0.0:
                failed = True
                break
            inner_half = (in_vecs * np.sqrt(in_evals)) @ in_vecs.conj().T
            g = _hermitize(s_invhalf @ inner_half @ s_invhalf)  # G = W^{-1}
            z_inv = z_invhalf @ z_invhalf
            rc = SIGMA * mu * z_inv - s
            gs.append(g)
            rcs.append(rc)
            rows = _sandwich_rows(a, g, n)
            mmat += (a.conj() @ rows.T).real
            rhs += (a.conj() @ (g @ rc @ g).reshape(-1, order="F")).real
        if failed:
            status = "NumericalFailure"
            break

        rhs -= c - sum_dual_images()

        try:
            chol = np.linalg.cholesky(mmat)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * (1.0 + np.trace(mmat) / m)
            try:
                chol = np.linalg.cholesky(mmat + jitter * np.eye(m))
            except np.linalg.LinAlgError:
                status = "NumericalFailure"
                break
        dx = np.linalg.solve(chol.conj().T, np.linalg.solve(chol, rhs))
        if not np.all(np.isfinite(dx)):
            status = "NumericalFailure"
            break

        alpha_p = 1.0
        alpha_d = 1.0
        dss = []
        dzs = []
        for (n, f0, a), (s_half, s_invhalf), z_invhalf, g, rc in zip(
            blocks, s_invhalves, z_invhalves, gs, rcs
        ):
            ds = _hermitize(_unvec(a.T @ dx, n))
            dz = _hermitize(g @ (rc - ds) @ g)
            dss.append(ds)
            dzs.append(dz)
            alpha_p = min(alpha_p, BOUNDARY_FRACTION * _max_step(s_invhalf, ds))
            alpha_d = min(alpha_d, BOUNDARY_FRACTION * _max_step(z_invhalf, dz))

        if alpha_p < 1e-10 and alpha_d < 1e-10:
            stalls += 1
            if stalls >= 3:
                status = "NumericalFailure"
                break
        else:
            stalls = 0

        x = x + alpha_p * dx
        zs = [z + alpha_d * dz for z, dz in zip(zs, dzs)]

    primal, dual = best
    gap = abs(primal - dual) if np.isfinite(primal) and np.isfinite(dual) else np.inf
    return SdpSolution(
        primal=primal,
        dual=dual,
        gap=gap,
        iterations=iterations,
        status=status,
        x=x,
        trace=trace,
    )

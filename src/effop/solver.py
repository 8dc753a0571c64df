"""Fixed-point solver for the quadratic decoupling equation.

With a = O[P,P], b = O[P,Q], b_dag = O[Q,P] and f = O[Q,Q], a decoupling
map is a root of the lower-left block of the transformed observable,

    qp(s) = b_dag + f s - s (a + b s).

Each sweep freezes the quadratic term at the current iterate and solves
the Sylvester equation ``f s_new - s_new a = s b s - b_dag``, which is
linear in ``s_new`` and uniquely solvable exactly when the spectra of a
and f are disjoint. As s b s - b_dag = f s - s a - qp(s), the sweep is a
correction read off the qp block of the reduction that judges the last
sweep. Both blocks are Hermitian, so they are diagonalized once,
``f = U diag(phi) U^dag`` and ``a = V diag(alpha) V^dag``, and every
sweep is two basis changes and one elementwise division:

    s_new = s - U [(U^dag qp(s) V) / (phi_i - alpha_j)] V^dag.

The smallest ``|phi_i - alpha_j|`` is the gap that decides solvability.

Starting from s = 0 the iteration follows the small-norm branch: the
solution whose model space is dominated by its own components. One
sweep is exact when b = 0. Other solution branches are reachable only
through the eigenvector construction. No global convergence guarantee
is made; strongly coupled blocks may exceed the divergence cap, and
that outcome is reported, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances, util
from .errors import Diverged, MaxIterExceeded, SylvesterSingular, ValidationError
from .spaces import ModelSpace, ObservableMatrix
from .transform import DecouplingMap, Provenance, _require_same_space, transformed_blocks

__all__ = [
    "SolverConfig",
    "TraceStep",
    "SolverTrace",
    "solve_decoupling_fixed_point",
]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = tolerances.SOLVER_TOL
    max_iter: int = 500
    initial_s: np.ndarray | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if util.as_index(self.max_iter, "max_iter") < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class TraceStep:
    iteration: int
    step_norm: float   # ||s_new - s||_F / max(1, ||s||_F)
    residual: float    # decoupling residual at s_new
    s_norm: float


@dataclass(frozen=True)
class SolverTrace:
    steps: tuple[TraceStep, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def monotone_decreasing(self) -> bool:
        """Whether residuals never increased; reported, not enforced."""
        res = [s.residual for s in self.steps]
        return all(later <= earlier for earlier, later in zip(res, res[1:]))


def solve_decoupling_fixed_point(obs: ObservableMatrix, ms: ModelSpace,
                                 config: SolverConfig | None = None):
    """Iterate Sylvester sweeps until the relative step drops below
    ``config.tol`` and the decoupling residual below ``config.tol * ||O||_F``.

    The residual and the spectral gap scale with O, so both are judged
    relative to ``||O||_F``. The step, the divergence cap and ``s`` itself
    are invariant under ``O -> cO``, so they stay absolute.

    Returns ``(map, trace)``. Raises :class:`SylvesterSingular` when
    the diagonal blocks share spectrum, :class:`Diverged` past the norm
    cap, and :class:`MaxIterExceeded` when the budget runs out; both of
    the last two carry the best iterate, its residual and the trace.
    """
    cfg = config or SolverConfig()
    _require_same_space(obs, ms)
    d = ms.dim
    nq = ms.total_dim - d

    scale = obs.norm
    alpha, v = np.linalg.eigh(obs.matrix[np.ix_(ms.p_rows, ms.p_rows)])
    phi, u = np.linalg.eigh(obs.matrix[np.ix_(ms.q_rows, ms.q_rows)])
    denominator = phi[:, None] - alpha[None, :]
    gap = float(np.abs(denominator).min(initial=np.inf))  # inf for the empty complement
    gap_floor = tolerances.SPECTRA_DISJOINT_TOL * scale
    if gap <= gap_floor:
        raise SylvesterSingular(
            f"model and complement diagonal blocks share an eigenvalue within "
            f"{gap_floor:.3e} (gap {gap:.3e}); the sweep equation is singular"
        )
    u_dag, v_dag = u.conj().T, v.conj().T

    initial = np.zeros((nq, d)) if cfg.initial_s is None else cfg.initial_s
    s = util.as_complex_matrix(initial, "initial_s", (nq, d))

    steps: list[TraceStep] = []
    blocks = transformed_blocks(obs, DecouplingMap(ms, s))
    best_s, best_res, best_k = s, blocks.residual, 0
    for k in range(1, cfg.max_iter + 1):
        ds = u @ ((u_dag @ blocks.qp @ v) / denominator) @ v_dag
        step = float(np.linalg.norm(ds) / max(1.0, np.linalg.norm(s)))
        s = util._frozen(s - ds)
        blocks = transformed_blocks(obs, DecouplingMap(ms, s))
        res = blocks.residual
        s_norm = float(np.linalg.norm(s))
        steps.append(TraceStep(k, step, res, s_norm))
        if res < best_res:
            best_s, best_res, best_k = s, res, k
        if not s_norm <= tolerances.DIVERGENCE_CAP:  # NaN too
            kind, message = Diverged, (f"iterate norm {s_norm:.3e} exceeded cap "
                                       f"{tolerances.DIVERGENCE_CAP:.3e} at iteration {k}")
            break
        if step <= cfg.tol and res <= cfg.tol * scale:
            trace = SolverTrace(tuple(steps), True)
            return DecouplingMap(ms, s, Provenance(iterations=k, residual=res)), trace
    else:
        kind, message = MaxIterExceeded, (f"no convergence within {cfg.max_iter} iterations; "
                                          f"best residual {best_res:.3e}")
    best = DecouplingMap(ms, best_s, Provenance(iterations=best_k, residual=best_res))
    raise kind(message, best=best, residual=best_res, trace=SolverTrace(tuple(steps), False))

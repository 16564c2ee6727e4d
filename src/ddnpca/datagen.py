"""Synthetic ground truth and observations: bounded coefficients, moving-support
schedules, and the missing-entry / sparse data-dependent corruption channels."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, ParameterError, ScheduleError
from .linalg import _fix_signs, check_basis, spectral_norm

# Boundedness factor of the coefficient law: a_j^2 <= ETA * lam_j for every
# draw.  The coefficients are uniform, for which it is exactly 3.
ETA = 3.0


@dataclass(frozen=True)
class SignalModel:
    """Low-rank signal generator: columns ell_t = P @ a_t.

    P is an n x r basis matrix, lam the non-increasing positive variance
    profile of the coefficients, which are uniform (boundedness factor ETA).
    """

    P: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        P = check_basis(self.P, name="P")
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.size != P.shape[1]:
            raise DimensionError("lam must be a 1-D array matching the column count of P")
        if np.any(lam <= 0):
            raise ParameterError("lam entries must be strictly positive")
        if np.any(np.diff(lam) > 0):
            raise ParameterError("lam must be non-increasing")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def r(self) -> int:
        return self.P.shape[1]

    @property
    def f(self) -> float:
        return float(self.lam[0] / self.lam[-1])


def sample_coefficients(model: SignalModel, rng: np.random.Generator) -> np.ndarray:
    """One coefficient vector: entry j zero mean with variance lam_j.

    Uniform law on [-sqrt(ETA lam_j), +sqrt(ETA lam_j)]: variance lam_j,
    boundedness factor ETA = 3.
    """
    return _coefficient_matrix(model, 1, rng)[:, 0]


def _coefficient_matrix(model: SignalModel, alpha: int, rng: np.random.Generator) -> np.ndarray:
    # One batch draw, row-major fill; keeps the stream order reproducible.
    half_width = np.sqrt(ETA * model.lam)
    return (2.0 * rng.random((model.r, alpha)) - 1.0) * half_width[:, None]


# ---------------------------------------------------------------------------
# Support schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportSchedule:
    """Sequence of corruption/missing index sets T_t with motion structure.

    Validated at construction:
      1. every distinct support persists at most beta_tilde consecutive
         frames (empty supports are exempt: they carry no corruption);
      2. supports rho changes apart are disjoint;
      3. either the departed-pixel sets of consecutive changes are pairwise
         disjoint (strict one-direction motion), or, failing that, no pixel
         is covered more than rho^2 * beta_tilde times over the schedule.
         The cover bound is what the block-sum norm bound actually needs,
         and it is the only form a wrapped motion can satisfy.

    `condition3_mode` records which of the two held: "strict" or "cover".
    """

    n: int
    supports: tuple[tuple[int, ...], ...]
    s: int
    rho: int
    beta_tilde: int
    condition3_mode: str = field(init=False, default="strict")

    def __post_init__(self):
        if self.n < 1 or self.s < 1 or self.rho < 1 or self.beta_tilde < 1:
            raise ParameterError("n, s, rho, beta_tilde must all be positive")
        if not self.supports:
            raise ScheduleError("schedule must contain at least one frame")
        # Each distinct support is normalised and checked once, at the first
        # frame it appears in, so an error names the same frame as a check
        # of every frame would.
        normalised: dict[tuple, tuple[int, ...]] = {}
        norm_supports = []
        for t, T in enumerate(self.supports):
            T = tuple(T)
            if T not in normalised:
                normalised[T] = self._normalise(t, T)
            norm_supports.append(normalised[T])
        object.__setattr__(self, "supports", tuple(norm_supports))
        report = verify_schedule_conditions(self)
        if not report["condition1"]:
            raise ScheduleError(
                f"a support persists longer than beta_tilde={self.beta_tilde} consecutive frames"
            )
        if not report["condition2"]:
            raise ScheduleError(f"supports rho={self.rho} changes apart are not disjoint")
        if report["condition3"]:
            object.__setattr__(self, "condition3_mode", "strict")
        elif report["cover_bound"]:
            object.__setattr__(self, "condition3_mode", "cover")
        else:
            raise ScheduleError(
                "neither the one-direction motion condition nor the cover bound "
                f"(max cover {report['max_cover']} > rho^2*beta_tilde = {self.beta}) holds"
            )

    def _normalise(self, t: int, T: tuple) -> tuple[int, ...]:
        T = tuple(sorted(int(i) for i in T))
        if len(set(T)) != len(T):
            raise ScheduleError(f"frame {t}: duplicate indices in support")
        if T and (T[0] < 0 or T[-1] >= self.n):
            raise ScheduleError(f"frame {t}: support index out of range [0, {self.n})")
        if len(T) > self.s:
            raise ScheduleError(f"frame {t}: support size {len(T)} exceeds s={self.s}")
        return T

    @property
    def alpha(self) -> int:
        return len(self.supports)

    @property
    def beta(self) -> int:
        return self.rho * self.rho * self.beta_tilde


def _runs(supports) -> list[tuple[tuple[int, ...], int]]:
    """Maximal runs of identical consecutive supports, as (support, length)."""
    return [(T, sum(1 for _ in group)) for T, group in itertools.groupby(supports)]


def verify_schedule_conditions(schedule: SupportSchedule) -> dict:
    """Independently re-check the structural conditions of a schedule."""
    runs = _runs(schedule.supports)
    cond1 = all(length <= schedule.beta_tilde for T, length in runs if T)
    cond2 = all(
        not (set(runs[k][0]) & set(runs[k + schedule.rho][0]))
        for k in range(len(runs) - schedule.rho)
    )
    cond3 = True
    departed: set[int] = set()
    for k in range(len(runs) - 1):
        gone = set(runs[k][0]) - set(runs[k + 1][0])
        if gone & departed:
            cond3 = False
            break
        departed |= gone
    # Cover counts per run: each pixel of a run's support gains its length.
    pixels = np.array([i for T, _ in runs for i in T], dtype=int)
    lengths = np.array([length for T, length in runs for _ in T], dtype=int)
    counts = np.bincount(pixels, weights=lengths, minlength=schedule.n)
    max_cover = int(counts.max()) if schedule.n else 0
    return {
        "condition1": cond1,
        "condition2": cond2,
        "condition3": cond3,
        "cover_bound": max_cover <= schedule.beta,
        "max_cover": max_cover,
    }


def generate_support_schedule(
    n: int,
    alpha: int,
    s: int,
    rho: int,
    beta_tilde: int,
    start: int = 0,
    wrap: bool = False,
) -> SupportSchedule:
    """Constant-velocity support: a contiguous block of size s starting at
    `start`, shifted right by ceil(s/rho) every beta_tilde frames.

    Without `wrap` the motion must fit inside [0, n); the minimal ambient
    dimension is start + s + ceil(s/rho)*ceil(alpha/beta_tilde).  With
    `wrap` the block moves modulo n, which is the only way long windows fit
    in small frames; construction then relies on the cover-bound form of
    the validation (see SupportSchedule).
    """
    if alpha < 1:
        raise ParameterError("alpha must be positive")
    if not 0 <= start < n:
        raise ParameterError(f"start={start} out of range [0, {n})")
    if s > n:
        raise ParameterError(f"s={s} exceeds n={n}")
    step = math.ceil(s / rho)
    if not wrap:
        required = start + s + step * math.ceil(alpha / beta_tilde)
        if required > n:
            raise CapacityError(
                f"support motion does not fit: minimal n is {required}, got {n} "
                "(pass wrap=True for cyclic motion)"
            )
    # Frame t sits at start + step * (t // beta_tilde): one support per run
    # of beta_tilde frames, shared by every frame of the run.
    supports = []
    for k in range(math.ceil(alpha / beta_tilde)):
        p = start + step * k
        if wrap:
            T = tuple(sorted((p + j) % n for j in range(s)))
        else:
            T = tuple(range(p, p + s))
        supports.extend([T] * min(beta_tilde, alpha - k * beta_tilde))
    return SupportSchedule(n=n, supports=tuple(supports), s=s, rho=rho, beta_tilde=beta_tilde)


# ---------------------------------------------------------------------------
# Observation channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MissingNoiseModel:
    """Missing-data channel: entries on T_t are zeroed."""

    schedule: SupportSchedule


@dataclass(frozen=True)
class SddcNoiseModel:
    """Sparse data-dependent corruptions: y = ell + I_T (M_st @ ell) with
    M_st entries iid N(0, q_gen^2)."""

    q_gen: float
    schedule: SupportSchedule

    def __post_init__(self):
        if self.q_gen < 0:
            raise ParameterError(f"q_gen must be non-negative, got {self.q_gen}")


def apply_missing(ell, T) -> np.ndarray:
    """Zero the entries of ell indexed by T."""
    ell = np.asarray(ell, dtype=float)
    y = ell.copy()
    idx = list(T)
    if idx and (min(idx) < 0 or max(idx) >= ell.shape[0]):
        raise DimensionError(f"support index out of range [0, {ell.shape[0]})")
    y[idx] = 0.0
    return y


def apply_sddc(ell, T, Mst) -> np.ndarray:
    """Add the corruption I_T (Mst @ ell); the change is supported within T."""
    ell = np.asarray(ell, dtype=float)
    idx = list(T)
    Mst = np.asarray(Mst, dtype=float)
    if Mst.ndim != 2 or Mst.shape != (len(idx), ell.shape[0]):
        raise DimensionError(
            f"Mst must be {len(idx)}x{ell.shape[0]}, got {Mst.shape}"
        )
    if idx and (min(idx) < 0 or max(idx) >= ell.shape[0]):
        raise DimensionError(f"support index out of range [0, {ell.shape[0]})")
    y = ell.copy()
    if idx:
        y[idx] += Mst @ ell
    return y


# Frames per batch of corruption draws and q measurements.  Fixed: it bounds
# the memory of one batch without changing any output or the draw order.
_FRAME_CHUNK = 64


def generate_dataset(model: SignalModel, noise, alpha: int, rng: np.random.Generator):
    """Draw alpha columns of signal and observations under a noise channel.

    Returns (Y, L, schedule, q_measured) where q_measured is the largest
    observed operator norm of the per-frame correlation map restricted to
    the signal subspace (||I_T' P|| for missing, ||M_st P|| for the sparse
    channel).

    Stream contract: the coefficients are drawn first, in one (r, alpha)
    batch.  The sparse channel then draws each frame's |T_t| x n corruption
    matrix in frame order; frames are handled _FRAME_CHUNK at a time, and
    a chunk's matrices come from one draw whose rows are the frames' rows
    back to back, which consumes the generator exactly as one draw per
    frame would.  Frames with an empty support, and a zero q_gen, draw
    nothing.  Within a chunk, frames are grouped by support size and each
    group is corrupted and measured as one stack of matrices.
    """
    if alpha < 1:
        raise DimensionError("alpha must be positive")
    schedule = noise.schedule
    if schedule.n != model.n:
        raise DimensionError(f"schedule dimension {schedule.n} != model dimension {model.n}")
    if schedule.alpha < alpha:
        raise DimensionError(f"schedule has {schedule.alpha} frames, need {alpha}")
    if not isinstance(noise, (MissingNoiseModel, SddcNoiseModel)):
        raise ParameterError(f"unknown noise model {type(noise).__name__}")

    A = _coefficient_matrix(model, alpha, rng)
    L = model.P @ A
    Y = L.copy()
    q_measured = 0.0

    for first in range(0, alpha, _FRAME_CHUNK):
        last = min(first + _FRAME_CHUNK, alpha)
        supports = schedule.supports[first:last]
        sizes = np.array([len(T) for T in supports])
        if isinstance(noise, SddcNoiseModel):
            shape = (int(sizes.sum()), model.n)
            draws = rng.normal(0.0, noise.q_gen, size=shape) if noise.q_gen > 0 \
                else np.zeros(shape)
            row0 = np.cumsum(sizes) - sizes  # first row of each frame in `draws`
            # The chunk's columns as a view of L, strided as L[:, t] is, so each
            # product below is the BLAS call `Mst @ L[:, t]` makes and sums in
            # the same order (for |T_t| = 1 a dot product, whose order depends
            # on whether the column is contiguous).
            ell = L.T[first:last, :, None]
        for m in np.unique(sizes[sizes > 0]):
            frames = np.flatnonzero(sizes == m)
            T = np.array([supports[i] for i in frames])  # (k, m)
            cols = (first + frames)[:, None]
            if isinstance(noise, MissingNoiseModel):
                Y[T, cols] = 0.0
                q = spectral_norm(model.P[T])
            else:
                if frames.size == last - first:  # one size in the chunk: no copy needed
                    Mst = draws.reshape(-1, m, model.n)
                else:  # frames of other sizes get zero matrices, to line up with `ell`
                    Mst = np.zeros((last - first, m, model.n))
                    Mst[frames] = draws[row0[frames, None] + np.arange(m)]
                Y[T, cols] += (Mst @ ell)[frames, :, 0]
                q = spectral_norm((Mst @ model.P)[frames])
            q_measured = max(q_measured, q)

    return Y, L, schedule, q_measured


def sparse_basis(n: int, r: int) -> np.ndarray:
    """First r columns of the identity."""
    if not 1 <= r <= n:
        raise DimensionError(f"r={r} out of range for n={n}")
    return np.eye(n)[:, :r].copy()


def random_basis(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random basis via QR of a Gaussian matrix, sign-normalized."""
    if not 1 <= r <= n:
        raise DimensionError(f"r={r} out of range for n={n}")
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return _fix_signs(Q)

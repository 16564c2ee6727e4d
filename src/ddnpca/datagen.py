"""Synthetic ground truth and observations: bounded coefficients, moving-support
schedules, and the missing-entry / sparse data-dependent corruption channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, ScheduleError
from .linalg import _fix_signs, check_basis, spectral_norm

# Boundedness factor of the coefficient law: a_j^2 <= ETA * lam_j for every
# draw.  The coefficients are uniform, for which it is exactly 3.
ETA = 3.0


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Low-rank signal generator: columns ell_t = P @ a_t.

    P is an n x r basis matrix, lam the non-increasing positive variance
    profile of the coefficients, which are uniform (boundedness factor ETA).
    Models compare and hash by identity (an array field has no single truth
    value).
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

@dataclass(frozen=True, eq=False)
class SupportSchedule:
    """Sequence of corruption/missing index sets T_t with motion structure.

    `supports` is a read-only (alpha, s) integer array: row t holds the s
    indices of T_t, sorted.  Every frame has exactly s indices; there are no
    empty frames.  Schedules compare and hash by identity (an array field
    has no single truth value).

    Validated at construction:
      1. every distinct support persists at most beta_tilde consecutive
         frames;
      2. supports rho changes apart are disjoint;
      3. either the departed-pixel sets of consecutive changes are pairwise
         disjoint (strict one-direction motion), or, failing that, no pixel
         is covered more than rho^2 * beta_tilde times over the schedule.
         The cover bound is what the block-sum norm bound actually needs,
         and it is the only form a wrapped motion can satisfy.

    `condition3_mode` records which of the two held: "strict" or "cover".
    """

    n: int
    supports: np.ndarray
    rho: int
    beta_tilde: int
    condition3_mode: str = field(init=False, default="strict")

    def __post_init__(self):
        if self.n < 1 or self.rho < 1 or self.beta_tilde < 1:
            raise ParameterError("n, rho, beta_tilde must all be positive")
        try:
            S = np.asarray(self.supports)
        except ValueError:
            raise ScheduleError("supports must be an (alpha, s) array: frames differ in size") \
                from None
        if S.ndim != 2 or 0 in S.shape:
            raise ScheduleError(f"supports must be an (alpha, s) array with alpha, s >= 1, "
                                f"got shape {S.shape}")
        if not np.issubdtype(S.dtype, np.integer):
            raise ScheduleError(f"support indices must be integers, got dtype {S.dtype}")
        S = np.sort(S, axis=1).astype(np.intp, copy=False)
        duplicate = (S[:, 1:] == S[:, :-1]).any(axis=1)
        out_of_range = (S[:, 0] < 0) | (S[:, -1] >= self.n)
        bad = np.flatnonzero(duplicate | out_of_range)
        if bad.size:
            t = bad[0]
            if duplicate[t]:
                raise ScheduleError(f"frame {t}: duplicate indices in support")
            raise ScheduleError(f"frame {t}: support index out of range [0, {self.n})")
        S.flags.writeable = False
        object.__setattr__(self, "supports", S)
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

    @property
    def alpha(self) -> int:
        return self.supports.shape[0]

    @property
    def s(self) -> int:
        return self.supports.shape[1]

    @property
    def beta(self) -> int:
        return self.rho * self.rho * self.beta_tilde


def _rowwise_isin(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """(k, s) mask: A[i, j] is in row i of B.  Entries lie in [0, n), so
    offsetting row i by i*n keeps one membership test from matching rows."""
    offset = (np.arange(A.shape[0]) * n)[:, None]
    return np.isin(A + offset, B + offset)


def verify_schedule_conditions(schedule: SupportSchedule) -> dict:
    """Independently re-check the structural conditions of a schedule.

    Works on its runs: maximal stretches of identical consecutive rows,
    each a distinct support R[k] held for lengths[k] frames.
    """
    S, n, rho = schedule.supports, schedule.n, schedule.rho
    starts = np.flatnonzero(np.r_[True, (S[1:] != S[:-1]).any(axis=1)])
    lengths = np.diff(np.r_[starts, S.shape[0]])
    R = S[starts]
    # Condition 3: no pixel leaves the support at more than one change.
    gone = R[:-1][~_rowwise_isin(R[:-1], R[1:], n)]
    # Cover counts per run: each pixel of a run's support gains its length.
    counts = np.bincount(R.ravel(), weights=np.repeat(lengths, R.shape[1]), minlength=n)
    max_cover = int(counts.max())
    return {
        "condition1": bool(lengths.max() <= schedule.beta_tilde),
        "condition2": not _rowwise_isin(R[:-rho], R[rho:], n).any(),
        "condition3": bool(np.bincount(gone, minlength=1).max() <= 1),
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
) -> SupportSchedule:
    """Constant-velocity support: a contiguous block of size s starting at
    `start`, shifted right by ceil(s/rho) every beta_tilde frames, modulo n.

    A motion that fits inside [0, n) never wraps.  One that does not fit
    wraps around, which is the only way long windows fit in small frames;
    construction then relies on the cover-bound form of the validation (see
    SupportSchedule), which raises ScheduleError when even that fails.
    """
    if min(alpha, s, rho, beta_tilde) < 1:
        raise ParameterError("alpha, s, rho, beta_tilde must all be positive")
    if not 0 <= start < n:
        raise ParameterError(f"start={start} out of range [0, {n})")
    if s > n:
        raise ParameterError(f"s={s} exceeds n={n}")
    step = math.ceil(s / rho)
    S = (start + step * (np.arange(alpha) // beta_tilde)[:, None] + np.arange(s)) % n
    return SupportSchedule(n=n, supports=S, rho=rho, beta_tilde=beta_tilde)


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
    batch.  The sparse channel then draws each frame's s x n corruption
    matrix in frame order; frames are handled _FRAME_CHUNK at a time, and a
    chunk of k frames takes its matrices from one (k, s, n) draw, which
    consumes the generator exactly as one draw per frame would.  A zero
    q_gen draws nothing.  Each chunk is corrupted with one stacked product
    and measured with one stacked `spectral_norm`.
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
        T = schedule.supports[first:last]  # (k, s)
        cols = np.arange(first, last)[:, None]
        if isinstance(noise, MissingNoiseModel):
            Y[T, cols] = 0.0
            q = spectral_norm(model.P[T])
        else:
            shape = (last - first, schedule.s, model.n)
            Mst = rng.normal(0.0, noise.q_gen, size=shape) if noise.q_gen > 0 \
                else np.zeros(shape)
            # The chunk's columns as a view of L, strided as L[:, t] is, so each
            # product is the BLAS call `Mst @ L[:, t]` makes and sums in the
            # same order (for s = 1 a dot product, whose order depends on
            # whether the column is contiguous).
            Y[T, cols] += (Mst @ L.T[first:last, :, None])[:, :, 0]
            q = spectral_norm(Mst @ model.P)
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

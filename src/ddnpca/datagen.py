"""Synthetic ground truth and observations: bounded coefficients, moving-support
schedules, and the missing-entry / sparse data-dependent corruption channels."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (np.isfinite(lam) & (lam > 0)).all():
            raise ParameterError("lam entries must be finite and strictly positive")
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


def _coefficient_matrix(model: SignalModel, alpha: int, rng: np.random.Generator) -> np.ndarray:
    # Entry (j, t) uniform on [-sqrt(ETA lam_j), sqrt(ETA lam_j)], variance lam_j.
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
    """

    n: int
    supports: np.ndarray
    rho: int
    beta_tilde: int

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
        if not (report["condition3"] or report["cover_bound"]):
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


def _rowwise_isin(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(k, s) mask: A[i, j] is in row i of B, tested against each entry of
    the row at once, a (k, s, s) comparison, as supports are short."""
    return (A[:, :, None] == B[:, None, :]).any(axis=2)


def _run_starts(S: np.ndarray) -> np.ndarray:
    """First frame of each run of an (alpha, s) support array: the maximal
    stretches of identical consecutive rows."""
    return np.flatnonzero(np.r_[True, (S[1:] != S[:-1]).any(axis=1)])


def verify_schedule_conditions(schedule: SupportSchedule) -> dict:
    """Independently re-check the structural conditions of a schedule.

    Works on its runs (see `_run_starts`), each a distinct support R[k]
    held for lengths[k] frames.
    """
    S, n, rho = schedule.supports, schedule.n, schedule.rho
    starts = _run_starts(S)
    lengths = np.diff(np.r_[starts, S.shape[0]])
    R = S[starts]
    # Condition 3: no pixel leaves the support at more than one change.
    gone = R[:-1][~_rowwise_isin(R[:-1], R[1:])]
    # Cover counts per run: each pixel of a run's support gains its length.
    counts = np.bincount(R.ravel(), weights=np.repeat(lengths, R.shape[1]), minlength=n)
    max_cover = int(counts.max())
    return {
        "condition1": bool(lengths.max() <= schedule.beta_tilde),
        "condition2": not _rowwise_isin(R[:-rho], R[rho:]).any(),
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
    first_run: int = 0,
) -> SupportSchedule:
    """Constant-velocity support: a contiguous block of size s starting at
    `start`, shifted right by ceil(s/rho) every beta_tilde frames, modulo n;
    the schedule opens with run `first_run` of that motion.

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
    S = (start + step * (first_run + np.arange(alpha) // beta_tilde)[:, None] + np.arange(s)) % n
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
        if not self.q_gen >= 0 or not math.isfinite(self.q_gen):
            raise ParameterError(f"q_gen must be finite and non-negative, got {self.q_gen}")


# Frames per batch of sparse-channel corruption draws and products.
# Fixed: it bounds the memory of one draw without changing any output or the
# draw order.  At expt1's shape (s = 5, n = 500) the draw buffer is 0.32 MB,
# under the 300 x 300 Gram that `run`'s main thread decomposes meanwhile; at
# 64 frames (1.28 MB) it raised the run's peak by ~1.2 MB.
_FRAME_CHUNK = 16


def generate_dataset(model: SignalModel, noise, alpha: int, rng: np.random.Generator):
    """Draw alpha columns of signal and observations under a noise channel.

    Returns (Y, q_measured).  The schedule is `noise.schedule`.  q_measured
    is the largest operator norm of the per-frame correlation map restricted
    to the signal subspace: ||I_T' P|| on the missing channel, ||M_st P|| on
    the sparse one.

    Y is built as the signal `model.P @ A`, A the r x alpha coefficient
    matrix, and corrupted in place; no second n x alpha array is made.  A is
    not returned: it is the generator's first draw, so a caller that needs
    it draws it again from a copy of the generator taken before the call
    (`_coefficient_matrix(model, alpha, rng)`), and `model.P @ A` then has
    the signal's bits.  The missing channel zeroes every frame's support
    with one assignment and measures q once per run of identical supports,
    as frames of one run have the same matrix I_T' P.

    Stream contract: the coefficients are drawn first, in one (r, alpha)
    batch.  The sparse channel then draws each frame's s x n corruption
    matrix in frame order; frames are handled _FRAME_CHUNK (16) at a time,
    so the draw holds at most 16 s n floats.  A chunk of k frames fills one
    reused (k, s, n) buffer with `standard_normal`, then multiplies it by
    q_gen and adds 0.0 in place: `rng.normal(0.0, q_gen)` draws each value
    as 0.0 + q_gen*z from the same z, and adding 0.0 changes only a -0.0
    (to +0.0), so the buffer holds that draw's bits and the generator is
    consumed exactly as one draw per frame would.  Each chunk is corrupted
    with one stacked product, which reads the chunk's columns before
    writing them; q is one stacked `spectral_norm` of every frame's M_st P.
    A zero q_gen draws nothing: it adds +0.0 on the supports, turning a
    -0.0 there into +0.0 as the product with a zero matrix would, and q is
    0.  Y, q_measured and the generator's final state are bit for bit those
    of a frame-by-frame loop.
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

    Y = model.P @ _coefficient_matrix(model, alpha, rng)
    S = schedule.supports[:alpha]

    if isinstance(noise, MissingNoiseModel):
        Y[S, np.arange(alpha)[:, None]] = 0.0
        return Y, spectral_norm(model.P[S[_run_starts(S)]])

    if noise.q_gen == 0:
        # +0.0, the product with a zero matrix, turns a -0.0 there into +0.0
        Y[S, np.arange(alpha)[:, None]] += 0.0
        return Y, 0.0

    draw = np.empty((min(_FRAME_CHUNK, alpha), schedule.s, model.n))  # reused by every chunk
    MP = np.empty((alpha, schedule.s, model.r))  # each frame's M_st P, for q
    for first in range(0, alpha, _FRAME_CHUNK):
        last = min(first + _FRAME_CHUNK, alpha)
        Mst = draw[:last - first]
        rng.standard_normal(out=Mst)
        Mst *= noise.q_gen
        Mst += 0.0  # as rng.normal adds its mean: turns a -0.0 into +0.0
        # The chunk's columns of Y, read before they are written, as a view
        # strided as Y[:, t] is, so each product is the BLAS call
        # `Mst @ ell_t` makes and sums in the same order (for s = 1 a dot
        # product, whose order depends on whether the column is contiguous).
        Y[S[first:last], np.arange(first, last)[:, None]] += \
            (Mst @ Y.T[first:last, :, None])[:, :, 0]
        np.matmul(Mst, model.P, out=MP[first:last])
    return Y, spectral_norm(MP)


def sparse_basis(n: int, r: int) -> np.ndarray:
    """First r columns of the identity."""
    if not 1 <= r <= n:
        raise DimensionError(f"r={r} out of range for n={n}")
    return np.eye(n, r)


def random_basis(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random basis via QR of a Gaussian matrix, sign-normalized."""
    if not 1 <= r <= n:
        raise DimensionError(f"r={r} out of range for n={n}")
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return _fix_signs(Q)

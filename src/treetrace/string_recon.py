"""Desk-scale string reconstructors and mean-based separation machinery.

Expected-value formulas for zero-padded traces, a polynomial arc search that
certifies how distinguishable two candidate strings are, a single-coordinate
pairwise test, and two candidate-sweep reconstructors (max-likelihood and
nearest-exact-mean).  Candidates are rows of one uint8 bit matrix, scored
together with numpy; likelihood sums accumulate in log space with -inf
marking impossible traces.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import _check_q
from .trees import SymbolString

ARC_GRID_POINTS = 1024
FULL_SWEEP_CAP = 20  # all of {0,1}^n only up to here
_EMBED_LEN_CAP = 62  # int64 embedding counts stay exact below this length
_MEAN_BLOCK_ROWS = 1 << 16  # candidates per matrix product in mean_reconstruct


class DegeneratePairError(ValueError):
    """The two candidates are identical."""


class InconsistentTracesError(ValueError):
    """Some trace is not a subsequence of any candidate."""


@dataclass(frozen=True)
class SeparationWitness:
    """Evidence that two candidates' expected traces differ detectably.

    j is the smallest coordinate maximising the exact mean gap; z maximises
    |A(z)| over the sampled arc, w = (z - q)/p is the transformed point.
    """

    j: int
    magnitude: float
    L: int
    z: complex
    w: complex
    poly_value: float


def _bits(s: str) -> np.ndarray:
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def _candidate_matrix(n: int, candidates: Sequence[SymbolString | str] | None) -> np.ndarray:
    """Candidates as uint8 bit rows in lexicographic order.

    None means all of {0,1}^n (row i is i in binary), up to FULL_SWEEP_CAP;
    anything else is a nonempty list of length-n binary strings.  The first
    best row is therefore the lexicographically smallest best candidate.
    """
    if candidates is None:
        if n > FULL_SWEEP_CAP:
            raise ValueError(f"full sweep over {{0,1}}^n capped at n={FULL_SWEEP_CAP}")
        rows = np.arange(1 << n)
        codes = np.empty((1 << n, n), dtype=np.uint8)
        for j in range(n):
            codes[:, j] = (rows >> (n - 1 - j)) & 1
        return codes
    strings = sorted(str(c) for c in candidates)
    if not strings:
        raise ValueError("empty candidate list")
    if any(len(c) != n for c in strings):
        raise ValueError("all candidates must have length n")
    bits = _bits("".join(strings))
    if np.any(bits > 1):
        raise ValueError("candidates must be binary")
    return bits.reshape(len(strings), n)


def _row_string(row: np.ndarray) -> SymbolString:
    return SymbolString((row + ord("0")).tobytes().decode(), "01")


@lru_cache(maxsize=64)
def mean_matrix(n: int, q: float) -> np.ndarray:
    """M with M[j, k] = p * C(k, j) p^j q^(k-j): expected padded trace = M @ bits."""
    p = 1.0 - q
    M = np.zeros((n, n))
    for k in range(n):
        for j in range(k + 1):
            M[j, k] = p * math.comb(k, j) * p**j * q ** (k - j)
    return M


def _exact_means(codes: np.ndarray, q: float) -> np.ndarray:
    """Row i is the exact mean vector of bit row i: codes @ M.T.

    The product is summed over k in a fixed order, so a row gets bitwise the
    same vector alone as in a batch, and ties between candidates stay ties.
    """
    mt = mean_matrix(codes.shape[1], q).T
    out = np.zeros(codes.shape)
    for k, col in enumerate(codes.T):
        out += col[:, None] * mt[k]
    return out


def exact_mean_vector(s: SymbolString | str, q: float) -> np.ndarray:
    """E[padded trace] under the plain string deletion channel, coordinatewise."""
    _check_q(q)
    return _exact_means(_bits(str(s))[None, :], q)[0]


def empirical_mean_vector(traces: Sequence[SymbolString | str], n: int) -> np.ndarray:
    """Coordinatewise average of traces zero-padded to length n."""
    if not traces:
        raise ValueError("empty trace list")
    acc = np.zeros(n)
    for t in traces:
        text = str(t)
        if len(text) > n:
            raise ValueError(f"trace longer than n={n}")
        if text:
            acc[: len(text)] += _bits(text)
    acc /= len(traces)
    return acc


def default_arc_parameter(n: int) -> int:
    """The arc index used throughout: the integer part of n^(1/3), at least 1."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def arc_max_abs(coeffs: np.ndarray, L: int):
    """Max of |sum_k a_k z^k| over ARC_GRID_POINTS points on the arc |arg z| <= pi/L."""
    theta = np.linspace(-math.pi / L, math.pi / L, ARC_GRID_POINTS)
    z = np.exp(1j * theta)
    powers = z[:, None] ** np.arange(len(coeffs))[None, :]
    vals = np.abs(powers @ coeffs.astype(complex))
    i = int(np.argmax(vals))
    return float(vals[i]), complex(z[i])


def find_separation(x: SymbolString | str, y: SymbolString | str, q: float) -> SeparationWitness:
    """Arc search plus exact-mean gap for a pair of distinct candidates."""
    xs, ys = str(x), str(y)
    if xs == ys:
        raise DegeneratePairError("candidates are identical")
    if len(xs) != len(ys):
        raise ValueError("candidates must have equal length")
    L = default_arc_parameter(len(xs))
    a = _bits(xs).astype(np.int64) - _bits(ys).astype(np.int64)
    poly_value, z = arc_max_abs(a, L)
    p = 1.0 - q
    w = (z - q) / p
    gaps = np.abs(exact_mean_vector(xs, q) - exact_mean_vector(ys, q))
    j = int(np.argmax(gaps))  # argmax takes the smallest maximising index
    return SeparationWitness(j, float(gaps[j]), L, z, w, poly_value)


def distinguish_pair(
    x: SymbolString | str, y: SymbolString | str, traces: Sequence[SymbolString | str], q: float
) -> SymbolString:
    """Pick whichever candidate's exact mean is closer at the witness coordinate."""
    xs, ys = str(x), str(y)
    wit = find_separation(xs, ys, q)
    n = len(xs)
    emp = empirical_mean_vector(traces, n)[wit.j]
    dx = abs(emp - exact_mean_vector(xs, q)[wit.j])
    dy = abs(emp - exact_mean_vector(ys, q)[wit.j])
    if dx < dy:
        return SymbolString(xs, "01")
    if dy < dx:
        return SymbolString(ys, "01")
    return SymbolString(min(xs, ys), "01")


def embedding_counts(cands: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Subsequence embedding counts of one trace in every candidate row."""
    n_c, width = cands.shape
    m = len(trace)
    if m > width:
        return np.zeros(n_c, dtype=np.int64)
    g = np.zeros((n_c, m + 1), dtype=np.int64)
    g[:, 0] = 1
    for i in range(width):
        eq = cands[:, i : i + 1] == trace[None, :]
        g[:, 1:] += eq * g[:, :-1]
    return g[:, m]


def ml_reconstruct(
    traces: Sequence[SymbolString | str],
    n: int,
    q: float,
    candidates: Sequence[SymbolString | str] | None = None,
) -> SymbolString:
    """Maximum-likelihood candidate under the i.i.d. deletion channel.

    Scores every candidate (all of {0,1}^n when candidates is None) by the
    summed log probability of the traces and returns the best, breaking ties
    toward the lexicographically smallest.
    """
    _check_q(q)
    if not traces:
        raise ValueError("empty trace list")
    codes = _candidate_matrix(n, candidates)
    if n > _EMBED_LEN_CAP:
        raise ValueError(f"candidate length {n} exceeds exact-count cap")
    log_q = math.log(q) if q > 0 else -math.inf
    log_p = math.log(1.0 - q)
    scores = np.zeros(len(codes))
    # One pass over the distinct traces, each adding its log-likelihood per row.
    for text, mult in Counter(str(t) for t in traces).items():
        ell = len(text)
        counts = embedding_counts(codes, _bits(text))
        with np.errstate(divide="ignore"):
            ll = np.log(counts.astype(float))
        ll += ell * log_p
        drop = n - ell
        if drop > 0:
            ll += drop * log_q  # -inf when q == 0 and symbols were dropped
        elif drop < 0:
            ll[:] = -math.inf
        scores += mult * ll
    if not np.any(np.isfinite(scores)):
        raise InconsistentTracesError(
            "every candidate has zero likelihood: some trace embeds in none of them"
        )
    return _row_string(codes[np.argmax(scores)])


def mean_reconstruct(
    traces: Sequence[SymbolString | str],
    n: int,
    q: float,
    candidates: Sequence[SymbolString | str] | None = None,
) -> SymbolString:
    """Candidate whose exact mean vector is sup-norm closest to the empirical one.

    One matrix product per block of rows scores every candidate; ties go to
    the lexicographically smallest.
    """
    _check_q(q)
    emp = empirical_mean_vector(traces, n)
    codes = _candidate_matrix(n, candidates)
    gaps = np.concatenate([
        np.abs(_exact_means(block, q) - emp).max(axis=1, initial=0.0)
        for block in np.split(codes, range(_MEAN_BLOCK_ROWS, len(codes), _MEAN_BLOCK_ROWS))
    ])
    return _row_string(codes[np.argmin(gaps)])

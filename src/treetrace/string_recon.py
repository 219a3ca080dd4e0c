"""Desk-scale string reconstructors and mean-based separation machinery.

Expected-value formulas for zero-padded traces, a polynomial arc search that
certifies how distinguishable two candidate strings are, a single-coordinate
pairwise test, and two candidate-sweep reconstructors (max-likelihood and
nearest-exact-mean).  Candidate sweeps are vectorised with numpy; likelihood
sums accumulate in log space with -inf marking impossible traces.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .trees import SymbolString

ARC_GRID_POINTS = 1024
FULL_SWEEP_CAP = 20  # all of {0,1}^n only up to here
_EMBED_LEN_CAP = 62  # int64 embedding counts stay exact below this length

Reconstructor = Callable[[Sequence[SymbolString], int, float], SymbolString]


class DegeneratePairError(ValueError):
    """The two candidates are identical."""


class InconsistentTracesError(ValueError):
    """Some trace is not a subsequence of any candidate."""


@dataclass(frozen=True)
class MeanVector:
    """Per-position expected values of zero-padded traces."""

    values: tuple[float, ...]
    n: int
    q: float

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ValueError("length mismatch")

    def __getitem__(self, j: int) -> float:
        return self.values[j]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


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


class CandidateSet:
    """Equal-length candidate strings: all of {0,1}^n or an explicit list."""

    def __init__(self, n: int, strings: Iterable[SymbolString | str] | None = None):
        self.n = n
        if strings is None:
            if n > FULL_SWEEP_CAP:
                raise ValueError(f"full sweep over {{0,1}}^n capped at n={FULL_SWEEP_CAP}")
            self._strings: list[str] | None = None
        else:
            out = [str(s) for s in strings]
            if any(len(s) != n for s in out):
                raise ValueError("all candidates must have length n")
            if any(set(s) - {"0", "1"} for s in out):
                raise ValueError("candidates must be binary")
            self._strings = out

    def strings(self) -> list[str]:
        if self._strings is None:
            # format(0, "00b") is "0", not the empty string.
            self._strings = (
                [format(i, f"0{self.n}b") for i in range(1 << self.n)] if self.n else [""]
            )
        return self._strings

    def __len__(self) -> int:
        return len(self.strings()) if self._strings is not None else 1 << self.n

    def __iter__(self):
        return iter(self.strings())


def _bits(s: str) -> np.ndarray:
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def _codes_matrix(strings: Sequence[str]) -> np.ndarray:
    joined = "".join(strings)
    width = len(strings[0])
    return (np.frombuffer(joined.encode(), dtype=np.uint8) - ord("0")).reshape(
        len(strings), width
    )


@lru_cache(maxsize=64)
def mean_matrix(n: int, q: float) -> np.ndarray:
    """M with M[j, k] = p * C(k, j) p^j q^(k-j): expected padded trace = M @ bits."""
    p = 1.0 - q
    M = np.zeros((n, n))
    for k in range(n):
        for j in range(k + 1):
            M[j, k] = p * math.comb(k, j) * p**j * q ** (k - j)
    return M


def exact_mean_vector(s: SymbolString | str, q: float) -> MeanVector:
    """E[padded trace] under the plain string deletion channel, coordinatewise."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    text = str(s)
    n = len(text)
    vals = mean_matrix(n, q) @ _bits(text) if n else np.zeros(0)
    return MeanVector(tuple(float(v) for v in vals), n, q)


def empirical_mean_vector(traces: Sequence[SymbolString | str], n: int) -> MeanVector:
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
    return MeanVector(tuple(float(v) for v in acc), n, float("nan"))


def default_arc_parameter(n: int) -> int:
    """The arc index used throughout: the integer part of n^(1/3), at least 1."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def arc_max_abs(coeffs: np.ndarray, L: int, grid: int = ARC_GRID_POINTS):
    """Max of |sum_k a_k z^k| over a grid on the arc |arg z| <= pi/L."""
    theta = np.linspace(-math.pi / L, math.pi / L, grid)
    z = np.exp(1j * theta)
    powers = z[:, None] ** np.arange(len(coeffs))[None, :]
    vals = np.abs(powers @ coeffs.astype(complex))
    i = int(np.argmax(vals))
    return float(vals[i]), complex(z[i])


def find_separation(
    x: SymbolString | str, y: SymbolString | str, q: float, L: int | None = None
) -> SeparationWitness:
    """Arc search plus exact-mean gap for a pair of distinct candidates."""
    xs, ys = str(x), str(y)
    if xs == ys:
        raise DegeneratePairError("candidates are identical")
    if len(xs) != len(ys):
        raise ValueError("candidates must have equal length")
    n = len(xs)
    if L is None:
        L = default_arc_parameter(n)
    if L < 1:
        raise ValueError("L must be >= 1")
    a = _bits(xs).astype(np.int64) - _bits(ys).astype(np.int64)
    poly_value, z = arc_max_abs(a, L)
    p = 1.0 - q
    w = (z - q) / p
    gaps = np.abs(
        np.asarray(exact_mean_vector(xs, q).values)
        - np.asarray(exact_mean_vector(ys, q).values)
    )
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


def _resolve_candidates(
    n: int, candidates: CandidateSet | Sequence[SymbolString | str] | None
) -> list[str]:
    if candidates is None:
        candidates = CandidateSet(n)
    if isinstance(candidates, CandidateSet):
        return candidates.strings()
    out = [str(c) for c in candidates]
    if not out:
        raise ValueError("empty candidate list")
    return out


def _log_likelihood_scores(cand_strings: list[str], traces, q: float) -> np.ndarray:
    """Total log-likelihood per candidate; candidates may differ in length."""
    counter = Counter(str(t) for t in traces)
    scores = np.zeros(len(cand_strings))
    by_len: dict[int, list[int]] = {}
    for i, c in enumerate(cand_strings):
        by_len.setdefault(len(c), []).append(i)
    log_q = math.log(q) if q > 0 else -math.inf
    log_p = math.log(1.0 - q)
    for width, idx in by_len.items():
        if width > _EMBED_LEN_CAP:
            raise ValueError(f"candidate length {width} exceeds exact-count cap")
        mat = _codes_matrix([cand_strings[i] for i in idx])
        sub = np.zeros(len(idx))
        for text, mult in counter.items():
            ell = len(text)
            counts = embedding_counts(mat, _bits(text))
            with np.errstate(divide="ignore"):
                ll = np.log(counts.astype(float))
            ll += ell * log_p
            drop = width - ell
            if drop > 0:
                ll += drop * log_q  # -inf when q == 0 and symbols were dropped
            elif drop < 0:
                ll[:] = -math.inf
            sub += mult * ll
        scores[idx] = sub
    return scores


def _pick_best(cand_strings: list[str], scores: np.ndarray, maximise: bool) -> str:
    best = np.max(scores) if maximise else np.min(scores)
    tied = [cand_strings[i] for i in np.flatnonzero(scores == best)]
    return min(tied)


def ml_reconstruct(
    traces: Sequence[SymbolString | str],
    n: int,
    q: float,
    candidates: CandidateSet | Sequence[SymbolString | str] | None = None,
) -> SymbolString:
    """Maximum-likelihood candidate under the i.i.d. deletion channel.

    Scores every candidate by the summed log probability of the traces and
    returns the best, breaking ties toward the lexicographically smallest.
    """
    if not traces:
        raise ValueError("empty trace list")
    cand_strings = _resolve_candidates(n, candidates)
    scores = _log_likelihood_scores(cand_strings, traces, q)
    if not np.any(np.isfinite(scores)):
        raise InconsistentTracesError(
            "every candidate has zero likelihood: some trace embeds in none of them"
        )
    return SymbolString(_pick_best(cand_strings, scores, maximise=True), "01")


def mean_reconstruct(
    traces: Sequence[SymbolString | str],
    n: int,
    q: float,
    candidates: CandidateSet | Sequence[SymbolString | str] | None = None,
) -> SymbolString:
    """Candidate whose exact mean vector is sup-norm closest to the empirical one."""
    if not traces:
        raise ValueError("empty trace list")
    cand_strings = _resolve_candidates(n, candidates)
    width = max(n, max(len(c) for c in cand_strings))
    emp = np.zeros(width)
    counter = Counter(str(t) for t in traces)
    total = sum(counter.values())
    for text, mult in counter.items():
        if len(text) > width:
            raise ValueError("trace longer than every candidate")
        if text:
            emp[: len(text)] += mult * _bits(text).astype(float)
    emp /= total
    scores = np.empty(len(cand_strings))
    for i, c in enumerate(cand_strings):
        exact = np.zeros(width)
        if c:
            exact[: len(c)] = mean_matrix(len(c), q) @ _bits(c)
        scores[i] = np.max(np.abs(emp - exact)) if width else 0.0
    return SymbolString(_pick_best(cand_strings, scores, maximise=False), "01")

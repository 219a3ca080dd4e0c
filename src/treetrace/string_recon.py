"""Desk-scale string reconstructors and mean-based separation machinery.

Expected-value formulas for zero-padded traces, a batched exact-mean gap and
polynomial arc search that certify how distinguishable pairs of candidate
strings are (`find_separation` is the one-pair case), and two
candidate-sweep reconstructors (max-likelihood and nearest-exact-mean).
The mean sweep scores candidates as rows of one uint8 bit matrix.  Maximum
likelihood walks the candidates' prefix trie once for all traces and scores
only the candidates in which every trace embeds.  A trie node's DP row
holds every trace's embedding counts, then a constant 1 and the node's
code, so one shift-and-add per level extends the counts and the code
together.  Over a candidate list the trie is path-compressed: where every
live node has one listed child, for several levels in a row (a forced run),
each node takes that child alone, with no listed search, and the fit is
tested once at the end of the run.  The likelihood sums accumulate in log space, in one array pass
per trie piece that adds the traces in tally order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import _binary, _check_ints, _check_q

ARC_GRID_POINTS = 1024
FULL_SWEEP_CAP = 20  # all of {0,1}^n only up to here
_EMBED_LEN_CAP = 62  # int64 embedding counts stay exact below this length
_MEAN_BLOCK_ROWS = 1 << 16  # candidates per matrix product in mean_reconstruct
_TRIE_LEVEL_BYTES = 2 << 20  # DP state of one trie level in ml_reconstruct
_PAIR_BLOCK_ROWS = (1 << 19) // (8 * ARC_GRID_POINTS)  # pairs per 512 KiB block in _separations
_BIT_PAIR = np.array([0, 1])


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


def _check_n(n: int) -> None:
    if type(n) is not int:  # every decode checks its n; an int skips the call
        _check_ints(n=n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _sorted_rows(n: int, candidates: Sequence[str] | None) -> np.ndarray | None:
    """A candidate list as uint8 bit rows in lexicographic order.

    None means all of {0,1}^n, allowed up to FULL_SWEEP_CAP, and stays None;
    anything else must be a nonempty list of length-n binary strings.
    """
    if candidates is None:
        if n > FULL_SWEEP_CAP:
            raise ValueError(f"full sweep over {{0,1}}^n capped at n={FULL_SWEEP_CAP}")
        return None
    try:  # sorting or joining fails on an item that is not a str
        strings = sorted(candidates)
        text = "".join(strings)
    except TypeError:
        raise ValueError("candidates must be binary strings") from None
    if not strings:
        raise ValueError("empty candidate list")
    if any(len(c) != n for c in strings):
        raise ValueError("all candidates must have length n")
    bits = _bits(text)
    if np.any(bits > 1):
        raise ValueError("candidates must be binary strings")
    return bits.reshape(len(strings), n)


def _candidate_matrix(n: int, candidates: Sequence[str] | None) -> np.ndarray:
    """Candidates as uint8 bit rows in lexicographic order.

    Row i of the full sweep is i in binary, so the first best row is the
    lexicographically smallest best candidate.
    """
    codes = _sorted_rows(n, candidates)
    if codes is None:
        rows = np.arange(1 << n)
        codes = np.empty((1 << n, n), dtype=np.uint8)
        for j in range(n):
            codes[:, j] = (rows >> (n - 1 - j)) & 1
    return codes


def _row_string(row: np.ndarray) -> str:
    return (row + ord("0")).tobytes().decode()


@lru_cache(maxsize=64)
def mean_matrix(n: int, q: float) -> np.ndarray:
    """M with M[j, k] = p * C(k, j) p^j q^(k-j): expected padded trace = M @ bits."""
    p = 1.0 - q
    M = np.zeros((n, n))
    for k in range(n):
        for j in range(k + 1):
            M[j, k] = p * math.comb(k, j) * p**j * q ** (k - j)
    return M


def _row_sums(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """codes @ table, summed over k in a fixed order from exact 0/1 terms.

    So a row gets bitwise the same values alone as in a batch, and ties
    between candidates stay ties; a BLAS product does not promise that.
    """
    out = np.zeros((len(codes), table.shape[1]))
    for col, row in zip(codes.T, table):
        out += col[:, None] * row
    return out


def exact_mean_vector(s: str, q: float) -> np.ndarray:
    """E[padded trace] under the plain string deletion channel, coordinatewise."""
    _check_q(q)
    return _row_sums(_bits(_binary(s, "s"))[None, :], mean_matrix(len(s), q).T)[0]


def empirical_mean_vector(traces: Sequence[str], n: int) -> np.ndarray:
    """Coordinatewise average of traces zero-padded to length n."""
    _check_n(n)
    if not traces:
        raise ValueError("empty trace list")
    acc = np.zeros(n)
    for text in traces:
        if not isinstance(text, str):
            raise ValueError("traces must be binary strings")
        if len(text) > n:
            raise ValueError(f"trace longer than n={n}")
        if text:
            acc[: len(text)] += _bits(_binary(text))
    acc /= len(traces)
    return acc


def default_arc_parameter(n: int) -> int:
    """The arc index used throughout: the integer part of n^(1/3), at least 1."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


@lru_cache(maxsize=16)
def _arc_grid(n: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The arc's grid points z and the powers z^k, k < n; read-only, shared."""
    theta = np.linspace(-math.pi / L, math.pi / L, ARC_GRID_POINTS)
    z = np.exp(1j * theta)
    powers = z[:, None] ** np.arange(n)[None, :]
    z.flags.writeable = powers.flags.writeable = False
    return z, powers


def _separations(codes: np.ndarray, left: np.ndarray, right: np.ndarray, q: float):
    """Witness parts (j, magnitude, z, poly_value) for each pair of bit rows.

    Pair i is codes[left[i]] against codes[right[i]].  Every row gets its
    exact means and arc values once; the pairs then go in blocks of
    _PAIR_BLOCK_ROWS, and a pair's witness does not depend on its block.
    """
    _check_q(q)
    n = codes.shape[1]
    z, powers = _arc_grid(n, default_arc_parameter(n))
    means = _row_sums(codes, mean_matrix(n, q).T)
    arcs = _row_sums(codes, np.hstack([powers.real.T, powers.imag.T]))
    re, im = arcs[:, :ARC_GRID_POINTS], arcs[:, ARC_GRID_POINTS:]
    js, magnitudes, at, values = [], [], [], []
    for lo in range(0, len(left), _PAIR_BLOCK_ROWS):
        a, b = left[lo : lo + _PAIR_BLOCK_ROWS], right[lo : lo + _PAIR_BLOCK_ROWS]
        gaps = np.abs(means[a] - means[b])
        j = gaps.argmax(axis=1)  # argmax takes the smallest maximising index
        dre, dim = re[a] - re[b], im[a] - im[b]
        squares = dre * dre + dim * dim  # a quarter of np.hypot's time
        k = squares.argmax(axis=1)
        rows = np.arange(len(a))
        js.append(j)
        magnitudes.append(gaps[rows, j])
        at.append(k)
        values.append(np.hypot(dre[rows, k], dim[rows, k]))
    return (np.concatenate(js), np.concatenate(magnitudes), z[np.concatenate(at)],
            np.concatenate(values))


def find_separation(x: str, y: str, q: float) -> SeparationWitness:
    """Arc search plus exact-mean gap for a pair of distinct binary candidates."""
    if x == y:
        raise DegeneratePairError("candidates are identical")
    if len(x) != len(y):
        raise ValueError("candidates must have equal length")
    codes = _bits(_binary(x, "x") + _binary(y, "y")).reshape(2, len(x))
    (j,), (gap,), (z,), (value,) = _separations(codes, np.array([0]), np.array([1]), q)
    z = complex(z)
    w = (z - q) / (1.0 - q)
    return SeparationWitness(int(j), float(gap), default_arc_parameter(len(x)), z, w, float(value))


def _trie_leaves(texts: list[str], n: int, listed: np.ndarray | None):
    """Yield (codes, counts) for the length-n candidates in which every trace embeds.

    A trie node is a prefix with one int64 DP row: n zero columns (a level
    drops one), then for each trace t the embedding counts of t's prefixes
    of length 0..longest in the prefix, then a constant 1 and the code (bit d
    weighs 2^(n - d)).  A trace's block starts with, and a shorter trace's
    ends in, the symbol 2, which matches no bit.  A level's children are one
    shift-and-add of two views of the rows, which also adds the bit's weight
    to the code.  `listed` holds the sorted codes of a candidate list, or
    None for all of {0,1}^n.  A node is dropped once some trace's unmatched
    suffix is longer than the positions left; counts[k, t] embeds trace t in
    codes[k].  A level whose DP state would pass _TRIE_LEVEL_BYTES is split
    into two halves finished depth-first, so pieces still come in code order.

    After each listed search, a node's listed codes are a range of `listed`:
    they share every bit down to the highest bit where the range's first and
    last codes differ, so each node has one listed child at every level
    above it.  The levels that are forced so for every node (the run, down
    to stop) take each node's child by its first code's bit, one row each.
    Their fit is tested once, at stop: a trace that no longer fits a prefix
    fits none of its extensions, so the survivors, and their codes and
    counts, are those of testing every level.
    """
    ells = np.array([len(t) for t in texts])
    if ells.max() > n:  # a trace longer than n embeds in no candidate
        return
    width = int(ells.max()) + 1
    symbols = _bits("".join("2" + t.ljust(width - 1, "2") for t in texts))
    # eqs[b, c] is what bit b carries from column c into c + 1; int64, as g is.
    eqs = np.zeros((2, n + len(symbols) + 1), dtype=np.int64)
    eqs[:, n:-2] = symbols[1:] == _BIT_PAIR[:, None]
    starts = np.arange(len(texts)) * width
    needs = starts + np.maximum(ells, np.arange(n, -1, -1)[:, None])  # columns, per depth
    g = np.zeros((1, n + len(symbols) + 2), dtype=np.int64)
    g[0, n + starts] = g[0, -2] = 1
    stack = [(0, g)]
    while stack:
        depth, g = stack.pop()
        while depth < n and len(g):
            if 2 * g.nbytes > _TRIE_LEVEL_BYTES and len(g) > 1:
                stack.append((depth, g[len(g) // 2 :].copy()))
                g = g[: len(g) // 2].copy()
                continue
            depth += 1
            eqs[1, -1] = 1 << (n - depth)
            kids = g[:, None, :-1] * eqs[:, depth - 1 :]
            kids += g[:, None, 1:]
            kids = kids.reshape(2 * len(g), -1)
            keep = np.logical_and.reduce(kids.take(needs[depth], axis=1), axis=1)
            if listed is not None:  # live iff some listed code lies in [code, code + 2^(n - depth))
                lo, hi = listed.searchsorted(kids[:, -1] + [[0], [1 << (n - depth)]])
                keep &= hi > lo
            g = kids.compress(keep, axis=0)
            if listed is not None and len(g):  # the forced run: every row's codes agree to stop
                first, last = listed[lo[keep]], listed[hi[keep] - 1]
                stop = n - int(np.bitwise_or.reduce(first ^ last)).bit_length()
                if depth < stop:
                    while depth < stop:
                        depth += 1
                        eqs[1, -1] = 1 << (n - depth)
                        bits = (first >> (n - depth)) & 1
                        eq = eqs[bits[0] if len(g) == 1 else bits, depth - 1 :]  # one row: a view
                        g = g[:, :-1] * eq + g[:, 1:]
                    g = g.compress(np.logical_and.reduce(g.take(needs[depth], axis=1), axis=1),
                                   axis=0)
        if len(g):  # copied, since a view would keep g alive
            yield g[:, -1].copy(), g.take(starts + ells, axis=1)


def _piece_scores(tally: Counter, n: int, q: float, pieces):
    """Yield (codes, scores) per trie piece; scores[k] is codes[k]'s log-likelihood.

    A trace of length l that embeds c ways in a candidate adds
    mult * (log c + l log p + (n - l) log q), the last term only when
    symbols were dropped, so q = 0 never forms 0 * -inf.  One array pass
    per piece forms these terms as a traces x candidates array and sums it
    down the traces with np.add.accumulate, which adds row after row in
    tally order (np.add.reduce may sum pairwise), so every score is bitwise
    the tally-order loop's.  The last row is copied, so that the array does
    not outlive its piece.
    """
    log_q = math.log(q) if q > 0 else -math.inf
    ells = np.array([len(text) for text in tally])[:, None]
    mults = np.array(list(tally.values()))[:, None]
    kept = ells * math.log(1.0 - q)
    dropped = ells < n
    lost = np.multiply(n - ells, log_q, out=np.zeros(kept.shape), where=dropped)
    for codes, counts in pieces:
        ll = np.log(counts.T, dtype=float, order="C")
        ll += kept
        ll += lost  # log c >= 0 and kept <= 0 never sum to -0.0, so + 0.0 changes no bit
        ll *= mults
        np.add.accumulate(ll, axis=0, out=ll)
        yield codes, ll[-1].copy()


def ml_reconstruct(
    traces: Sequence[str],
    n: int,
    q: float,
    candidates: Sequence[str] | None = None,
) -> str:
    """Maximum-likelihood candidate under the i.i.d. deletion channel.

    Scores every candidate (all of {0,1}^n when candidates is None) by the
    summed log probability of the traces and returns the best, breaking ties
    toward the lexicographically smallest.  One walk of the candidates'
    prefix trie (_trie_leaves) finds the candidates of nonzero likelihood;
    no other candidate is scored.  Each piece of the walk is scored in one
    array pass (_piece_scores), summed over the distinct traces in tally order.
    """
    _check_q(q)
    _check_n(n)
    if not traces:
        raise ValueError("empty trace list")
    try:  # counting or joining fails on a trace that is not a str
        tally = Counter(traces)
        _binary("".join(tally))
    except TypeError:
        raise ValueError("traces must be binary strings") from None
    rows = _sorted_rows(n, candidates)
    if n > _EMBED_LEN_CAP:
        raise ValueError(f"candidate length {n} exceeds exact-count cap")
    listed = None if rows is None else rows.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
    pieces = list(_piece_scores(tally, n, q, _trie_leaves(list(tally), n, listed)))
    if len(pieces) > 1:
        pieces = [tuple(map(np.concatenate, zip(*pieces)))]
    if not pieces or not np.isfinite(pieces[0][1]).any():
        raise InconsistentTracesError(
            "every candidate has zero likelihood: some trace embeds in none of them"
        )
    found, scores = pieces[0]
    best = int(found[scores.argmax()])
    return format(best, "b").zfill(n) if n else ""


def mean_reconstruct(
    traces: Sequence[str],
    n: int,
    q: float,
    candidates: Sequence[str] | None = None,
) -> str:
    """Candidate whose exact mean vector is sup-norm closest to the empirical one.

    One matrix product per block of rows scores every candidate; ties go to
    the lexicographically smallest.
    """
    _check_q(q)
    emp = empirical_mean_vector(traces, n)
    codes = _candidate_matrix(n, candidates)
    gaps = np.concatenate([
        np.abs(_row_sums(block, mean_matrix(n, q).T) - emp).max(axis=1, initial=0.0)
        for block in np.split(codes, range(_MEAN_BLOCK_ROWS, len(codes), _MEAN_BLOCK_ROWS))
    ])
    return _row_string(codes[np.argmin(gaps)])

import contextlib
import itertools
import math
import os
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetrace import channels, instances, string_recon, tree_recon, verify
from treetrace.string_recon import (
    FULL_SWEEP_CAP,
    DegeneratePairError,
    InconsistentTracesError,
    default_arc_parameter,
    _candidate_matrix,
    _row_string,
    empirical_mean_vector,
    exact_mean_vector,
    find_separation,
    mean_reconstruct,
    ml_reconstruct,
)
from treetrace.trees import enumerate_trees
from treetrace.verify import enumeration_mean_vector, sample_empirical_mean
from conftest import make_rng
import oracles


def test_exact_mean_examples():
    assert exact_mean_vector("1", 0.5) == pytest.approx((0.5,))
    assert exact_mean_vector("11", 0.5) == pytest.approx((0.75, 0.25))


def test_exact_mean_matches_enumeration():
    rng = make_rng("mean-enum")
    for L in range(1, 9):
        for _ in range(12):
            s = "".join(rng.choice(["0", "1"], size=L))
            for q in (0.1, 0.5):
                exact = exact_mean_vector(s, q)
                oracle = enumeration_mean_vector(s, q)
                assert np.max(np.abs(exact - oracle)) <= 1e-12


def test_empirical_mean_examples():
    got = empirical_mean_vector(["1", "", "11"], 2)
    assert got == pytest.approx((2 / 3, 1 / 3))
    assert empirical_mean_vector(["101"] * 7, 3) == pytest.approx((1, 0, 1))
    with pytest.raises(ValueError):
        empirical_mean_vector([], 3)
    with pytest.raises(ValueError):
        empirical_mean_vector(["1111"], 3)


def test_empirical_mean_concentrates():
    rng = make_rng("emp-mean")
    s = "1011010010"
    n_samples = 100_000
    emp = sample_empirical_mean(s, 0.3, n_samples, rng)
    exact = exact_mean_vector(s, 0.3)
    assert np.max(np.abs(emp - exact)) <= 5 / math.sqrt(n_samples)


def scatter_empirical_mean(s: str, q: float, n_samples: int, rng) -> np.ndarray:
    """The (n_samples, n) float scatter that sample_empirical_mean replaced."""
    n = len(s)
    keep = rng.random((n_samples, n)) >= q
    ranks = keep.cumsum(axis=1) - 1
    bits = np.frombuffer(s.encode(), np.uint8) - ord("0")
    acc = np.zeros((n_samples, n))
    rows, cols = np.nonzero(keep)
    acc[rows, ranks[rows, cols]] = bits[cols]
    return acc.mean(axis=0)


@pytest.mark.parametrize("q", [0.1, 0.5])
@pytest.mark.parametrize("s", ["0", "1", "0000011111", "1011010010", "111111111111",
                               "101101001", "1011010010111011"])
def test_sample_empirical_mean_matches_the_scatter_bitwise(s, q):
    ours, theirs = make_rng(f"emp-scatter:{s}"), make_rng(f"emp-scatter:{s}")
    got = sample_empirical_mean(s, q, 5_000, ours)
    want = scatter_empirical_mean(s, q, 5_000, theirs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_enumeration_mean_matches_the_subsequence_law():
    for L in range(9):
        for bits in itertools.product("01", repeat=L):
            s = "".join(bits)
            for q in (0.0, 0.1, 0.5, 0.9):
                got = enumeration_mean_vector(s, q)
                want = oracles.subsequence_mean_vector(s, q)
                assert got.shape == (L,)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-14, (s, q)


def test_mean_helpers_reject_strings_past_the_enumeration_cap():
    s = "10" * 8 + "1"
    assert len(s) == channels.SUBSEQ_ENUM_CAP + 1
    with pytest.raises(channels.SizeCapError):
        enumeration_mean_vector(s, 0.5)
    with pytest.raises(channels.SizeCapError):
        sample_empirical_mean(s, 0.5, 10, make_rng("mean-cap"))


def full_arc_scan(n: int) -> float:
    """Min over all 3^n - 1 nonzero a of max |A(z)|, in itertools order."""
    _, powers = string_recon._arc_grid(n, default_arc_parameter(n))
    nonzero = (a for a in itertools.product((-1, 0, 1), repeat=n) if any(a))
    worst = math.inf
    while batch := list(itertools.islice(nonzero, 64)):
        vals = np.abs(np.asarray(batch, dtype=float) @ powers.T).max(axis=1)
        worst = min(worst, float(vals.min()))
    return worst


@pytest.mark.parametrize("n", range(1, 8))
def test_arc_worst_half_scan_matches_the_full_scan(n):
    assert verify._arc_worst(n) == pytest.approx(full_arc_scan(n), rel=1e-15, abs=0)


def test_find_separation_examples():
    wit = find_separation("10", "01", 0.5)
    assert wit.j == 0
    assert wit.magnitude == pytest.approx(0.25)
    wit = find_separation("110", "111", 0.0)
    assert wit.j == 2
    assert wit.magnitude == pytest.approx(1.0)
    with pytest.raises(DegeneratePairError):
        find_separation("10", "10", 0.5)
    with pytest.raises(ValueError):
        find_separation("1", "10", 0.5)


def test_find_separation_all_pairs_small():
    for n in range(1, 6):
        strings = ["".join(b) for b in itertools.product("01", repeat=n)]
        for x, y in itertools.combinations(strings, 2):
            wit = find_separation(x, y, 0.5)
            assert wit.magnitude > 1e-12
            assert wit.poly_value > 1e-12
            assert abs(abs(wit.z) - 1.0) < 1e-12
            assert abs(np.angle(wit.z)) <= math.pi / wit.L + 1e-12
            gaps = np.abs(exact_mean_vector(x, 0.5) - exact_mean_vector(y, 0.5))
            assert (wit.j, wit.magnitude) == (np.argmax(gaps), np.max(gaps))
            theta = np.linspace(-math.pi / wit.L, math.pi / wit.L, string_recon.ARC_GRID_POINTS)
            grid = np.exp(1j * theta)
            a = np.array([int(c) for c in x]) - np.array([int(c) for c in y])
            vals = np.abs(np.polyval(a[::-1], grid))
            assert wit.poly_value == pytest.approx(vals.max(), rel=1e-12)
            (at,) = np.flatnonzero(grid == wit.z)  # z is a grid point attaining the maximum
            assert vals[at] == pytest.approx(vals.max(), rel=1e-12)


@pytest.mark.parametrize("block", [None, 1], ids=["default-block", "block-1"])
def test_batched_witnesses_equal_one_pair_calls(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(string_recon, "_PAIR_BLOCK_ROWS", block)
    q = 0.3
    for n in range(1, 6):
        codes = _candidate_matrix(n, None)
        left, right = np.triu_indices(len(codes), 1)
        js, gaps, zs, values = string_recon._separations(codes, left, right, q)
        for i, (a, b) in enumerate(zip(left, right)):
            wit = find_separation(_row_string(codes[a]), _row_string(codes[b]), q)
            got = (wit.j, wit.magnitude, wit.z, wit.poly_value)
            assert got == (js[i], gaps[i], zs[i], values[i])


@pytest.mark.parametrize("q", [1.0, 1.5, -0.5])
def test_find_separation_rejects_q_outside_unit_interval(monkeypatch, q):
    monkeypatch.setattr(string_recon, "_row_sums", None)  # no mean or arc work may start
    with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\), got "):
        find_separation("10", "01", q)


def test_default_arc_parameter():
    assert default_arc_parameter(1) == 1
    assert default_arc_parameter(8) == 2
    assert default_arc_parameter(27) == 3


def test_distinguish_pair_examples():
    rng = make_rng("distinguish")
    x, y = "10", "01"
    traces = [oracles.string_trace(x, 0.0, rng) for _ in range(5)]
    assert oracles.distinguish_pair(x, y, traces, 0.0) == x
    # Empirical mean [0.51, 0.01]: 50 "1", 1 "11", 49 empty traces.
    traces = ["1"] * 50 + ["11"] + [""] * 49
    assert oracles.distinguish_pair(x, y, traces, 0.5) == x


def test_distinguish_pair_error_rate_hoeffding():
    # At magnitude 0.25 and N=1000 the Hoeffding bound is ~6e-14: no errors.
    rng = make_rng("hoeffding")
    x, y = "10", "01"
    errors = 0
    for _ in range(300):
        traces = channels.string_traces(x, 0.5, 1000, rng)
        errors += oracles.distinguish_pair(x, y, traces, 0.5) != x
    assert errors == 0


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


def _reference_ml(traces, n, q, candidates=None):
    """The exhaustive ML sweep: one embedding-count DP per distinct trace over every row."""
    codes = _candidate_matrix(n, candidates)
    log_q = math.log(q) if q > 0 else -math.inf
    log_p = math.log(1.0 - q)
    scores = np.zeros(len(codes))
    for text, mult in Counter(str(t) for t in traces).items():
        ell = len(text)
        trace = np.frombuffer(text.encode(), np.uint8) - ord("0")
        with np.errstate(divide="ignore"):
            ll = np.log(embedding_counts(codes, trace).astype(float))
        ll += ell * log_p
        drop = n - ell
        if drop > 0:
            ll += drop * log_q
        elif drop < 0:
            ll[:] = -math.inf
        scores += mult * ll
    if not np.any(np.isfinite(scores)):
        raise InconsistentTracesError("every candidate has zero likelihood")
    return "".join(map(str, codes[np.argmax(scores)]))


def test_embedding_counts_vectorised_matches_scalar():
    rng = make_rng("embed")
    for _ in range(200):
        L = int(rng.integers(1, 10))
        ell = int(rng.integers(0, L + 1))
        cands = ["".join(rng.choice(["0", "1"], size=L)) for _ in range(8)]
        trace = "".join(rng.choice(["0", "1"], size=ell))
        mat = (np.frombuffer("".join(cands).encode(), np.uint8) - ord("0")).reshape(8, L)
        tr = np.frombuffer(trace.encode(), np.uint8) - ord("0")
        got = embedding_counts(mat, tr)
        want = [channels.count_embeddings(c, trace) for c in cands]
        assert got.tolist() == want


def _oracle_cases():
    """Seeded (traces, n, q, candidates) cases, with a tally of what they cover."""
    rng = make_rng("trie-oracle")
    seen = Counter()
    for case in range(3000):
        n = case % 11
        q = (0.0, 0.1, 0.3, 0.5, 0.8)[case // 11 % 5]
        source = "".join(rng.choice(["0", "1"], size=n))
        traces = channels.string_traces(source, q, int(rng.integers(1, 9)), rng)
        kind = int(rng.integers(4))
        if kind == 0:
            seen["full sweep"] += 1
            cands = None
        else:
            every = ["".join(b) for b in itertools.product("01", repeat=n)]
            size = 1 if kind == 1 else int(rng.integers(1, min(len(every), 40) + 1))
            cands = [every[i] for i in rng.choice(len(every), size=size, replace=False)]
            seen["single candidate" if size == 1 else "list"] += 1
        if rng.random() < 0.1:
            traces.append("".join(rng.choice(["0", "1"], size=n + 1)))
            seen["trace longer than n"] += 1
        yield traces, n, q, cands
    assert min(seen.values()) >= 200, seen


@pytest.mark.parametrize("level_bytes", [None, 256], ids=["default-budget", "256B-budget"])
def test_trie_ml_matches_exhaustive_sweep(level_bytes, monkeypatch):
    # A 256-byte budget splits every level of more than a few nodes, so
    # pieces finish depth-first and the tie-break rests on their order.
    if level_bytes is not None:
        monkeypatch.setattr(string_recon, "_TRIE_LEVEL_BYTES", level_bytes)
    outcomes = Counter()
    for traces, n, q, cands in _oracle_cases():
        try:
            want = _reference_ml(traces, n, q, cands)
        except InconsistentTracesError:
            with pytest.raises(InconsistentTracesError):
                ml_reconstruct(traces, n, q, cands)
            outcomes["inconsistent"] += 1
        else:
            assert ml_reconstruct(traces, n, q, cands) == want, (traces, n, q, cands)
            outcomes["decoded"] += 1
    assert outcomes["inconsistent"] >= 200 and outcomes["decoded"] >= 1000, outcomes


ZERO_LIKELIHOOD = "every candidate has zero likelihood: some trace embeds in none of them"


def _walk_cases(seen: Counter):
    """Seeded (texts, n, candidates) for the trie walk; seen tallies the edges covered."""
    rng = make_rng("trie-walk")
    for case in range(330):
        n = case % 11
        q = (0.0, 0.2, 0.5, 0.8)[case // 11 % 4]
        source = "".join(rng.choice(["0", "1"], size=n))
        texts = channels.string_traces(source, q, int(rng.integers(1, 7)), rng)
        every = ["".join(b) for b in itertools.product("01", repeat=n)]
        size = (None, 1, int(rng.integers(1, min(len(every), 24) + 1)))[case % 3]
        cands = None if size is None else [every[i] for i in
                                           rng.choice(len(every), size=size, replace=False)]
        if rng.random() < 0.15:
            texts.append("".join(rng.choice(["0", "1"], size=n + 1)))
        if case % 5 == 0:  # the walk also takes a text twice
            texts.append(texts[0])
        seen["n = 0"] += n == 0
        seen["n = 1"] += n == 1
        seen["q = 0"] += q == 0.0
        seen["repeated text"] += len(set(texts)) < len(texts)
        seen["trace longer than n"] += max(map(len, texts)) > n
        seen["full sweep"] += cands is None
        seen["one candidate"] += size == 1
        seen["list"] += size is not None and size > 1
        yield texts, n, cands


def _embedding_table(texts, n, cands):
    """Codes and counts (candidates x texts) of every candidate in which all texts embed."""
    rows = _candidate_matrix(n, cands)
    bits = [np.frombuffer(t.encode(), np.uint8) - ord("0") for t in texts]
    counts = np.stack([embedding_counts(rows, b) for b in bits], axis=1)
    live = (counts > 0).all(axis=1)
    return [int(_row_string(row) or "0", 2) for row in rows[live]], counts[live]


@pytest.mark.parametrize("level_bytes", [None, 256], ids=["default-budget", "256B-budget"])
def test_trie_walk_is_the_brute_force_embedding_table(level_bytes, monkeypatch):
    # The walk's leaves themselves, not only the argmax that ml_reconstruct takes.
    if level_bytes is not None:
        monkeypatch.setattr(string_recon, "_TRIE_LEVEL_BYTES", level_bytes)
    seen = Counter()
    for texts, n, cands in _walk_cases(seen):
        listed = None if cands is None else np.array(sorted(int(c or "0", 2) for c in cands))
        pieces = list(string_recon._trie_leaves(texts, n, listed))
        want_codes, want_counts = _embedding_table(texts, n, cands)
        got_codes = [int(c) for codes, _ in pieces for c in codes]
        assert got_codes == want_codes, (texts, n, cands)
        assert all(codes.dtype == counts.dtype == np.int64 for codes, counts in pieces)
        got_counts = np.concatenate([counts for _, counts in pieces]) if pieces else want_counts
        assert got_counts.tolist() == want_counts.tolist(), (texts, n, cands)
        seen["split walk"] += len(pieces) > 1
        seen["no listed candidate fits"] += not want_codes and cands is not None
        if not want_codes:
            with pytest.raises(InconsistentTracesError, match=f"^{ZERO_LIKELIHOOD}$"):
                ml_reconstruct(texts, n, 0.5, cands)
    if level_bytes is None:  # the default budget splits nothing this small
        assert seen.pop("split walk") == 0, seen
    assert min(seen.values()) >= 10, seen


def _run_cases():
    """Seeded (texts, n, candidates) whose candidates share long runs of bits.

    Each candidate is a base string with a few bits flipped; the texts are
    traces of one candidate, and sometimes of a string from outside the list.
    """
    rng = make_rng("trie-runs")
    for case in range(300):
        n = int(rng.integers(1, 25))
        base = rng.integers(0, 2, size=n)
        flips = rng.random((int(rng.integers(1, 31)), n)) < rng.uniform(0.02, 0.25)
        cands = sorted({"".join(map(str, (base ^ f).tolist())) for f in flips})
        q = (0.0, 0.2, 0.5)[case % 3]
        texts = channels.string_traces(cands[int(rng.integers(len(cands)))], q,
                                       int(rng.integers(1, 7)), rng)
        if rng.random() < 0.3:
            texts += channels.string_traces("".join(rng.choice(["0", "1"], size=n)), q, 1, rng)
        yield texts, n, cands


def _forced_runs(texts, n, cands):
    """The unsplit walk's forced runs, by its rule in plain Python, and its leaves.

    A run follows each listed search: down to the shortest common prefix of
    a live node's first and last listed codes, each node takes its first
    code's bits, and the fit is tested at the end.  Each run is (rows at its
    start, the depth it reaches, rows that die in it).
    """
    def fits(prefix):  # what of each text the positions left cannot hold embeds in prefix
        return all(_embeds(t[: max(len(t) - n + len(prefix), 0)], prefix) for t in texts)

    runs, nodes, depth = [], [""], 0
    while depth < n and nodes:
        depth += 1
        nodes = [p + b for p in nodes for b in "01"
                 if fits(p + b) and any(c.startswith(p + b) for c in cands)]
        ranges = [[c for c in cands if c.startswith(p)] for p in nodes]
        stop = min((len(os.path.commonprefix([r[0], r[-1]])) for r in ranges), default=depth)
        if depth < stop:
            nodes, rows = [x for x in (r[0][:stop] for r in ranges) if fits(x)], len(nodes)
            runs.append((rows, stop, rows - len(nodes)))
            depth = stop
    return runs, nodes


def _embeds(text, s):
    chars = iter(s)
    return all(c in chars for c in text)


@pytest.mark.parametrize("level_bytes", [None, 256], ids=["default-budget", "256B-budget"])
def test_compressed_walk_is_the_brute_force_embedding_table(level_bytes, monkeypatch):
    # Candidate lists with long shared runs, where most levels are forced.
    if level_bytes is not None:
        monkeypatch.setattr(string_recon, "_TRIE_LEVEL_BYTES", level_bytes)
    seen = Counter()
    for texts, n, cands in _run_cases():
        listed = np.array([int(c, 2) for c in cands])
        pieces = list(string_recon._trie_leaves(texts, n, listed))
        want_codes, want_counts = _embedding_table(texts, n, cands)
        got_codes = [int(c) for codes, _ in pieces for c in codes]
        assert got_codes == want_codes, (texts, n, cands)
        assert all(codes.dtype == counts.dtype == np.int64 for codes, counts in pieces)
        got_counts = np.concatenate([counts for _, counts in pieces]) if pieces else want_counts
        assert got_counts.tolist() == want_counts.tolist(), (texts, n, cands)
        runs, leaves = _forced_runs(texts, n, cands)
        assert [int(c, 2) for c in leaves] == want_codes  # the rule the tally reads is the walk's
        for rows, stop, died in runs:
            seen["run with one row"] += rows == 1
            seen["run with several rows"] += rows > 1
            seen["run to depth n"] += stop == n
            seen["row dies inside a run"] += died > 0
        seen["split walk"] += len(pieces) > 1
    if level_bytes is None:  # the default budget splits nothing this small
        assert seen.pop("split walk") == 0, seen
    assert min(seen.values()) >= 10, seen


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ml_is_the_exhaustive_sweep_on_drawn_sources(data):
    n = data.draw(st.integers(0, 9), label="n")
    q = data.draw(st.floats(0.0, 0.9), label="q")
    source = data.draw(st.text("01", min_size=n, max_size=n), label="source")
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                               min_size=1, max_size=12), label="kept symbols")
    traces = ["".join(c for c, kept in zip(source, mask) if kept) for mask in masks]
    cands = data.draw(st.none() | st.lists(st.text("01", min_size=n, max_size=n), min_size=1,
                                           max_size=16, unique=True), label="candidates")
    try:
        want = _reference_ml(traces, n, q, cands)
    except InconsistentTracesError:
        with pytest.raises(InconsistentTracesError, match=f"^{ZERO_LIKELIHOOD}$"):
            ml_reconstruct(traces, n, q, cands)
    else:
        assert ml_reconstruct(traces, n, q, cands) == want


def _score_cases(rng):
    """(traces, n, q, candidates) beyond _oracle_cases: q = 0 with dropped
    symbols, the empty trace, and one distinct trace."""
    for case in range(300):
        n = 1 + case % 10
        source = "".join(rng.choice(["0", "1"], size=n))
        q = (0.0, 0.3, 0.9)[case % 3]
        traces = channels.string_traces(source, q, int(rng.integers(1, 5)), rng)
        if q == 0.0:  # q = 0 draws no deletions: drop some by hand
            traces.append(channels.string_traces(source, 0.5, 1, rng)[0])
        if case % 4 == 0:
            traces.append("")
        yield traces, n, q, None
        yield [traces[0]] * int(rng.integers(1, 4)), n, q, None


@pytest.mark.parametrize("level_bytes", [None, 256], ids=["default-budget", "256B-budget"])
def test_piece_scores_are_the_tally_order_loop_bitwise(level_bytes, monkeypatch):
    # Every piece that ml_reconstruct scores, directly and through the fuzzy
    # decoder's candidate lists, against oracles.ml_piece_scores.
    if level_bytes is not None:
        monkeypatch.setattr(string_recon, "_TRIE_LEVEL_BYTES", level_bytes)
    scored = string_recon._piece_scores
    seen = Counter()

    def checked(tally, n, q, pieces):
        pieces = list(pieces)
        for (codes, counts), (got_codes, got) in zip(pieces, scored(tally, n, q, pieces),
                                                     strict=True):
            want = oracles.ml_piece_scores(tally, n, q, counts)
            assert got_codes is codes
            assert got.tobytes() == want.tobytes(), (dict(tally), n, q, counts)
            seen["piece"] += 1
            seen["one candidate"] += len(codes) == 1
            seen["q = 0, symbols dropped"] += q == 0 and min(map(len, tally)) < n
            seen["empty trace"] += "" in tally
            seen["one distinct trace"] += len(tally) == 1
            seen["split call"] += len(pieces) > 1
            seen["fuzzy"] += fuzzy
            yield got_codes, got

    monkeypatch.setattr(string_recon, "_piece_scores", checked)
    rng = make_rng("piece-scores")
    fuzzy = False
    for traces, n, q, cands in itertools.chain(_oracle_cases(), _score_cases(rng)):
        with contextlib.suppress(InconsistentTracesError):
            ml_reconstruct(traces, n, q, cands)
    fuzzy = True
    for n, q in itertools.product((12, 18, 30), (0.0, 0.2, 0.5)):
        for _ in range(4):
            t = instances.random_fuzzy_tree(n, 3, rng)
            traces = channels.ted_traces(t, q, int(rng.integers(1, 17)), rng)
            with contextlib.suppress(InconsistentTracesError,
                                     tree_recon.ReconstructionFailedError):
                tree_recon.reconstruct_fuzzy(traces, n, 3, q)
    if level_bytes is None:  # the default budget splits nothing this small
        assert seen.pop("split call") == 0, seen
    assert min(seen.values()) >= 10, seen


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return str(result), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trie_ml_memory_stays_near_the_sweep():
    # At q = 0.9 the traces are short and almost no prefix is pruned: the
    # case where a level-wise trie without a budget holds 2^n DP rows.
    rng = make_rng("trie-memory")
    n, q = 16, 0.9
    traces = channels.string_traces("".join(rng.choice(["0", "1"], size=n)), q, 64, rng)
    want, ref_peak = _traced_peak(_reference_ml, traces, n, q)
    got, trie_peak = _traced_peak(ml_reconstruct, traces, n, q)
    assert got == want
    assert trie_peak <= 1.25 * ref_peak, (trie_peak, ref_peak)


def test_ml_examples():
    assert ml_reconstruct(["101"], 3, 0.0) == "101"
    assert ml_reconstruct(["1", "1", "11"], 2, 0.5) == "11"
    with pytest.raises(InconsistentTracesError):
        ml_reconstruct(["11"], 2, 0.5, candidates=["10", "01"])
    with pytest.raises(ValueError):
        ml_reconstruct([], 3, 0.5)


def test_ml_recovery_improves_with_traces():
    rng = make_rng("ml-mono")
    n, q = 10, 0.1
    rates = {}
    for n_traces in (1, 64):
        ok = 0
        for _ in range(20):
            s = "".join(rng.choice(["0", "1"], size=n))
            traces = [oracles.string_trace(s, q, rng) for _ in range(n_traces)]
            ok += ml_reconstruct(traces, n, q) == s
        rates[n_traces] = ok / 20
    assert rates[64] >= rates[1]
    assert rates[64] >= 0.9


def _random_strings_and_traces(tag: str, n: int):
    """(q, traces) pairs: 1, 3 and 16 string traces of random length-n strings."""
    rng = make_rng(tag)
    for q in (0.1, 0.4, 0.8):
        for n_traces in (1, 3, 16):
            s = "".join(rng.choice(["0", "1"], size=n))
            yield q, [oracles.string_trace(s, q, rng) for _ in range(n_traces)]


@pytest.mark.parametrize("n", range(9))
def test_full_sweep_matches_explicit_list_of_all_strings(n):
    every = ["".join(b) for b in itertools.product("01", repeat=n)]
    backwards = every[::-1]
    for q, traces in _random_strings_and_traces(f"sweep-{n}", n):
        want = ml_reconstruct(traces, n, q, candidates=every)
        assert ml_reconstruct(traces, n, q) == want
        assert ml_reconstruct(traces, n, q, candidates=backwards) == want
    assert ml_reconstruct([""], n, 0.5) == "0" * n


@pytest.mark.parametrize("n", range(1, 11))
def test_mean_reconstruct_is_the_per_candidate_argmin(n):
    every = ["".join(b) for b in itertools.product("01", repeat=n)]
    few = every[1::3]
    for q, traces in _random_strings_and_traces(f"mean-argmin-{n}", n):
        emp = empirical_mean_vector(traces, n)
        gap = {c: np.max(np.abs(emp - exact_mean_vector(c, q))) for c in every}
        for cands, pool in ((None, every), (few, few)):
            want = min(pool, key=lambda c: (gap[c], c))
            assert mean_reconstruct(traces, n, q, candidates=cands) == want


@pytest.mark.parametrize("reconstruct", [ml_reconstruct, mean_reconstruct])
def test_candidates_are_checked(reconstruct):
    # "10" would win each list, so only the check itself can reject "12" or "1x".
    for bad in (["101"], ["10", "1"], ["10", "12"], ["10", "1x"], []):
        with pytest.raises(ValueError):
            reconstruct(["1"], 2, 0.3, candidates=bad)
    # Items that are not strings once raised a TypeError from len, sorted or join.
    for bad in ([1, 2], ["10", None], [b"10"]):
        with pytest.raises(ValueError, match="^candidates must be binary strings$"):
            reconstruct(["1"], 2, 0.3, candidates=bad)
    with pytest.raises(ValueError):
        reconstruct(["1"], FULL_SWEEP_CAP + 1, 0.3)
    assert reconstruct([""], 0, 0.3) == ""
    assert reconstruct([""], 0, 0.3, candidates=[""]) == ""


@pytest.mark.parametrize(
    "call",
    [
        lambda traces, n: ml_reconstruct(traces, n, 0.3),
        lambda traces, n: mean_reconstruct(traces, n, 0.3),
        empirical_mean_vector,
    ],
    ids=["ml_reconstruct", "mean_reconstruct", "empirical_mean_vector"],
)
@pytest.mark.parametrize(
    "traces, n, message",
    [
        (["2"], 1, "traces must be binary"),
        (["12"], 2, "traces must be binary"),
        (["0", "1x"], 2, "traces must be binary"),
        (["1"], -1, "n must be nonnegative"),
        ([1], 2, "traces must be binary"),  # a TypeError from len or "".join before
        (["0", None], 2, "traces must be binary"),
    ],
)
def test_reconstructors_reject_nonbinary_traces_and_negative_n(call, traces, n, message):
    with pytest.raises(ValueError, match=message) as info:
        call(traces, n)
    assert "\n" not in str(info.value)
    assert not isinstance(info.value, InconsistentTracesError)


@pytest.mark.parametrize("reconstruct", [ml_reconstruct, mean_reconstruct])
@pytest.mark.parametrize("n", [True, 2.0, np.int64(2)], ids=["bool", "float", "np.int64"])
def test_reconstructors_reject_a_non_int_n_in_one_line(reconstruct, n):
    # ml_reconstruct(["1"], True, 0.3) returned "1"; mean_reconstruct raised
    # a TypeError from np.zeros on a float or bool.
    with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
        reconstruct(["1"], n, 0.3)


@pytest.mark.parametrize("reconstruct", [ml_reconstruct, mean_reconstruct])
@pytest.mark.parametrize("q", [-0.5, 1.0, 1.5, math.nan])
def test_reconstructors_reject_q_outside_unit_interval(reconstruct, q):
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
        reconstruct(["1"], 2, q)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: exact_mean_vector("012", 0.3), "s"),
        (lambda: find_separation("02", "01", 0.3), "x"),
        (lambda: oracles.distinguish_pair("02", "01", ["0"], 0.3), "x"),
        (lambda: find_separation("01", "21", 0.3), "y"),
    ],
    ids=["exact_mean_vector", "find_separation", "distinguish_pair", "find_separation_y"],
)
def test_mean_helpers_reject_nonbinary_strings(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a binary string$"):
        call()


def test_mean_reconstruct_examples():
    assert mean_reconstruct(["101"] * 10, 3, 0.0) == "101"
    rng = make_rng("mean-pair")
    x, y = "1001", "0110"
    traces = [oracles.string_trace(x, 0.3, rng) for _ in range(10_000)]
    by_mean = mean_reconstruct(traces, 4, 0.3, candidates=[x, y])
    by_pair = oracles.distinguish_pair(x, y, traces, 0.3)
    assert by_mean == by_pair == x


def test_mean_reconstruct_dyck_candidates_under_ted():
    # Canonical strings of 6-node trees recovered from TED pair-deletion
    # traces; the iid mean model is only a lower bound for this channel, so
    # the check runs at a mild deletion rate.
    rng = make_rng("mean-dyck")
    n = 6
    by_word = {t.word: t for t in enumerate_trees(n)}
    cands = sorted(by_word)
    ok = 0
    trials = 20
    for _ in range(trials):
        word = cands[int(rng.integers(len(cands)))]
        truth = by_word[word]
        traces = [
            oracles.ted_trace(truth, 0.1, rng).word for _ in range(500)
        ]
        ok += mean_reconstruct(traces, len(word), 0.1, candidates=cands) == word
    assert ok / trials >= 0.8


def test_binomial_identity():
    rng = make_rng("binomial")
    for k in range(31):
        q = float(rng.uniform(0.05, 0.95))
        p = 1 - q
        w = float(rng.uniform(-2, 2))
        lhs = sum(math.comb(k, j) * p**j * q ** (k - j) * w**j for j in range(k + 1))
        assert lhs == pytest.approx((p * w + q) ** k, rel=1e-9, abs=1e-9)


def test_ties_break_lexicographically():
    # One empty trace cannot distinguish candidates of equal length.
    assert ml_reconstruct([""], 2, 0.5) == "00"
    assert mean_reconstruct(["0"], 1, 0.5, candidates=["1", "0"]) == "0"

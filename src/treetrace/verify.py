"""Property checks backing the `verify` subcommand and the acceptance suite.

Every check returns (passed, detail).  Exhaustive checks enumerate small
instances outright; statistical checks use fixed seeds and generous bounds
(5 / sqrt(N) for frequencies, 3 binomial sigmas for rates) so an honest
implementation passes deterministically.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from . import channels, instances, string_recon, tree_recon, trees
from .trees import SymbolString, Tree


def _rng(tag: str, seed: int = 0):
    from .harness import fnv1a64

    return np.random.Generator(np.random.PCG64(fnv1a64(f"{tag}:{seed}")))


def _all_trees_up_to(max_n: int):
    for n in range(1, max_n + 1):
        yield from trees.enumerate_trees(n)


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# ---------------------------------------------------------------------------
# tree_core properties


def check_dyck_roundtrip(max_n: int = 8):
    count = 0
    for t in _all_trees_up_to(max_n):
        word = trees.dyck_string(t)
        if len(word) != 2 * (t.n - 1):
            return False, f"dyck length {len(word)} != 2(n-1) for {t!r}"
        depth = 0
        for ch in word:
            depth += 1 if ch == "1" else -1
            if depth < 0:
                return False, f"unbalanced prefix in {word!s} for {t!r}"
        if depth != 0:
            return False, f"unbalanced word {word!s}"
        if not trees.trees_equal(trees.tree_from_dyck(word), t):
            return False, f"round-trip failed for {t!r}"
        count += 1
    return True, f"{count} trees round-tripped through the Dyck encoding"


def check_parse_format_roundtrip(n_random: int = 500, max_n: int = 50, seed: int = 0):
    rng = _rng("parse-format", seed)
    for i in range(n_random):
        n = int(rng.integers(1, max_n + 1))
        t = instances.random_labels(instances.random_tree(n, rng), rng)
        text = trees.format_tree(t)
        back = trees.parse_tree(text)
        if not trees.trees_equal(back, t) or trees.format_tree(back) != text:
            return False, f"round-trip failed for {text}"
    return True, f"{n_random} random trees round-tripped through the text format"


# ---------------------------------------------------------------------------
# channel properties


def check_ted_order_invariance(max_n: int = 7, n_orders: int = 20, seed: int = 0,
                               ted_apply_fn=None):
    apply_fn = ted_apply_fn or channels.ted_apply
    rng = _rng("ted-orders", seed)
    checked = 0
    for t in _all_trees_up_to(max_n):
        others = trees.preorder(t)[1:]
        for subset in _subsets(others):
            flat = apply_fn(t, set(subset))
            orders = n_orders if len(subset) > 1 else 1
            for _ in range(orders):
                perm = list(subset)
                rng.shuffle(perm)
                step = t
                for v in perm:
                    step = channels.ted_apply(step, {v})
                if not trees.trees_equal(step, flat):
                    return False, (
                        f"flatten != sequential contraction on {t!r}, "
                        f"deleting {perm}"
                    )
            checked += 1
    return True, f"{checked} (tree, subset) pairs match sequential contraction"


def check_traversal_preservation(max_n: int = 7, ted_apply_fn=None):
    apply_fn = ted_apply_fn or channels.ted_apply
    checked = 0
    for t in _all_trees_up_to(max_n):
        order = trees.preorder(t)
        s_t = str(trees.preorder_label_string(t))
        others = order[1:]
        for subset in _subsets(others):
            dels = set(subset)
            trace = apply_fn(t, dels)
            expected_ids = [v for v in order if v not in dels]
            if trees.preorder(trace) != expected_ids:
                return False, f"preorder id order broken on {t!r} deleting {sorted(dels)}"
            expected_s = "".join(
                ch for v, ch in zip(order, s_t) if v not in dels
            )
            if str(trees.preorder_label_string(trace)) != expected_s:
                return False, f"label string broken on {t!r} deleting {sorted(dels)}"
            checked += 1
    return True, f"{checked} (tree, subset) pairs preserve the traversal order"


def check_dyck_pair_removal(max_n: int = 8):
    checked = 0
    for t in _all_trees_up_to(max_n):
        if t.n == 1:
            continue
        word = str(trees.dyck_string(t))
        # Position of each node's matched descent/ascent in the walk.
        opens: dict[int, int] = {}
        closes: dict[int, int] = {}
        for i, (sym, v) in enumerate(trees._euler_walk(t)):
            (opens if sym == "1" else closes)[v] = i
        for v in trees.preorder(t)[1:]:
            got = str(trees.dyck_string(channels.ted_apply(t, {v})))
            expect = "".join(
                ch for i, ch in enumerate(word) if i not in (opens[v], closes[v])
            )
            if got != expect:
                return False, f"pair removal mismatch deleting {v} from {t!r}"
            checked += 1
    return True, f"{checked} single deletions removed exactly the matched 1,0 pair"


def check_ted_distribution_normalization(max_n: int = 6):
    checked = 0
    for t in _all_trees_up_to(max_n):
        dist = channels.ted_trace_distribution(t, 0.35)
        total = sum(p for _, p in dist.items())
        if abs(total - 1.0) > 1e-9:
            return False, f"sum {total} for {t!r}"
        checked += 1
    return True, f"{checked} exact TED distributions sum to 1 within 1e-9"


def check_subsequence_total_probability(
    exhaustive_len: int = 7, sampled_lens=(8, 9, 10), samples: int = 30,
    q: float = 0.4, seed: int = 0,
):
    rng = _rng("subseq-total", seed)
    tested = 0

    def total(s: str) -> float:
        return sum(
            channels.string_trace_prob(SymbolString(s), SymbolString(t), q)
            for t in channels.distinct_subsequences(s)
        )

    for L in range(1, exhaustive_len + 1):
        for bits in itertools.product("01", repeat=L):
            s = "".join(bits)
            tot = total(s)
            if abs(tot - 1.0) > 1e-9:
                return False, f"sum {tot} for s={s}"
            tested += 1
    for L in sampled_lens:
        for _ in range(samples):
            s = "".join(rng.choice(["0", "1"], size=L))
            tot = total(s)
            if abs(tot - 1.0) > 1e-9:
                return False, f"sum {tot} for s={s}"
            tested += 1
    return True, f"{tested} strings: subsequence probabilities sum to 1 within 1e-9"


def sample_string_traces(s: str, q: float, n_samples: int, rng) -> Counter:
    """Vectorised sampler for the string channel; returns trace multiplicities."""
    keep = rng.random((n_samples, len(s))) >= q
    arr = np.frombuffer(s.encode(), dtype=np.uint8)
    out: Counter = Counter()
    for row in keep:
        out["".join(chr(c) for c in arr[row])] += 1
    return out


def check_string_trace_mc(s: str = "10110100", q: float = 0.5,
                          n_samples: int = 100_000, seed: int = 0):
    rng = _rng("string-mc", seed)
    freq = sample_string_traces(s, q, n_samples, rng)
    bound = 5.0 / math.sqrt(n_samples)
    worst = 0.0
    for t in channels.distinct_subsequences(s):
        exact = channels.string_trace_prob(SymbolString(s), SymbolString(t), q)
        emp = freq.get(t, 0) / n_samples
        worst = max(worst, abs(emp - exact))
        if abs(emp - exact) > bound:
            return False, f"trace {t!r}: |{emp} - {exact}| > {bound}"
    return True, f"max |freq - exact| = {worst:.5f} <= {bound:.5f} over {n_samples} samples"


def check_ted_trace_mc(n: int = 6, q: float = 0.3, n_samples: int = 100_000, seed: int = 0):
    rng = _rng("ted-mc", seed)
    t = instances.random_tree(n, rng)
    dist = channels.ted_trace_distribution(t, q)
    freq: Counter = Counter()
    for _ in range(n_samples):
        freq[channels.ted_trace(t, q, rng).canonical()] += 1
    bound = 5.0 / math.sqrt(n_samples)
    keys = set(freq) | {k for k, _ in dist.items()}
    worst = 0.0
    for key in keys:
        exact = dist.entries.get(key, 0.0)
        emp = freq.get(key, 0) / n_samples
        worst = max(worst, abs(emp - exact))
        if abs(emp - exact) > bound:
            return False, f"trace {key}: |{emp} - {exact}| > {bound}"
    return True, f"max |freq - exact| = {worst:.5f} <= {bound:.5f} over {n_samples} samples"


# ---------------------------------------------------------------------------
# mean machinery


def enumeration_mean_vector(s: str, q: float) -> np.ndarray:
    """Independent oracle: expectation of the padded trace by full enumeration."""
    n = len(s)
    acc = np.zeros(n)
    for t in channels.distinct_subsequences(s):
        prob = channels.string_trace_prob(SymbolString(s), SymbolString(t), q)
        if t:
            acc[: len(t)] += prob * (np.frombuffer(t.encode(), np.uint8) - ord("0"))
    return acc


def check_mean_formula(exhaustive_len: int = 7, sampled_lens=(8, 9, 10),
                       samples: int = 30, qs=(0.1, 0.5), seed: int = 0):
    rng = _rng("mean-formula", seed)
    tested = 0

    def gap(s: str, q: float) -> float:
        exact = string_recon.exact_mean_vector(s, q)
        oracle = enumeration_mean_vector(s, q)
        return float(np.max(np.abs(exact - oracle))) if len(s) else 0.0

    for q in qs:
        for L in range(1, exhaustive_len + 1):
            for bits in itertools.product("01", repeat=L):
                s = "".join(bits)
                g = gap(s, q)
                if g > 1e-12:
                    return False, f"gap {g} for s={s}, q={q}"
                tested += 1
        for L in sampled_lens:
            for _ in range(samples):
                s = "".join(rng.choice(["0", "1"], size=L))
                g = gap(s, q)
                if g > 1e-12:
                    return False, f"gap {g} for s={s}, q={q}"
                tested += 1
    return True, f"{tested} strings: formula matches enumeration within 1e-12"


def sample_empirical_mean(s: str, q: float, n_samples: int, rng) -> np.ndarray:
    """Vectorised empirical mean of padded traces."""
    n = len(s)
    keep = rng.random((n_samples, n)) >= q
    ranks = keep.cumsum(axis=1) - 1
    bits = np.frombuffer(s.encode(), np.uint8) - ord("0")
    acc = np.zeros((n_samples, n))
    rows, cols = np.nonzero(keep)
    acc[rows, ranks[rows, cols]] = bits[cols]
    return acc.mean(axis=0)


def check_mean_empirical(n: int = 10, qs=(0.1, 0.5), n_strings: int = 20,
                         n_samples: int = 100_000, seed: int = 0):
    rng = _rng("mean-empirical", seed)
    bound = 5.0 / math.sqrt(n_samples)
    worst = 0.0
    for _ in range(n_strings):
        s = "".join(rng.choice(["0", "1"], size=n))
        for q in qs:
            emp = sample_empirical_mean(s, q, n_samples, rng)
            exact = string_recon.exact_mean_vector(s, q)
            gap = float(np.max(np.abs(emp - exact)))
            worst = max(worst, gap)
            if gap > bound:
                return False, f"gap {gap} > {bound} for s={s}, q={q}"
    return True, f"max |empirical - exact| = {worst:.5f} <= {bound:.5f}"


def check_binomial_identity(max_k: int = 30, seed: int = 0):
    rng = _rng("binomial", seed)
    for k in range(max_k + 1):
        q = float(rng.uniform(0.05, 0.95))
        p = 1.0 - q
        w = float(rng.uniform(-2.0, 2.0))
        lhs = sum(math.comb(k, j) * p**j * q ** (k - j) * w**j for j in range(k + 1))
        rhs = (p * w + q) ** k
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            return False, f"identity fails at k={k}, q={q}, w={w}"
    return True, f"binomial identity holds numerically for k <= {max_k}"


def check_ted_expectation_inequality(max_n: int = 6, q: float = 0.5,
                                     ws=tuple(round(0.1 * i, 1) for i in range(1, 10))):
    p = 1.0 - q
    checked = 0
    for t in _all_trees_up_to(max_n):
        a = np.array([int(c) for c in str(trees.dyck_string(t))])
        dist = channels.ted_trace_distribution(t, q)
        padded = {}
        for key, prob in dist.items():
            word = str(trees.dyck_string(trees.parse_tree(key)))
            padded[word] = padded.get(word, 0.0) + prob
        for w in ws:
            lhs = 0.0
            for word, prob in padded.items():
                lhs += prob * sum(int(ch) * w**j for j, ch in enumerate(word))
            rhs = p * sum(ak * (p * w + q) ** k for k, ak in enumerate(a))
            if lhs < rhs - 1e-9:
                return False, f"inequality fails for {t!r}, w={w}: {lhs} < {rhs}"
            checked += 1
    return True, f"{checked} (tree, w) pairs satisfy the expectation inequality"


def check_separation_existence(max_n: int = 8, q: float = 0.5):
    smallest = math.inf
    pairs = 0
    for n in range(1, max_n + 1):
        all_strings = ["".join(b) for b in itertools.product("01", repeat=n)]
        for i, x in enumerate(all_strings):
            for y in all_strings[i + 1 :]:
                wit = string_recon.find_separation(x, y, q)
                smallest = min(smallest, wit.magnitude)
                if wit.magnitude <= 1e-12:
                    return False, f"no separation for x={x}, y={y}"
                pairs += 1
    return True, f"{pairs} pairs separated; smallest magnitude {smallest:.3e}"


def check_arc_maxima(max_n: int = 10, chunk: int = 4096):
    """Max |A(z)| on the arc for every nonzero a in {-1,0,1}^n; reports the worst."""
    report = []
    for n in range(1, max_n + 1):
        L = string_recon.default_arc_parameter(n)
        theta = np.linspace(-math.pi / L, math.pi / L, string_recon.ARC_GRID_POINTS)
        powers = np.exp(1j * theta)[:, None] ** np.arange(n)[None, :]
        worst = math.inf
        total = 3**n - 1
        coeff_iter = itertools.product((-1, 0, 1), repeat=n)
        batch: list = []
        for a in coeff_iter:
            if any(a):
                batch.append(a)
            if len(batch) == chunk:
                vals = np.abs(np.asarray(batch, dtype=float) @ powers.T).max(axis=1)
                worst = min(worst, float(vals.min()))
                batch = []
        if batch:
            vals = np.abs(np.asarray(batch, dtype=float) @ powers.T).max(axis=1)
            worst = min(worst, float(vals.min()))
        if worst <= 1e-12:
            return False, f"arc maximum {worst} at n={n}"
        report.append(f"n={n}: min over {total} vectors = {worst:.3e} (L={L})")
    return True, "; ".join(report)


# ---------------------------------------------------------------------------
# instances + pipelines


def check_lp_pair_sets(n_lo: int = 4, n_hi: int = 10):
    for n in range(n_lo, n_hi + 1):
        a_n = instances.path_tree(n)
        b_n = instances.forked_tree(n)
        for m in range(1, n):
            expect = {instances.path_tree(n - m)}
            got_a = channels.lp_trace_set(a_n, m)
            got_b = channels.lp_trace_set(b_n, m)
            if got_a != expect or got_b != expect:
                return False, f"trace sets differ at n={n}, m={m}"
    return True, f"LP trace sets of A_n and B_n agree and equal {{A_(n-m)}} for n<={n_hi}"


def check_dual_roundtrip(max_n: int = 8):
    count = 0
    for t in _all_trees_up_to(max_n):
        s0, s1 = tree_recon.dual_strings(t)
        back = tree_recon.merge_dual_strings(s0, s1)
        if not trees.trees_equal(back, t):
            return False, f"dual round-trip failed for {t!r}"
        count += 1
    return True, f"{count} trees round-tripped through the dual-string encoding"


def _non_orphaning(t: Tree, dels: set[int], trace: Tree) -> bool:
    original_leaves = {v for v in t.nodes if t.is_leaf(v)}
    return all(v in original_leaves for v in trace.nodes if trace.is_leaf(v))


def check_fuzzy_positional(max_n: int = 8, ms=(2, 3)):
    checked = 0
    for m in ms:
        for t in _all_trees_up_to(max_n):
            if t.n == 1 or not trees.is_fuzzy(t, m):
                continue
            s0, own0, s1, own1 = tree_recon.dual_strings_with_owners(t)
            for subset in _subsets(trees.preorder(t)[1:]):
                dels = set(subset)
                trace = channels.ted_apply(t, dels)
                if not _non_orphaning(t, dels, trace):
                    continue
                got0, got1 = tree_recon.dual_strings(trace)
                want0 = "".join(c for c, v in zip(str(s0), own0) if v not in dels)
                want1 = "".join(c for c, v in zip(str(s1), own1) if v not in dels)
                if str(got0) != want0 or str(got1) != want1:
                    return False, (
                        f"positional deletion broken: {t!r} minus {sorted(dels)}"
                    )
                checked += 1
    return True, f"{checked} non-orphaning deletions removed exactly the owned symbols"


def check_encoded_readback(max_len: int = 12, ell: int = 3):
    count = 0
    for L in range(1, max_len + 1):
        for bits in itertools.product("01", repeat=L):
            s = SymbolString("".join(bits))
            inst = instances.encode_string_as_tree(s, ell)
            if str(instances.read_encoded_string(inst)) != str(s):
                return False, f"read-back failed for {s!s}"
            count += 1
    return True, f"{count} strings encode and read back exactly"


def check_known_topology_q0(max_n: int = 8, seed: int = 0):
    rng = _rng("known-topology-q0", seed)
    count = 0
    for t in _all_trees_up_to(max_n):
        labeled = instances.random_labels(t, rng)
        got = tree_recon.reconstruct_labels_known_topology(t, [labeled], 0.0)
        if not trees.trees_equal(got, labeled):
            return False, f"q=0 pipeline failed on {t!r}"
        count += 1
    return True, f"{count} topologies recover their labels exactly from one clean trace"


def check_uniform_random_tree(n: int = 4, n_samples: int = 100_000, seed: int = 0):
    rng = _rng("uniform-tree", seed)
    counts: Counter = Counter()
    for _ in range(n_samples):
        counts[instances.random_tree(n, rng).canonical()] += 1
    catalan = math.comb(2 * (n - 1), n - 1) // n
    if len(counts) != catalan:
        return False, f"saw {len(counts)} shapes, expected {catalan}"
    expect = 1.0 / catalan
    sigma = math.sqrt(expect * (1 - expect) / n_samples)
    for shape, c in counts.items():
        freq = c / n_samples
        if abs(freq - expect) > 3 * sigma:
            return False, f"shape {shape}: freq {freq} outside 3 sigma of {expect}"
    return True, f"all {catalan} shapes within 3 sigma of uniform over {n_samples} draws"


def check_experiment_determinism():
    from . import harness

    spec = harness.ExperimentSpec(
        family="random", n=6, q=0.2, model="ted", trace_grid=(1, 2, 4),
        trials=5, delta=0.05, master_seed=99,
    )
    rows_a = harness.run_experiment(spec)
    rows_b = harness.run_experiment(spec)
    csv_a = harness.rows_to_csv(rows_a)
    csv_b = harness.rows_to_csv(rows_b)
    if csv_a != csv_b:
        return False, "same spec produced different CSV bytes"
    return True, "same spec twice produced byte-identical CSV"


QUICK = "quick"
FULL = "full"

# Smaller sizes for the quick level; the full level runs every check with its
# own defaults.
CHECKS = {
    "dyck-roundtrip": dict(max_n=6),
    "parse-format-roundtrip": dict(n_random=200),
    "ted-order-invariance": dict(max_n=6),
    "traversal-preservation": dict(max_n=6),
    "dyck-pair-removal": dict(max_n=6),
    "ted-distribution-normalization": dict(max_n=5),
    "subsequence-total-probability": dict(exhaustive_len=6, samples=10),
    "string-trace-mc": dict(n_samples=20_000),
    "ted-trace-mc": dict(n_samples=20_000),
    "mean-formula": dict(exhaustive_len=6, samples=10),
    "mean-empirical": dict(n_strings=5, n_samples=20_000),
    "binomial-identity": dict(),
    "ted-expectation-inequality": dict(max_n=5),
    "separation-existence": dict(max_n=6),
    "arc-maxima": dict(max_n=8),
    "lp-pair-sets": dict(n_hi=8),
    "dual-roundtrip": dict(max_n=6),
    "fuzzy-positional": dict(max_n=7),
    "encoded-readback": dict(max_len=8),
    "known-topology-q0": dict(max_n=6),
    "uniform-random-tree": dict(n_samples=20_000),
    "experiment-determinism": dict(),
}

_FUNCTIONS = {
    "dyck-roundtrip": check_dyck_roundtrip,
    "parse-format-roundtrip": check_parse_format_roundtrip,
    "ted-order-invariance": check_ted_order_invariance,
    "traversal-preservation": check_traversal_preservation,
    "dyck-pair-removal": check_dyck_pair_removal,
    "ted-distribution-normalization": check_ted_distribution_normalization,
    "subsequence-total-probability": check_subsequence_total_probability,
    "string-trace-mc": check_string_trace_mc,
    "ted-trace-mc": check_ted_trace_mc,
    "mean-formula": check_mean_formula,
    "mean-empirical": check_mean_empirical,
    "binomial-identity": check_binomial_identity,
    "ted-expectation-inequality": check_ted_expectation_inequality,
    "separation-existence": check_separation_existence,
    "arc-maxima": check_arc_maxima,
    "lp-pair-sets": check_lp_pair_sets,
    "dual-roundtrip": check_dual_roundtrip,
    "fuzzy-positional": check_fuzzy_positional,
    "encoded-readback": check_encoded_readback,
    "known-topology-q0": check_known_topology_q0,
    "uniform-random-tree": check_uniform_random_tree,
    "experiment-determinism": check_experiment_determinism,
}


def run_checks(level: str):
    """Run the whole battery at the given level; yields (name, passed, detail)."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be '{QUICK}' or '{FULL}'")
    for name, fn in _FUNCTIONS.items():
        kwargs = CHECKS[name] if level == QUICK else {}
        passed, detail = fn(**kwargs)
        yield name, passed, detail

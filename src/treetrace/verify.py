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

from . import channels, harness, instances, string_recon, tree_recon, trees
from .trees import Tree


def _rng(tag: str):
    return np.random.default_rng(harness.fnv1a64(f"{tag}:0"))


def _all_trees_up_to(max_n: int):
    for n in range(1, max_n + 1):
        yield from trees.enumerate_trees(n)


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _binary_strings(exhaustive_len: int, samples: int, rng):
    """Every binary string of length 1..exhaustive_len, then samples drawn at lengths 8, 9, 10."""
    for L in range(1, exhaustive_len + 1):
        for bits in itertools.product("01", repeat=L):
            yield "".join(bits)
    for L in (8, 9, 10):
        for _ in range(samples):
            yield "".join(rng.choice(["0", "1"], size=L))


def _frequencies_match(freq, law, n_samples: int):
    """(passed, detail): every outcome's frequency within 5 / sqrt(N) of its exact law."""
    bound = 5.0 / math.sqrt(n_samples)
    worst = 0.0
    for key in set(freq) | set(law):
        exact = law.get(key, 0.0)
        emp = freq.get(key, 0) / n_samples
        worst = max(worst, abs(emp - exact))
        if abs(emp - exact) > bound:
            return False, f"trace {key!r}: |{emp} - {exact}| > {bound}"
    return True, f"max |freq - exact| = {worst:.5f} <= {bound:.5f} over {n_samples} samples"


# ---------------------------------------------------------------------------
# tree_core properties


def check_dyck_roundtrip(max_n: int = 8):
    count = 0
    for t in _all_trees_up_to(max_n):
        word = t.word
        if len(word) != 2 * (t.n - 1):
            return False, f"dyck length {len(word)} != 2(n-1) for {t!r}"
        depth = 0
        for ch in word:
            depth += 1 if ch == "1" else -1
            if depth < 0:
                return False, f"unbalanced prefix in {word} for {t!r}"
        if depth != 0:
            return False, f"unbalanced word {word}"
        if trees.tree_from_dyck(word) != t:
            return False, f"round-trip failed for {t!r}"
        count += 1
    return True, f"{count} trees round-tripped through the Dyck encoding"


def check_parse_format_roundtrip(n_random: int = 500):
    rng = _rng("parse-format")
    for i in range(n_random):
        n = int(rng.integers(1, 51))
        t = instances.random_labels(instances.random_tree(n, rng), rng)
        text = trees.format_tree(t)
        if trees.parse_tree(text).canonical() != text:
            return False, f"round-trip failed for {text}"
    return True, f"{n_random} random trees round-tripped through the text format"


# ---------------------------------------------------------------------------
# channel properties


def check_ted_order_invariance(max_n: int = 7, ted_apply_fn=None):
    """Every order of single deletions gives `ted_apply_fn`'s tree, for every subset.

    Subsets are walked by size, keeping state[S], the tree that single
    deletions give for S.  For each v in S the one-step extension
    ted_apply(state[S - {v}], {v}) must give one tree, ids included, since
    the next step deletes by id.  By induction on |S| that tree is the
    result of all |S|! orders, and it must read as apply_fn(t, S).
    """
    apply_fn = ted_apply_fn or channels.ted_apply
    checked = 0
    for t in _all_trees_up_to(max_n):
        state = {(): t}  # subset tuple, in preorder -> sequential contraction
        for subset in _subsets(t.ids[1:]):
            if subset:
                steps = [channels.ted_apply(state[subset[:i] + subset[i + 1:]], {v})
                         for i, v in enumerate(subset)]
                if any(step.ids != steps[0].ids or step != steps[0] for step in steps[1:]):
                    return False, (
                        f"sequential contraction depends on the order on {t!r}, "
                        f"deleting {list(subset)}"
                    )
                state[subset] = steps[0]
            if state[subset] != apply_fn(t, set(subset)):
                return False, (
                    f"flatten != sequential contraction on {t!r}, "
                    f"deleting {list(subset)}"
                )
            checked += 1
    return True, f"{checked} (tree, subset) pairs match sequential contraction"


def check_traversal_preservation(max_n: int = 7, ted_apply_fn=None):
    apply_fn = ted_apply_fn or channels.ted_apply
    checked = 0
    for t in _all_trees_up_to(max_n):
        order = t.ids
        for subset in _subsets(order[1:]):
            dels = set(subset)
            trace = apply_fn(t, dels)
            expected_ids = tuple(v for v in order if v not in dels)
            if trace.ids != expected_ids:
                return False, f"preorder id order broken on {t!r} deleting {sorted(dels)}"
            expected_s = "".join(
                ch for v, ch in zip(order, t.labels) if v not in dels
            )
            if trace.labels != expected_s:
                return False, f"label string broken on {t!r} deleting {sorted(dels)}"
            checked += 1
    return True, f"{checked} (tree, subset) pairs preserve the traversal order"


def check_dyck_pair_removal(max_n: int = 8):
    checked = 0
    for t in _all_trees_up_to(max_n):
        if t.n == 1:
            continue
        word, ids = t.word, t.ids
        # Positions of each node's matched descent and ascent in the word.
        pair: dict[int, list[int]] = {}
        for i, owner in enumerate(trees._dyck_links(word)[1]):
            pair.setdefault(ids[owner], []).append(i)
        for v in ids[1:]:
            got = channels.ted_apply(t, {v}).word
            expect = "".join(ch for i, ch in enumerate(word) if i not in pair[v])
            if got != expect:
                return False, f"pair removal mismatch deleting {v} from {t!r}"
            checked += 1
    return True, f"{checked} single deletions removed exactly the matched 1,0 pair"


def ted_subset_law(t: Tree, q: float) -> dict[Tree, float]:
    """Independent oracle of the TED `trace_law`: `ted_apply` on each subset, in row order."""
    others = t.ids[1:]
    k, p = len(others), 1.0 - q
    law: dict[Tree, float] = {}
    for mask in range(1 << k):
        dels = {others[i] for i in range(k) if mask >> i & 1}
        prob = (q ** len(dels)) * (p ** (k - len(dels)))
        if prob:
            trace = channels.ted_apply(t, dels)
            law[trace] = law.get(trace, 0.0) + prob
    return law


def check_ted_distribution_normalization(max_n: int = 6):
    checked = 0
    for t in _all_trees_up_to(max_n):
        total = sum(channels.trace_law(t, 0.35, "ted").values())
        if abs(total - 1.0) > 1e-9:
            return False, f"sum {total} for {t!r}"
        checked += 1
    return True, f"{checked} exact TED distributions sum to 1 within 1e-9"


def check_subsequence_total_probability(exhaustive_len: int = 7, samples: int = 30):
    rng = _rng("subseq-total")
    tested = 0
    for s in _binary_strings(exhaustive_len, samples, rng):
        tot = sum(channels.string_trace_prob(s, t, 0.4) for t in channels.distinct_subsequences(s))
        if abs(tot - 1.0) > 1e-9:
            return False, f"sum {tot} for s={s}"
        tested += 1
    return True, f"{tested} strings: subsequence probabilities sum to 1 within 1e-9"


def check_string_trace_mc(n_samples: int = 100_000):
    rng, s, q = _rng("string-mc"), "10110100", 0.5
    freq = Counter(channels.string_traces(s, q, n_samples, rng))
    law = {t: channels.string_trace_prob(s, t, q) for t in channels.distinct_subsequences(s)}
    return _frequencies_match(freq, law, n_samples)


def check_ted_trace_mc(n_samples: int = 100_000):
    rng, q = _rng("ted-mc"), 0.3
    t = instances.random_tree(6, rng)
    freq = Counter(channels.ted_traces(t, q, n_samples, rng))
    return _frequencies_match(freq, ted_subset_law(t, q), n_samples)


# ---------------------------------------------------------------------------
# mean machinery


def _masks(s: str) -> np.ndarray:
    """The 2^n retention masks of s as boolean rows; bit j of a mask keeps symbol j."""
    if len(s) > channels.SUBSEQ_ENUM_CAP:
        raise channels.SizeCapError(
            f"|s|={len(s)} exceeds enumeration cap {channels.SUBSEQ_ENUM_CAP}")
    return (np.arange(1 << len(s))[:, None] >> np.arange(len(s))) & 1 == 1


def _mask_mean(s: str, keep: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of weights[mask] times the padded trace of each mask; a kept 1 lands at its rank."""
    hit = keep & (np.frombuffer(s.encode(), np.uint8) == ord("1"))
    ranks = keep.cumsum(axis=1) - 1
    return np.bincount(ranks[hit], weights=weights[hit.nonzero()[0]], minlength=len(s))


def enumeration_mean_vector(s: str, q: float) -> np.ndarray:
    """Independent oracle: expectation of the padded trace over every retention mask."""
    keep = _masks(s)
    kept = keep.sum(axis=1)
    return _mask_mean(s, keep, (1.0 - q) ** kept * q ** (len(s) - kept))


def check_mean_formula(exhaustive_len: int = 7, samples: int = 30):
    rng = _rng("mean-formula")
    tested = 0
    for q in (0.1, 0.5):
        for s in _binary_strings(exhaustive_len, samples, rng):
            exact = string_recon.exact_mean_vector(s, q)
            g = float(np.abs(exact - enumeration_mean_vector(s, q)).max(initial=0.0))
            if g > 1e-12:
                return False, f"gap {g} for s={s}, q={q}"
            tested += 1
    return True, f"{tested} strings: formula matches enumeration within 1e-12"


def sample_empirical_mean(s: str, q: float, n_samples: int, rng) -> np.ndarray:
    """Empirical mean of padded traces: each drawn retention mask counted, summed exactly."""
    keep = _masks(s)
    codes = (rng.random((n_samples, len(s))) >= q) @ (1 << np.arange(len(s)))
    return _mask_mean(s, keep, np.bincount(codes, minlength=len(keep))) / n_samples


def check_mean_empirical(n_strings: int = 20, n_samples: int = 100_000):
    rng = _rng("mean-empirical")
    bound = 5.0 / math.sqrt(n_samples)
    worst = 0.0
    for _ in range(n_strings):
        s = "".join(rng.choice(["0", "1"], size=10))
        for q in (0.1, 0.5):
            emp = sample_empirical_mean(s, q, n_samples, rng)
            exact = string_recon.exact_mean_vector(s, q)
            gap = float(np.max(np.abs(emp - exact)))
            worst = max(worst, gap)
            if gap > bound:
                return False, f"gap {gap} > {bound} for s={s}, q={q}"
    return True, f"max |empirical - exact| = {worst:.5f} <= {bound:.5f}"


def check_binomial_identity():
    rng = _rng("binomial")
    for k in range(31):
        q = float(rng.uniform(0.05, 0.95))
        p = 1.0 - q
        w = float(rng.uniform(-2.0, 2.0))
        lhs = sum(math.comb(k, j) * p**j * q ** (k - j) * w**j for j in range(k + 1))
        rhs = (p * w + q) ** k
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            return False, f"identity fails at k={k}, q={q}, w={w}"
    return True, "binomial identity holds numerically for k <= 30"


def check_ted_expectation_inequality(max_n: int = 6, q: float = 0.5):
    p = 1.0 - q
    checked = 0
    for t in _all_trees_up_to(max_n):
        a = np.array([int(c) for c in t.word])
        padded = {}
        for trace, prob in channels.trace_law(t, q, "ted").items():
            padded[trace.word] = padded.get(trace.word, 0.0) + prob
        for w in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            lhs = 0.0
            for word, prob in padded.items():
                lhs += prob * sum(int(ch) * w**j for j, ch in enumerate(word))
            rhs = p * sum(ak * (p * w + q) ** k for k, ak in enumerate(a))
            if lhs < rhs - 1e-9:
                return False, f"inequality fails for {t!r}, w={w}: {lhs} < {rhs}"
            checked += 1
    return True, f"{checked} (tree, w) pairs satisfy the expectation inequality"


def check_separation_existence(max_n: int = 8):
    smallest = math.inf
    pairs = 0
    for n in range(1, max_n + 1):
        codes = string_recon._candidate_matrix(n, None)
        left, right = np.triu_indices(len(codes), 1)
        _, magnitude, _, poly_value = string_recon._separations(codes, left, right, 0.5)
        bad = np.flatnonzero((magnitude <= 1e-12) | (poly_value <= 1e-12))
        if len(bad):
            x, y = (string_recon._row_string(codes[side[bad[0]]]) for side in (left, right))
            return False, f"no separation for x={x}, y={y}"
        smallest = min(smallest, float(magnitude.min()))
        pairs += len(left)
    return True, f"{pairs} pairs separated; smallest magnitude {smallest:.3e}"


def _arc_worst(n: int) -> float:
    """Min over nonzero a in {-1,0,1}^n of max |A(z)| on the arc.

    -a scores as a, so only the a whose first nonzero entry is +1 are scored: the
    upper half of the base-3 indices (digit - 1).  A chunk of 64 rows makes a 1 MiB product.
    """
    _, powers = string_recon._arc_grid(n, string_recon.default_arc_parameter(n))
    place = 3 ** np.arange(n - 1, -1, -1)
    worst = math.inf
    for lo in range((3**n + 1) // 2, 3**n, 64):
        a = np.arange(lo, min(lo + 64, 3**n))[:, None] // place % 3 - 1.0
        worst = min(worst, float(np.abs(a @ powers.T).max(axis=1).min()))
    return worst


def check_arc_maxima(max_n: int = 10):
    """Max |A(z)| on the arc for every nonzero a in {-1,0,1}^n; reports the worst."""
    report = []
    for n in range(1, max_n + 1):
        worst, L = _arc_worst(n), string_recon.default_arc_parameter(n)
        if worst <= 1e-12:
            return False, f"arc maximum {worst} at n={n}"
        report.append(f"n={n}: min over {3**n - 1} vectors = {worst:.3e} (L={L})")
    return True, "; ".join(report)


# ---------------------------------------------------------------------------
# instances + pipelines


def check_lp_pair_sets(n_hi: int = 10):
    for n in range(4, n_hi + 1):
        laws = [channels.trace_law(t, 0.5, "lp") for t in (instances.path_tree(n),
                                                              instances.forked_tree(n))]
        for m in range(1, n):  # the slice of m marks: n + 1 - m nodes, as lp_trace_set's
            expect = {instances.path_tree(n - m)}
            if any({tr for tr in law if tr.n == n + 1 - m} != expect for law in laws):
                return False, f"trace sets differ at n={n}, m={m}"
    return True, f"LP trace sets of A_n and B_n agree and equal {{A_(n-m)}} for n<={n_hi}"


def check_dual_roundtrip(max_n: int = 8):
    count = 0
    for t in _all_trees_up_to(max_n):
        s0, s1 = tree_recon.dual_strings(t)
        back = tree_recon.merge_dual_strings(s0, s1)
        if back != t:
            return False, f"dual round-trip failed for {t!r}"
        count += 1
    return True, f"{count} trees round-tripped through the dual-string encoding"


def _leaves(t: Tree) -> set[int]:
    return {v for v, kids in t.children().items() if not kids}


def check_fuzzy_positional(max_n: int = 8):
    checked = 0
    for m in (2, 3):
        for t in _all_trees_up_to(max_n):
            if t.n == 1 or not trees.is_fuzzy(t, m):
                continue
            s0, own0, s1, own1 = tree_recon.dual_strings_with_owners(t)
            leaves = _leaves(t)
            for subset in _subsets(t.ids[1:]):
                dels = set(subset)
                trace = channels.ted_apply(t, dels)
                if not _leaves(trace) <= leaves:  # the deletion orphans a node
                    continue
                got0, got1 = tree_recon.dual_strings(trace)
                want0 = "".join(c for c, v in zip(s0, own0) if v not in dels)
                want1 = "".join(c for c, v in zip(s1, own1) if v not in dels)
                if got0 != want0 or got1 != want1:
                    return False, (
                        f"positional deletion broken: {t!r} minus {sorted(dels)}"
                    )
                checked += 1
    return True, f"{checked} non-orphaning deletions removed exactly the owned symbols"


def check_encoded_readback(max_len: int = 12):
    count = 0
    for L in range(1, max_len + 1):
        for bits in itertools.product("01", repeat=L):
            s = "".join(bits)
            inst = instances.encode_string_as_tree(s, 3)
            if instances.read_encoded_string(inst) != s:
                return False, f"read-back failed for {s}"
            count += 1
    return True, f"{count} strings encode and read back exactly"


def check_known_topology_q0(max_n: int = 8):
    rng = _rng("known-topology-q0")
    count = 0
    for t in _all_trees_up_to(max_n):
        labeled = instances.random_labels(t, rng)
        got = tree_recon.reconstruct_labels_known_topology(t, [labeled], 0.0)
        if got != labeled:
            return False, f"q=0 pipeline failed on {t!r}"
        count += 1
    return True, f"{count} topologies recover their labels exactly from one clean trace"


def check_uniform_random_tree(n_samples: int = 100_000):
    rng = _rng("uniform-tree")
    words = Counter(instances.random_dyck_words(4, n_samples, rng))
    counts = {trees.tree_from_dyck(w).canonical(): c for w, c in words.items()}
    catalan = 5  # C_3: the shapes of a 4-node tree
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

# Every check in run order, with its smaller sizes for the quick level; the
# full level runs each check with its own defaults.
CHECKS = {
    "dyck-roundtrip": (check_dyck_roundtrip, dict(max_n=6)),
    "parse-format-roundtrip": (check_parse_format_roundtrip, dict(n_random=200)),
    "ted-order-invariance": (check_ted_order_invariance, dict(max_n=6)),
    "traversal-preservation": (check_traversal_preservation, dict(max_n=6)),
    "dyck-pair-removal": (check_dyck_pair_removal, dict(max_n=6)),
    "ted-distribution-normalization": (check_ted_distribution_normalization, dict(max_n=5)),
    "subsequence-total-probability": (check_subsequence_total_probability,
                                      dict(exhaustive_len=6, samples=10)),
    "string-trace-mc": (check_string_trace_mc, dict(n_samples=20_000)),
    "ted-trace-mc": (check_ted_trace_mc, dict(n_samples=20_000)),
    "mean-formula": (check_mean_formula, dict(exhaustive_len=6, samples=10)),
    "mean-empirical": (check_mean_empirical, dict(n_strings=5, n_samples=20_000)),
    "binomial-identity": (check_binomial_identity, dict()),
    "ted-expectation-inequality": (check_ted_expectation_inequality, dict(max_n=5)),
    "separation-existence": (check_separation_existence, dict(max_n=6)),
    "arc-maxima": (check_arc_maxima, dict(max_n=8)),
    "lp-pair-sets": (check_lp_pair_sets, dict(n_hi=8)),
    "dual-roundtrip": (check_dual_roundtrip, dict(max_n=6)),
    "fuzzy-positional": (check_fuzzy_positional, dict(max_n=7)),
    "encoded-readback": (check_encoded_readback, dict(max_len=8)),
    "known-topology-q0": (check_known_topology_q0, dict(max_n=6)),
    "uniform-random-tree": (check_uniform_random_tree, dict(n_samples=20_000)),
    "experiment-determinism": (check_experiment_determinism, dict()),
}

# The name -> function dict that run_checks calls through, so that a caller
# can wrap a check by replacing its entry in place.
_FUNCTIONS = {name: fn for name, (fn, _) in CHECKS.items()}


def run_checks(level: str):
    """Run the whole battery at the given level; yields (name, passed, detail)."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be '{QUICK}' or '{FULL}'")
    for name, fn in _FUNCTIONS.items():
        kwargs = CHECKS[name][1] if level == QUICK else {}
        passed, detail = fn(**kwargs)
        yield name, passed, detail

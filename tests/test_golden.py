"""Golden outputs of the experiment harness, pinned for every family x model.

Each seeded sweep's CSV bytes are pinned by sha256, and each doubling search
by its result.  A change that reorganises how trials are built, sampled or
decoded must leave all of them unchanged: same spec and master seed, same
bytes.
"""

import hashlib

import pytest

from treetrace.harness import (
    BudgetExceededError,
    ExperimentSpec,
    _forked_source,
    doubling_search,
    rows_to_csv,
    run_experiment,
)

PAIRS = [
    ("random", "string"), ("random", "ted"), ("random", "lp"),
    ("path", "ted"), ("path", "lp"),
    ("forked", "ted"), ("forked", "lp"),
    ("fuzzy", "ted"), ("encoded", "ted"),
]
Q, DELTA, GRID, TRIALS = 0.3, 0.05, (1, 4, 16), 4
SEEDS = (0, 1)


def size(family: str) -> int:
    return 20 if family == "fuzzy" else 6


SWEEP_SHA256 = {
    ("random", "string", 0): "108e48fe96d6687e5e1e457ec6cc2c3d301eb8834328e7da7774f97023ed18cb",
    ("random", "string", 1): "6a5cd300a425c7c8974a2694e06ed8c31fca72240e270f84bd6fcee9bc29ff3b",
    ("random", "ted", 0): "b6aa21c696f5f70a71090c245d5dd0a80c8e7fb2671054d2e9e9e495e85acc39",
    ("random", "ted", 1): "466dc4851b5000049e635b174bcd015ecd2c7fb9005d94781fbdbb1a92f1a7d9",
    ("random", "lp", 0): "b5aa1c6d08a49f174264b02f379ccbbeed48e6e10aec841b7a86f60d2ba22437",
    ("random", "lp", 1): "ed5276c1eb3d1d2f19fdcb3bf030eded032c0f6ee505cad7be975b20e28dd798",
    ("path", "ted", 0): "83e042921ba3db286a4cf433cc29b54ae7ab7173705dc2434f4e405dea878c81",
    ("path", "ted", 1): "1334e5cdfddcfddf0d63f5abe401975cd912efd37236d1fbdf23b233fc3284e0",
    ("path", "lp", 0): "e5ea180d30c26d2f76faf2c53d848406c4871b435450c126936c94ecb55d4b7f",
    ("path", "lp", 1): "a8d8f3defc79b2098d6b0f498213a06b113bec988a9a0b95c17fb0dc6302a50d",
    ("forked", "ted", 0): "b5705d1c71a6f988a75a75209c1717820e4fd45458705265c0d5d1dd736b2efb",
    ("forked", "ted", 1): "b5f26ebe557099953e93afa8b938f0b0e2ea7eb2ecf2b472c561cc3d4090b26f",
    ("forked", "lp", 0): "f36fe4a770e9907b28992c796f509475eade357784c4da443ab4ad3b91e0e520",
    ("forked", "lp", 1): "273de4ca0e57e02110dd2b09b45218195c6dae69961597d4f99151b15d892684",
    ("fuzzy", "ted", 0): "9f1ef1512eccb3ffdc8d77ad25f9691534b9895f7d348089a1c1cdf0182fcfeb",
    ("fuzzy", "ted", 1): "aadda010a7d11ba7ad254d863d590ab9301d1e9f11f478418d6c1c03502fc295",
    ("encoded", "ted", 0): "603efdfd8c1645d1c5e643358112b5f1d19f83f65f259128b41e28f0f04d1c8f",
    ("encoded", "ted", 1): "d9c966fccbde46136cb24d74df1dbec592f17790509c474c937f0616e4aca2cc",
}

SEARCH_RESULT = {
    ("random", "string"): 16,
    ("random", "ted"): 8,
    ("random", "lp"): 8,
    ("path", "ted"): 8,
    ("path", "lp"): 8,
    ("forked", "ted"): 1,
    ("forked", "lp"): 16,
    ("fuzzy", "ted"): 32,
    ("encoded", "ted"): 8,
}


def sweep_digest(family: str, model: str, seed: int) -> str:
    spec = ExperimentSpec(family=family, n=size(family), q=Q, model=model,
                          trace_grid=GRID, trials=TRIALS, delta=DELTA,
                          master_seed=seed)
    return hashlib.sha256(rows_to_csv(run_experiment(spec)).encode()).hexdigest()


def search_result(family: str, model: str):
    try:
        return doubling_search(family, size(family), Q, model, target_rate=0.9,
                               trials=2 * TRIALS, delta=DELTA, master_seed=0,
                               budget_cap=64)
    except BudgetExceededError:
        return "exceeded"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family,model", PAIRS)
def test_sweep_csv_bytes_are_pinned(family, model, seed):
    assert sweep_digest(family, model, seed) == SWEEP_SHA256[(family, model, seed)]


@pytest.mark.parametrize("family,model", PAIRS)
def test_doubling_search_is_pinned(family, model):
    assert search_result(family, model) == SEARCH_RESULT[(family, model)]


def test_pins_hold_with_a_warm_memo():
    """forked samples the same two trees every trial, so the second run reads
    every trace from the rows those trees keep; the bytes must not move."""
    _forked_source.cache_clear()
    for _ in range(2):
        for seed in SEEDS:
            assert sweep_digest("forked", "lp", seed) == SWEEP_SHA256[("forked", "lp", seed)]
        assert search_result("forked", "lp") == SEARCH_RESULT[("forked", "lp")]
        assert all(_forked_source(size("forked"), side)._sampled[1] for side in (False, True))

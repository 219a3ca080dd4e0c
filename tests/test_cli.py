import hashlib
import re

import pytest

from treetrace import harness
from treetrace.cli import load_spec_file, main
from treetrace.harness import CSV_HEADER, trial_rng
from treetrace.instances import forked_tree, path_tree, random_labels
from treetrace.trees import format_tree, parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_path(capsys):
    # gen prints trial (0, 0, 0)'s instance: A_3 with the labels it hides.
    code, out = run(capsys, "gen", "--family", "path", "--n", "3")
    assert code == 0
    assert parse_tree(out.strip()).word == "111000"
    assert out.strip() == format_tree(random_labels(path_tree(3), trial_rng(0, 0, 0)))


def test_gen_is_seed_deterministic(capsys):
    _, a = run(capsys, "gen", "--family", "random", "--n", "9", "--seed", "4")
    _, b = run(capsys, "gen", "--family", "random", "--n", "9", "--seed", "4")
    _, c = run(capsys, "gen", "--family", "random", "--n", "9", "--seed", "5")
    assert a == b
    assert a != c


def test_trace_and_recon_roundtrip(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    code, _ = run(capsys, "trace", "--family", "random", "--model", "ted",
                  "--n", "8", "--q", "0.1", "--traces", "64", "--seed", "3",
                  "--out", str(traces))
    assert code == 0
    lines = traces.read_text().splitlines()
    assert len(lines) == 64
    parse_tree(lines[0])
    code, out = run(capsys, "recon", "--family", "random", "--model", "ted",
                    "--n", "8", "--q", "0.1", "--seed", "3", str(traces))
    assert code == 0
    parse_tree(out.strip())


def fork_coin(seed: int) -> bool:
    """Whether trial (seed, 0, 0) of the forked family hides B_n."""
    return bool(trial_rng(seed, 0, 0).random() < 0.5)


def test_enumerate_lp(capsys):
    # The lower-bound lemma: A_6 and B_6 share the 2-deletion trace set {A_4}.
    seeds = [next(s for s in range(100) if fork_coin(s) == fork) for fork in (True, False)]
    for seed, fork in zip(seeds, (True, False)):
        _, tree = run(capsys, "gen", "--family", "forked", "--n", "6", "--seed", str(seed))
        assert parse_tree(tree.strip()) == (forked_tree(6) if fork else path_tree(6))
        code, out = run(capsys, "enumerate", "--model", "lp", "--family", "forked",
                        "--n", "6", "--traces", "2", "--seed", str(seed))
        assert code == 0
        assert out.strip() == "0(0(0(0(0))))"
    # On the labelled path, every trace still has A_4's shape.
    code, out = run(capsys, "enumerate", "--model", "lp", "--family", "path",
                    "--n", "6", "--traces", "2")
    assert code == 0
    lines = out.split()
    assert lines
    assert all(parse_tree(ln).word == "11110000" for ln in lines)


def test_enumerate_lp_k_ranges_over_the_non_root_nodes(capsys):
    # --traces is the deletion count k under LP: k = 0 leaves the instance,
    # and A_4 has 4 non-root nodes, so k = -1 and k = 5 are out of range.
    flags = ["--family", "path", "--n", "4"]
    _, shown = run(capsys, "gen", *flags)
    assert run(capsys, "enumerate", "--model", "lp", *flags, "--traces", "0") == (0, shown)
    for k in (-1, 5):
        assert main(["enumerate", "--model", "lp", *flags, f"--traces={k}"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"treetrace enumerate: k={k} must lie in [0, 4], the number of non-root nodes"]


def test_recon_refuses_the_encoded_family(tmp_path, capsys):
    # Its decoder reads node ids, which tree text does not carry: refused
    # before the trace file is read, so a missing file does not matter.
    code = main(["recon", "--family", "encoded", "--n", "6", "--q", "0",
                 str(tmp_path / "missing.txt")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "treetrace recon: the encoded decoder reads node ids, which tree text does not carry"]


def test_enumerate_ted_distribution(capsys):
    _, tree = run(capsys, "gen", "--family", "path", "--n", "2", "--q", "0.5")
    _, l1, l2 = parse_tree(tree.strip()).labels
    code, out = run(capsys, "enumerate", "--model", "ted", "--family", "path",
                    "--n", "2", "--q", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    # Traces of the 3-node path: A_2, root only, and A_1 labelled l1 or l2.
    assert len(lines) == 3 + (l1 != l2)
    total = sum(float(ln.split("\t")[0]) for ln in lines)
    assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("family,model,n", [
    ("random", "string", 6), ("random", "ted", 6), ("path", "lp", 6),
    ("forked", "lp", 6), ("fuzzy", "ted", 20),
])
def test_trace_and_recon_replay_trial_zero(tmp_path, capsys, family, model, n):
    # trace writes trial (seed, 0, 0)'s traces and recon decodes them, so
    # recon prints the truth exactly when that trial succeeds.
    traces = tmp_path / "traces.txt"
    for seed in range(4):
        flags = ["--family", family, "--model", model, "--n", str(n), "--q", "0.3",
                 "--seed", str(seed)]
        _, shown = run(capsys, "gen", *flags, "--traces", "4")
        truth = shown.strip()
        if family == "forked":
            truth = "forked" if "," in truth else "path"
        assert run(capsys, "trace", *flags, "--traces", "4", "--out", str(traces))[0] == 0
        code, got = run(capsys, "recon", *flags, str(traces))  # 4 lines: 4 planned traces
        success = harness.run_trial(family, model, n, 0.3, 0.05, 4, trial_rng(seed, 0, 0))
        assert (code == 0 and got.strip() == truth) == success


def test_recon_reads_empty_string_traces(tmp_path, capsys):
    # At q = 0.9 both traces of trial (0, 0, 0) lose every symbol.
    traces = tmp_path / "traces.txt"
    flags = ["--model", "string", "--n", "2", "--q", "0.9"]
    assert run(capsys, "trace", *flags, "--traces", "2", "--out", str(traces))[0] == 0
    assert traces.read_text() == "\n\n"
    assert run(capsys, "recon", *flags, str(traces)) == (0, "00\n")


def test_recon_rejects_nonbinary_string_trace(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    traces.write_text("012\n")
    code = main(["recon", "--model", "string", "--n", "3", str(traces)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == ["treetrace recon: traces must be binary strings"]


@pytest.mark.parametrize("command, target", [
    ("recon", "missing.txt"),
    ("recon", "."),
    ("trace --traces 4 --out", "missing/traces.txt"),
    ("experiment --traces 1,2 --trials 3 --out", "missing/sweep.csv"),
])
def test_file_errors_exit_2_with_one_line(tmp_path, capsys, no_trials, command, target):
    # A file that cannot be read or written is invalid input; no_trials shows
    # that experiment fails on its --out path before the first trial.
    path = str(tmp_path / target)
    first, *rest = command.split()
    code = main([first, "--n", "6", *rest, path])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"treetrace {first}: ") and path in line


def test_experiment_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _ = run(capsys, "experiment", "--family", "random", "--model", "ted",
                  "--n", "6", "--q", "0.1", "--traces", "1,2,4", "--trials", "5",
                  "--seed", "7", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_experiment_spec_file(tmp_path, capsys):
    spec = tmp_path / "exp.spec"
    spec.write_text(
        "family=random\nmodel=ted\nn=6\nq=0.1\ntraces=1,2\ntrials=4\nseed=2\n"
    )
    code, out = run(capsys, "experiment", str(spec))
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert len(out.strip().splitlines()) == 3


def test_spec_file_loses_to_explicit_flags(tmp_path, capsys):
    spec = tmp_path / "exp.spec"
    spec.write_text("family=random\nmodel=ted\nn=6\nq=0.1\ntraces=1\ntrials=2\n")
    code, out = run(capsys, "experiment", str(spec), "--n", "8", "--family", "path")
    assert code == 0
    assert out.splitlines()[1].startswith("path-ted-n8-q0.1,path,8,0.1,ted,1,2,")


@pytest.mark.parametrize("line", ["family=bogus", "timing=false", "colour=red", "n=six"])
def test_spec_file_values_go_through_argparse(tmp_path, capsys, line):
    spec = tmp_path / "exp.spec"
    spec.write_text(f"n=6\ntraces=1\ntrials=2\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", str(spec)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", ["verify --n 3", "gen --level full", "trace --trials 5",
                                  "recon --traces 5 f.txt", "search --traces 5"])
def test_flags_belong_to_the_subcommands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_load_spec_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("this is not key value\n")
    with pytest.raises(ValueError):
        load_spec_file(str(bad))


def test_search_q0(capsys):
    code, out = run(capsys, "search", "--family", "random", "--model", "ted",
                    "--n", "6", "--q", "0.0", "--trials", "4", "--delta", "0.05")
    assert code == 0
    assert out.strip() == "1"


def test_search_rejects_zero_trials(capsys, no_trials):
    assert main(["search", "--family", "random", "--model", "ted", "--n", "6",
                 "--q", "0.1", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["treetrace search: trials must be >= 1"]


# sha256 of `verify --level quick` stdout.  The detail lines carry Monte
# Carlo frequencies, so a change to any generator stream moves this digest.
VERIFY_QUICK_SHA256 = "5dd79a0d2738da742dc4215ad2d1940b0e17b90b954d6c3e61a7970d2f3327ae"


def test_verify_quick_exit_code(capsys):
    code = main(["verify", "--level", "quick"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "overall" in out and "FAIL" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_QUICK_SHA256
    # One "name  <ms> ms" line per check on stderr, in report order.
    timings = err.splitlines()
    names = [line.split()[0] for line in out.splitlines()[:-1]]
    assert len(timings) == len(names) == 22
    for line, name in zip(timings, names):
        assert re.fullmatch(rf"{name}  \d+ ms", line)

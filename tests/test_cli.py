import hashlib
import io
import json
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from profilerank.cli import PIECE_CHARS, _exact, main
from profilerank.core import Params, ProfileVector, profile_of, word_text
from profilerank.encoder import (
    Repository,
    count_lower_bound,
    encode_b,
    info_a_to_text,
    info_b_to_text,
    random_info_a,
    random_info_b,
)
from profilerank.feasibility import FeasibleVector, upper_bound
from profilerank.synthesis import eulerian_runs

CHANNEL_STRING = "AGGGGGGGGGGCGCGCGCGCGCGCGAGAGAGAGCCCCCCCACACA".translate(
    str.maketrans("ACG", "012")
)
CHANNEL_ORDER = "00,01,10,20,02,11,12,21,22"


@pytest.fixture(scope="session")
def repo_path(repo, tmp_path_factory):
    path = tmp_path_factory.mktemp("repo") / "repository.txt"
    repo.save(path)
    return str(path)


def test_profile_command(capsys):
    rc = main(["profile", "--q", "3", "--ell", "2", "--string", CHANNEL_STRING])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "q=3 ell=2"
    assert "22 9" in out


def test_profile_with_symbols_above_nine_is_rejected_before_reading(tmp_path, capsys):
    # the missing file is never opened: the alphabet is refused first
    for source in (["--string", "0123"], ["--string-file", str(tmp_path / "missing.txt")]):
        assert main(["profile", "--q", "11", "--ell", "1", *source]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: digit rendering is only defined for q <= 10\n"


def test_check_feasible_and_infeasible(capsys):
    assert main(["check", "--perm", CHANNEL_ORDER]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status=feasible")
    assert main(["check", "--perm", "10,20,01,02,00,11,12,21,22"]) == 2
    out = capsys.readouterr().out
    assert "status=infeasible" in out


def test_usage_error_exit_code(capsys):
    assert main(["bounds", "--q", "3", "--ell", "3"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "2", "--ell", "2", "--upper"],
        ["--q", "3", "--ell", "1", "--lower"],
        ["--q", "2", "--ell", "3", "--length"],
    ],
)
def test_bounds_outside_the_calculator_domain_is_usage_error(argv, capsys):
    assert main(["bounds"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and "q >= 3" in captured.err


def test_census_command(capsys):
    assert main(["census", "--q", "2", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "feasible=0" in out


def test_census_command_output_at_three_two(capsys):
    assert main(["census", "--q", "3", "--ell", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        "census q=3 ell=2",
        "permutations=362880",
        "feasible=30240",
        "precheck_hit_infeasible=332640",
        "silent_infeasible=0",
    ]
    assert lines[-1].startswith("elapsed_seconds=")


@pytest.mark.parametrize(
    "q, ell, counters",
    [
        (
            3,
            2,
            {
                "prefixes": 6649,
                "settled_hits": 27720,
                "set_refuted": 0,
                "assigned": 2520,
                "maxima_tried": 8340,
                "sequences_tested": 1570950,
            },
        ),
        (
            2,
            3,
            {
                "prefixes": 3532,
                "settled_hits": 8904,
                "set_refuted": 1176,
                "assigned": 0,
                "maxima_tried": 0,
                "sequences_tested": 0,
            },
        ),
    ],
    ids=["q3l2", "q2l3"],
)
def test_census_stats_flag(capsys, q, ell, counters):
    # one JSON line of CensusStats on stderr; stdout as without the flag
    argv = ["census", "--q", str(q), "--ell", str(ell)]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == 0
    captured = capsys.readouterr()
    # all but the elapsed line
    assert captured.out.splitlines()[:-1] == plain.out.splitlines()[:-1]
    assert plain.err == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {**counters, "lp_calls": 0}


def test_census_and_repo_build_take_no_jobs(tmp_path, capsys):
    # each is one serial pass, the noise sweep too
    pfile = tmp_path / "profile.txt"
    pfile.write_text(profile_of(CHANNEL_STRING, Params(3, 2)).to_text())
    commands = [
        ["census", "--q", "2", "--ell", "2"],
        ["repo", "build", "--file", str(tmp_path / "repo.txt")],
        ["simulate", "--profile", str(pfile), "--noise", "additive", "--params", "1",
         "--seed", "1"],
    ]
    for argv in commands:
        assert main(argv + ["--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err
    assert not (tmp_path / "repo.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--q", "2", "--ell", "5000"],
        ["census", "--q", "3", "--ell", "3000000"],
        ["profile", "--q", "2", "--ell", "40", "--string", "01"],
        ["profile", "--q", "3", "--ell", "3000000", "--string", "01"],
    ],
    ids=["census-q2-l5000", "census-q3-l3000000", "profile-q2-l40", "profile-q3-l3000000"],
)
def test_huge_window_lengths_are_refused_fast_in_one_line(argv, capsys):
    # refused on ell before q^ell is computed, and q^ell is never printed
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 80


def test_whole_numbers_below_their_least_are_usage_errors(tmp_path, capsys):
    pfile = tmp_path / "profile.txt"
    pfile.write_text(profile_of(CHANNEL_STRING, Params(3, 2)).to_text())
    markov = ["synthesize", "--profile", str(pfile), "--method", "markov", "--seed", "1"]
    commands = [
        (["census", "--q", "3", "--ell", "0"], "--ell"),
        (["census", "--q", "1", "--ell", "2"], "--q"),
        (["profile", "--q", "1", "--ell", "2", "--string", "000"], "--q"),
        (["profile", "--q", "3", "--ell", "0", "--string", "012"], "--ell"),
        (markov + ["--length", "0"], "--length"),
        (["bounds", "--q", "3", "--ell", "3", "--length", "--c3", "0"], "--c3"),
        (["bounds", "--q", "1", "--ell", "3", "--lower"], "--q"),
        (["bounds", "--q", "3", "--ell", "0", "--lower"], "--ell"),
    ]
    for argv, option in commands:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err


@pytest.mark.parametrize("value", ["\uff13", "1_0", "+3", "-3", "3.0", "", "02", "007", "00"])
def test_whole_number_options_take_ascii_digits_only(value, tmp_path, capsys):
    # int() reads the first three as 3, 10 and 3, and the last three as 2, 7
    # and 0; a whole number is written as str writes it.
    profile = tmp_path / "profile.txt"
    profile.write_text(profile_of(CHANNEL_STRING, Params(3, 2)).to_text())
    pfile = str(profile)
    markov = ["synthesize", "--profile", pfile, "--method", "markov"]
    sweep = ["simulate", "--profile", pfile, "--noise", "additive"]
    commands = [
        (["census", "--q", value, "--ell", "1"], "--q"),
        (["census", "--q", "3", "--ell", value], "--ell"),
        (["profile", "--q", value, "--ell", "2", "--string", "012"], "--q"),
        (["bounds", "--q", "3", "--ell", value, "--upper"], "--ell"),
        (["bounds", "--q", "3", "--ell", "3", "--length", "--c3", value], "--c3"),
        (markov + ["--seed", value, "--length", "10"], "--seed"),
        (markov + ["--seed", "1", "--length", value], "--length"),
        (sweep + ["--params", "1", "--seed", value], "--seed"),
        (sweep + ["--params", "1", "--seed", "1", "--trials", value], "--trials"),
        (sweep + ["--seed", "1", "--params", "1", value], "additive noise level"),
    ]
    for argv, option in commands:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and option in captured.err


def test_check_takes_no_precheck_switch(capsys):
    # a pre-check hit is already a proof, so check has no switch to run the
    # LP in its place
    assert main(["check", "--perm", CHANNEL_ORDER, "--no-precheck"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --no-precheck" in captured.err


def test_check_rejects_ragged_words(capsys):
    assert main(["check", "--perm", "00,1,10,11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not have length" in captured.err


def test_bounds_command(capsys):
    assert (
        main(["bounds", "--q", "3", "--ell", "3", "--rate", "--lower", "--upper"]) == 0
    )
    out = capsys.readouterr().out
    assert "rate=0.0805" in out
    assert "lower=39191040" in out


@pytest.mark.parametrize("q, ell", [(3, 2), (3, 3), (4, 2), (5, 2), (4, 3), (3, 4), (5, 3)])
def test_bounds_upper_approximation_is_the_float_one(q, ell, capsys):
    # wherever the bound fits a float, the approximation is the one printed
    # before it was rounded from the exact value
    assert main(["bounds", "--q", str(q), "--ell", str(ell), "--upper"]) == 0
    bound = upper_bound(Params(q, ell))
    assert capsys.readouterr().out == f"upper={bound} ({float(bound):.6g})\n"


@pytest.mark.parametrize(
    "argv, calculator, approx, past_limit",
    [
        (["--q", "4", "--ell", "4", "--upper"], upper_bound, "4.03333e+503", False),
        (["--q", "3", "--ell", "5", "--upper"], upper_bound, "2.19921e+470", False),
        (["--q", "4", "--ell", "6", "--upper"], upper_bound, "2.07839e+12966", True),
        (["--q", "5", "--ell", "6", "--lower"], count_lower_bound, None, True),
    ],
)
def test_bounds_past_float_range_and_the_digit_limit(
    argv, calculator, approx, past_limit, capsys
):
    # past a float's range the upper bound's approximation still prints, and
    # values longer than Python's int-to-str limit print in full, leaving
    # that process-wide limit as it is
    limit = sys.get_int_max_str_digits()
    assert main(["bounds"] + argv) == 0
    assert sys.get_int_max_str_digits() == limit
    line = capsys.readouterr().out.removesuffix("\n")
    value = calculator(Params(int(argv[1]), int(argv[3])))
    key, digits = line.split(" ")[0].split("=")
    assert key == argv[4].removeprefix("--")
    assert int(Decimal(digits)) == value
    if approx is not None:
        assert line.endswith(f" ({approx})")
    assert (len(digits) > limit) == past_limit


# sha256 and length of `bounds --q 3 --ell <ell> --upper` stdout, as printed
# when the approximation was rounded from the exact integers
UPPER_OUTPUT = {
    9: ("14f031e6f3d07b0f9694823bf019cfb316727bf120aa4e2fa84e3732da6e41cd", 75561),
    10: ("a8b54cc97a40e2894d0cb38ada9bcd74d55d652d2ff6762f9e956d9e2b707f39", 254801),
}


@pytest.mark.parametrize("ell", sorted(UPPER_OUTPUT))
def test_bounds_upper_at_long_windows_matches_pinned_output(ell, capsys):
    assert main(["bounds", "--q", "3", "--ell", str(ell), "--upper"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == UPPER_OUTPUT[ell]


@pytest.mark.parametrize("q, ell", [(3, 12), (3, 40), (3, 10**12), (513, 2)])
def test_bounds_upper_refuses_more_words_than_its_cap(q, ell, capsys):
    # refused on ell before q^ell or its factorial is computed
    start = time.perf_counter()
    assert main(["bounds", "--q", str(q), "--ell", str(ell), "--upper"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: upper bound capped at 262144 words, got q={q} ell={ell}\n"


@pytest.mark.parametrize("q, ell", [(3, 12), (3, 40), (3, 10**12), (513, 2)])
def test_bounds_lower_refuses_more_words_than_its_cap(q, ell, capsys):
    # the cap --upper has, tested on ell first: the product over the layers
    # would otherwise run on for every ell
    start = time.perf_counter()
    assert main(["bounds", "--q", str(q), "--ell", str(ell), "--lower"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: lower bound capped at 262144 words, got q={q} ell={ell}\n"


@pytest.mark.parametrize("digits", [1, 155, 10**4, 31623, 10**5])
def test_exact_values_print_as_str_would(digits):
    # the split conversion against str() with the digit limit lifted
    rng = random.Random(digits)
    values = [10 ** (digits - 1), 10**digits - 1, rng.randrange(10 ** (digits - 1), 10**digits)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in values + [-values[2]]:
            assert _exact(n) == str(n)
        assert _exact(Fraction(values[2], 7)) == str(Fraction(values[2], 7))
    finally:
        sys.set_int_max_str_digits(limit)
    assert _exact(0) == "0" and _exact(Fraction(-1, 2)) == "-1/2"


def test_bounds_rate_at_a_long_window(capsys):
    # q**(ell - 2) is past a float's range; the rate itself is small
    assert main(["bounds", "--q", "3", "--ell", "700", "--rate"]) == 0
    assert capsys.readouterr().out == "rate=0.0005\n"


def test_synthesize_euler_round_trip(tmp_path, capsys):
    params = Params(3, 2)
    prof = profile_of(CHANNEL_STRING, params)
    pfile = tmp_path / "profile.txt"
    pfile.write_text(prof.to_text())
    assert main(["synthesize", "--profile", str(pfile), "--method", "euler"]) == 0
    emitted = capsys.readouterr().out.strip()
    assert len(emitted) == 45
    assert profile_of(emitted, params).counts == prof.counts


# sha256 of the witness text the CLI writes: `synthesize --method euler` on
# the profile of CHANNEL_STRING, and `encode b --emit string` on
# random_info_b(3, 3, random.Random(1)), a witness of 7203978 symbols
EULER_WITNESS_DIGEST = "0b35bf6eac7ed9969157bd909f1bf09d2767acc57a663ca49d827548ff68c35c"
ENCODE_B_WITNESS_DIGEST = "62f13a143a2f45dd69ec78e9d60bd1d67f48d3f3bc93a0e77c22e417ee3ddf03"


def test_witness_outputs_match_pinned_digests(repo_path, tmp_path):
    pfile, ifile, out = tmp_path / "profile.txt", tmp_path / "info_b.txt", tmp_path / "w.txt"
    pfile.write_text(profile_of(CHANNEL_STRING, Params(3, 2)).to_text())
    assert main(["synthesize", "--profile", str(pfile), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EULER_WITNESS_DIGEST
    ifile.write_text(info_b_to_text(random_info_b(3, 3, random.Random(1))))
    argv = ["encode", "b", "--info", str(ifile), "--repo", repo_path, "--emit", "string"]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENCODE_B_WITNESS_DIGEST


def test_synthesize_markov_requires_seed(tmp_path, capsys):
    pfile = tmp_path / "profile.txt"
    pfile.write_text(profile_of(CHANNEL_STRING, Params(3, 2)).to_text())
    assert main(["synthesize", "--profile", str(pfile), "--method", "markov"]) == 1
    assert (
        main(
            [
                "synthesize",
                "--profile",
                str(pfile),
                "--method",
                "markov",
                "--seed",
                "5",
                "--length",
                "300",
            ]
        )
        == 0
    )
    assert len(capsys.readouterr().out.strip()) == 300


class _ClosingPipe(io.TextIOBase):
    """A stdout whose reader goes away after ``limit`` characters."""

    def __init__(self, limit: int):
        self.limit = limit
        self.parts: list[str] = []
        self.size = 0

    def write(self, text: str) -> int:
        if self.size + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        self.parts.append(text)
        self.size += len(text)
        return len(text)


def _expand(runs, n: int) -> str:
    """The first ``n`` symbols of the string the runs expand to, as digits."""
    parts, size = [], 0
    for s, k in runs:
        take = min(k, (n - size) // len(s) + 1)
        parts.append(word_text(s) * take)
        size += take * len(s)
        if size >= n:
            break
    return "".join(parts)[:n]


@pytest.mark.parametrize("kind", ["synthesize", "encode"])
def test_witness_too_long_to_hold_streams_until_the_pipe_closes(
    kind, repo, repo_path, tmp_path, monkeypatch, capsys
):
    # 45 * 2^61 symbols, or a (4,3) encode_b witness of about 2^47: joining
    # either into one string ran out of memory
    if kind == "synthesize":
        p = ProfileVector(Params(3, 2), (1, 2, 5, 3, 6, 7, 4, 8, 9)).scaled(2**61)
        pfile = tmp_path / "profile.txt"
        pfile.write_text(p.to_text())
        argv = ["synthesize", "--profile", str(pfile), "--method", "euler"]
    else:
        info = random_info_b(4, 3, random.Random(6))
        ifile = tmp_path / "info_b.txt"
        ifile.write_text(info_b_to_text(info))
        argv = ["encode", "b", "--info", str(ifile), "--repo", repo_path]
        argv += ["--emit", "string"]
        p = ProfileVector(Params(4, 3), encode_b(info, repo).entries)
    assert p.total() > 2**46
    sink = _ClosingPipe(10**6)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 2
    assert "Broken pipe" in capsys.readouterr().err
    assert 10**6 - PIECE_CHARS < sink.size <= 10**6
    assert "".join(sink.parts) == _expand(eulerian_runs(p), sink.size)


def test_witness_with_symbols_above_nine_is_rejected_before_output(
    repo_path, tmp_path, capsys
):
    ifile = tmp_path / "info_b.txt"
    ifile.write_text(info_b_to_text(random_info_b(11, 2, random.Random(3))))
    argv = ["encode", "b", "--info", str(ifile), "--repo", repo_path, "--emit", "string"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: digit rendering is only defined for q <= 10\n"


def test_encode_decode_round_trip_cli(repo_path, tmp_path, capsys):
    rng = random.Random(0)
    info = random_info_a(4, rng)
    ifile = tmp_path / "info.txt"
    ifile.write_text(info_a_to_text(info))
    vfile = tmp_path / "vec.txt"
    assert (
        main(
            [
                "encode",
                "a",
                "--info",
                str(ifile),
                "--repo",
                repo_path,
                "--out",
                str(vfile),
            ]
        )
        == 0
    )
    assert (
        main(["decode", "a", "--vector", str(vfile), "--repo", repo_path]) == 0
    )
    assert capsys.readouterr().out == info_a_to_text(info)


def test_encode_b_perm_and_string(repo, repo_path, tmp_path, capsys):
    rng = random.Random(1)
    info = random_info_b(3, 3, rng)
    ifile = tmp_path / "info_b.txt"
    ifile.write_text(info_b_to_text(info))
    assert (
        main(
            [
                "encode",
                "b",
                "--info",
                str(ifile),
                "--repo",
                repo_path,
                "--emit",
                "perm",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert len(out.split(",")) == 27
    sfile = tmp_path / "witness.txt"
    argv = ["encode", "b", "--info", str(ifile), "--repo", repo_path, "--emit", "string"]
    assert main([*argv, "--out", str(sfile)]) == 0
    text = sfile.read_text()
    assert text.endswith("\n") and len(text) > 7 * 10**6
    assert profile_of(text[:-1], Params(3, 3)).counts == encode_b(info, repo).entries


def test_decode_rejects_non_codeword(repo_path, tmp_path, capsys):
    bad = ProfileVector(Params(3, 2), (1, 2, 5, 3, 6, 7, 4, 8, 10))
    vfile = tmp_path / "bad.txt"
    vfile.write_text(bad.to_text())
    assert main(["decode", "a", "--vector", str(vfile), "--repo", repo_path]) == 2


def test_decode_rejects_non_integral_entry(repo, repo_path, tmp_path, capsys):
    info = random_info_b(3, 3, random.Random(5))
    vec = encode_b(info, repo).to_feasible()
    good = tmp_path / "good.txt"
    good.write_text(vec.to_text())
    assert main(["decode", "b", "--vector", str(good), "--repo", repo_path]) == 0
    assert capsys.readouterr().out == info_b_to_text(info)
    # halve one entry and add 1/2: int() would floor it back to the codeword
    i = max(range(len(vec.entries)), key=vec.entries.__getitem__)
    lines = vec.to_text().splitlines()
    word, value = lines[1 + i].split()
    lines[1 + i] = f"{word} {2 * int(value) + 1}/2"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["decode", "b", "--vector", str(bad), "--repo", repo_path]) == 2
    assert "not-a-codeword" in capsys.readouterr().err


def test_decode_checks_the_window_length(repo, repo_path, tmp_path, capsys):
    # kind a takes window length 2 only, and neither kind takes window length 1
    v33 = tmp_path / "v33.txt"
    entries = repo.vector(1) + tuple(range(100, 118))
    v33.write_text(ProfileVector(Params(3, 3), entries).to_text())
    v31 = tmp_path / "v31.txt"
    v31.write_text(ProfileVector(Params(3, 1), (1, 2, 3)).to_text())
    for kind, vfile in [("a", v33), ("a", v31), ("b", v31)]:
        assert main(["decode", kind, "--vector", str(vfile), "--repo", repo_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not-a-codeword: ")


def test_simulate_command(tmp_path, capsys):
    pfile = tmp_path / "profile.txt"
    pfile.write_text(
        ProfileVector(Params(3, 2), (2, 4, 10, 6, 12, 14, 8, 16, 18)).to_text()
    )
    rc = main(
        [
            "simulate",
            "--profile",
            str(pfile),
            "--noise",
            "additive",
            "--params",
            "0",
            "2",
            "--trials",
            "25",
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("noise")
    assert lines[1].split("\t")[2] == "25"  # zero noise: all successes


@st.composite
def _one_entry_edits(draw):
    """A codeword, one of its word indices, and a nonzero change to it.

    Whole changes are +-1: at window length 2, two repository vectors can
    differ in one loop entry alone, by 2 or more, so a larger step may land
    on another codeword.
    """
    q, ell = draw(st.sampled_from([(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 4)]))
    info = random_info_b(q, ell, draw(st.randoms(use_true_random=False)))
    index = draw(st.integers(0, q**ell - 1))
    delta = draw(
        st.sampled_from([-1, 1])
        | st.fractions(-2, 2).filter(lambda f: f.denominator > 1)
    )
    return info, index, delta


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_one_entry_edits())
def test_decode_exit_codes_on_one_changed_entry(repo, tmp_path, capsys, edit):
    # Reading the repository file takes a quarter second per command; the
    # repository fixture stands in for it (its file round trip is tested in
    # test_encoder.py).
    info, index, delta = edit
    vec = encode_b(info, repo)
    d = Fraction(delta).denominator  # the changed vector's denominator
    entries = [e * d for e in vec.entries]
    entries[index] += int(delta * d)
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(vec.to_text())
    bad.write_text(FeasibleVector(vec.params, tuple(entries), d).to_text())
    decoded = {"a": info_a_to_text(info.base), "b": info_b_to_text(info)}
    with patch.object(Repository, "load", return_value=repo):
        for kind in "ab":
            argv = ["decode", kind, "--repo", "repository.txt", "--vector"]
            if kind == "b" or info.ell == 2:
                assert main(argv + [str(good)]) == 0
                assert capsys.readouterr().out == decoded[kind]
            assert main(argv + [str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("not-a-codeword: ")


def _drop_argv(profile, *rates):
    return ["simulate", "--profile", str(profile), "--noise", "drop",
            "--params", *rates, "--trials", "4", "--seed", "3"]


@pytest.mark.parametrize(
    "rate",
    ["\uff10.\uff11", "1_0e-1", "1e-1", ".5", "5.", "+0.5", "-0", "1.01", "nan", "inf", "00.5"],
)
def test_drop_rates_take_ascii_decimals_in_unit_interval(rate, tmp_path, capsys):
    # float() reads every one of these; the profile file does not exist, so
    # the rate must be rejected before the profile is read
    assert main(_drop_argv(tmp_path / "missing.txt", "0.5", rate)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and repr(rate) in captured.err


def test_drop_rates_at_the_ends_of_the_unit_interval(tmp_path, capsys):
    pfile = tmp_path / "profile.txt"
    pfile.write_text(
        ProfileVector(Params(3, 2), (2, 4, 10, 6, 12, 14, 8, 16, 18)).to_text()
    )
    assert main(_drop_argv(pfile, "0", "0.000", "1", "1.0")) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split("\t")[2] for row in rows] == ["4", "4", "0", "0"]


def test_drop_simulate_on_encoder_scale_counts(repo, tmp_path, capsys):
    # a (4,3) encoder output has entries of up to 41 bits, 7.8*10^13 reads
    # in all: skipping geometric runs would take 2.3*10^13 uniform draws a
    # trial at rate 0.3, and one BTRS draw per count takes a few per count
    vec = encode_b(random_info_b(4, 3, random.Random(6)), repo)
    assert max(vec.entries).bit_length() == 41
    pfile = tmp_path / "profile.txt"
    pfile.write_text(ProfileVector(Params(4, 3), vec.entries).to_text())
    argv = _drop_argv(pfile, "0.3")
    argv[argv.index("--trials") + 1] = "2"
    assert main(argv) == 0
    (row,) = capsys.readouterr().out.strip().splitlines()[1:]
    noise, trials, *outcomes = row.split("\t")
    assert (noise, trials) == ("drop:0.3", "2")
    assert sum(map(int, outcomes)) == 2


def test_distance_command(capsys):
    assert main(["distance", "--a", "10010", "--b", "00110"]) == 0
    assert capsys.readouterr().out.strip() == "2"


@pytest.mark.parametrize(
    "argv,option",
    [
        (["profile", "--q", "3", "--ell", "2"], "--string"),
        (["check"], "--perm"),
    ],
)
def test_missing_input_is_usage_error(argv, option, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and option in err
    assert err.count("\n") == 1  # one line, no traceback


def test_distance_rejects_empty_code_file(tmp_path, capsys):
    cfile = tmp_path / "code.txt"
    cfile.write_text("\n \n")
    assert main(["distance", "--code", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_repo_verify_command(repo_path, capsys):
    assert main(["repo", "verify", "--file", repo_path]) == 0
    assert "ok: 30240" in capsys.readouterr().out


def test_repo_build_default_cap_fits_positive_floor(capsys):
    from profilerank.oracle import REPOSITORY_CAP

    assert REPOSITORY_CAP == 17  # 16 is provably short for strictly positive entries
    # The cap is a constant of the build, not an option.
    assert main(["repo", "build", "--file", "x", "--cap", "16"]) == 1
    assert "--cap" in capsys.readouterr().err


def test_pipe_composability(repo_path, tmp_path, capsys):
    # check -> witness vector -> synthesize -> profile -> check agrees
    vfile = tmp_path / "witness.txt"
    assert main(["check", "--perm", CHANNEL_ORDER, "--out", str(vfile)]) == 0
    body = "\n".join(vfile.read_text().splitlines()[1:]) + "\n"
    pfile = tmp_path / "witness_profile.txt"
    pfile.write_text(body)
    assert main(["synthesize", "--profile", str(pfile), "--method", "euler"]) == 0
    emitted = capsys.readouterr().out.strip()
    reprofiled = profile_of(emitted, Params(3, 2))
    from profilerank.core import rank_of

    assert rank_of(reprofiled).to_text() == CHANNEL_ORDER


@pytest.mark.parametrize(
    "kind,text",
    [
        ("a", "q=3\n"),  # header only
        ("b", "q=3 ell=2\nbase=7\nP(11)=0,1,2\n"),  # layer line with no layer
        ("a", "q=3\n5\n"),  # base line without base=
        ("a", "q=3\nbase=1_0\n"),
        ("b", "q=3 ell=3\nbase=7\nP(11)=0,1,2\nP(12)=2,1,0\nP(21)=1,0,2\n"
              "P(22)=0,2,1\nP(22)=1,2,0\n"),  # repeated layer line
    ],
)
def test_encode_rejects_malformed_message(repo_path, tmp_path, capsys, kind, text):
    ifile = tmp_path / "info.txt"
    ifile.write_text(text)
    assert main(["encode", kind, "--info", str(ifile), "--repo", repo_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")

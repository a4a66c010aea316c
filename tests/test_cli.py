import random

import pytest

from profilerank.cli import main
from profilerank.core import Params, ProfileVector, profile_of
from profilerank.encoder import (
    encode_b,
    info_a_to_text,
    info_b_to_text,
    random_info_a,
    random_info_b,
)

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


def test_census_command(capsys):
    assert main(["census", "--q", "2", "--ell", "2", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "feasible=0" in out


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_usage_error(jobs, tmp_path, capsys):
    pfile = tmp_path / "profile.txt"
    pfile.write_text(profile_of(CHANNEL_STRING, Params(3, 2)).to_text())
    commands = [
        ["census", "--q", "2", "--ell", "2"],
        ["repo", "build", "--file", str(tmp_path / "repo.txt")],
        ["simulate", "--profile", str(pfile), "--noise", "additive", "--params", "1"]
        + ["--seed", "1"],
    ]
    for argv in commands:
        assert main(argv + ["--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err
    assert not (tmp_path / "repo.txt").exists()


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


def test_synthesize_euler_round_trip(tmp_path, capsys):
    params = Params(3, 2)
    prof = profile_of(CHANNEL_STRING, params)
    pfile = tmp_path / "profile.txt"
    pfile.write_text(prof.to_text())
    assert main(["synthesize", "--profile", str(pfile), "--method", "euler"]) == 0
    emitted = capsys.readouterr().out.strip()
    assert len(emitted) == 45
    assert profile_of(emitted, params).counts == prof.counts


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


def test_encode_b_perm_and_string(repo_path, tmp_path, capsys):
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


def test_distance_command(capsys):
    assert main(["distance", "--a", "10010", "--b", "00110"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_repo_verify_command(repo_path, capsys):
    assert main(["repo", "verify", "--file", repo_path]) == 0
    assert "ok: 30240" in capsys.readouterr().out


def test_repo_build_default_cap_fits_positive_floor():
    from profilerank.cli import build_parser

    args = build_parser().parse_args(["repo", "build", "--file", "x"])
    assert args.cap == 17  # 16 is provably short for strictly positive entries


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

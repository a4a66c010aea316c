"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 infeasibility or verification
failure, 3 internal assertion.  Every randomized path takes a mandatory
``--seed``; everything else is deterministic and exact.
"""

from __future__ import annotations

import argparse
import sys

from . import channel, codes, encoder, feasibility, oracle, synthesis
from .core import (
    Params,
    ProfileVector,
    RankPermutation,
    parse_word,
    profile_of,
    word_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we map usage to 1
        raise _UsageError(message)


def _jobs(text: str) -> int:
    jobs = int(text) if text.isascii() and text.isdigit() else 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return jobs


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_perm(args) -> RankPermutation:
    text = args.perm if args.perm else _read(args.perm_file)
    return RankPermutation.from_text(text.strip())


def _string_text(x: bytes) -> str:
    return word_text(tuple(x))


def cmd_check(args) -> int:
    perm = _load_perm(args)
    verdict = feasibility.decide(perm, use_precheck=not args.no_precheck)
    _write(args.out, verdict.to_text())
    return EXIT_OK if verdict.feasible else EXIT_REJECTED


def cmd_profile(args) -> int:
    params = Params(args.q, args.ell)
    text = args.string if args.string else _read(args.string_file).strip()
    _write(args.out, profile_of(text, params).to_text())
    return EXIT_OK


def cmd_synthesize(args) -> int:
    profile = ProfileVector.from_text(_read(args.profile))
    if args.method == "euler":
        x = synthesis.eulerian_string(profile)
    else:
        if args.seed is None or args.length is None:
            raise _UsageError("markov synthesis needs --seed and --length")
        s = synthesis.normalized(profile)
        x = synthesis.markov_generate(s, profile.params, args.length, args.seed)
    _write(args.out, _string_text(x) + "\n")
    return EXIT_OK


def cmd_census(args) -> int:
    params = Params(args.q, args.ell)
    result = oracle.enumerate_feasible(params, jobs=args.jobs)
    sys.stdout.write(result.summary())
    return EXIT_OK


def cmd_repo(args) -> int:
    if args.action == "build":
        repo = oracle.build_repository(cap=args.cap, jobs=args.jobs)
        repo.save(args.file)
        print(f"wrote {len(repo.vectors)} vectors, c3={oracle.compute_c3(repo)}")
        return EXIT_OK
    repo = encoder.Repository.load(args.file)
    repo.validate()
    print(f"ok: {len(repo.vectors)} vectors, c3={oracle.compute_c3(repo)}")
    return EXIT_OK


def cmd_encode(args) -> int:
    repo = encoder.Repository.load(args.repo)
    if args.kind == "a":
        info = encoder.info_a_from_text(_read(args.info))
        vec = encoder.ScaledVector(
            Params(info.q, 2),
            encoder.matrix_to_vector(encoder.encode_a(info, repo)),
        )
    else:
        info_b = encoder.info_b_from_text(_read(args.info))
        vec = encoder.encode_b(info_b, repo)
    if args.emit == "vector":
        _write(args.out, vec.to_feasible().to_text())
    elif args.emit == "perm":
        _write(args.out, vec.rank_order().to_text() + "\n")
    else:
        x = synthesis.eulerian_string(vec.to_feasible().to_profile())
        _write(args.out, _string_text(x) + "\n")
    return EXIT_OK


def cmd_decode(args) -> int:
    repo = encoder.Repository.load(args.repo)
    fv = feasibility.FeasibleVector.from_text(_read(args.vector))
    try:
        if not fv.is_integral():
            raise encoder.NotACodeword("encoder outputs have integer entries")
        entries = tuple(int(e) for e in fv.entries)
        if args.kind == "a":
            info = encoder.decode_a(
                encoder.vector_to_matrix(entries, fv.params.q), repo
            )
            _write(args.out, encoder.info_a_to_text(info))
        else:
            info_b = encoder.decode_b(encoder.ScaledVector(fv.params, entries), repo)
            _write(args.out, encoder.info_b_to_text(info_b))
    except encoder.NotACodeword as err:
        print(f"not-a-codeword: {err}", file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.rate_table:
        lines = ["q\\ell " + " ".join(f"{e:>6}" for e in range(3, 11))]
        for q in range(3, 11):
            row = [
                f"{encoder.rate_lower_bound(Params(q, e)):.4f}" for e in range(3, 11)
            ]
            lines.append(f"{q:>5} " + " ".join(row))
        _write(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.q is None or args.ell is None:
        raise _UsageError("--q and --ell are required unless --rate-table is given")
    params = Params(args.q, args.ell)
    lines = []
    if args.upper:
        bound = feasibility.upper_bound(params)
        lines.append(f"upper={bound} ({float(bound):.6g})")
    if args.lower:
        lines.append(f"lower={encoder.count_lower_bound(params)}")
    if args.rate:
        lines.append(f"rate={encoder.rate_lower_bound(params):.4f}")
    if args.length:
        b = encoder.length_bounds(params, args.c3)
        lines.append(
            f"max_entry_pairs={b.max_entry_pairs} length_pairs={b.length_pairs} "
            f"max_entry={b.max_entry} length={b.length}"
        )
    if args.alpha:
        lines.append(f"alpha_star_lower={feasibility.alpha_star_lower(params)}")
    if not lines:
        raise _UsageError("pick at least one of --upper/--lower/--rate/--length/--alpha")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    profile = ProfileVector.from_text(_read(args.profile))
    if args.noise == "additive":
        models = [channel.AdditiveNoise(int(v)) for v in args.params]
    else:
        models = [channel.DropNoise(float(v)) for v in args.params]
    rows = channel.simulate(profile, models, args.trials, args.seed, jobs=args.jobs)
    header = "noise\ttrials\tsuccesses\tties\trank_errors"
    _write(args.out, "\n".join([header] + [r.to_text() for r in rows]) + "\n")
    return EXIT_OK


def cmd_distance(args) -> int:
    if args.a is not None and args.b is not None:
        print(codes.kendall_tau(parse_word(args.a), parse_word(args.b)))
        return EXIT_OK
    if args.code is None:
        raise _UsageError("need either --a/--b or --code")
    lines = [ln.strip() for ln in _read(args.code).splitlines() if ln.strip()]
    if all(set(ln) <= {"0", "1"} for ln in lines):
        words = tuple(tuple(int(c) for c in ln) for ln in lines)
        code: codes.PermCode | codes.CWBinaryCode = codes.CWBinaryCode(
            len(words[0]), sum(words[0]), words
        )
    else:
        perms = tuple(tuple(ln.split(",")) for ln in lines)
        code = codes.PermCode(tuple(sorted(perms[0])), perms)
    print(code.min_distance)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="profilerank")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a rank order is realizable")
    p.add_argument("--perm")
    p.add_argument("--perm-file")
    p.add_argument("--no-precheck", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("profile", help="profile vector of a circular string")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--string")
    p.add_argument("--string-file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("synthesize", help="produce a witness string for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--method", choices=["euler", "markov"], default="euler")
    p.add_argument("--seed", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("census", help="count realizable orders exhaustively")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--jobs", type=_jobs, help="worker processes (default: all cores)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("repo", help="build or verify the base repository")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--file", required=True)
    p.add_argument("--cap", type=int, default=17)
    p.add_argument("--jobs", type=_jobs, help="worker processes (default: all cores)")
    p.set_defaults(func=cmd_repo)

    p = sub.add_parser("encode", help="message file to vector/permutation/string")
    p.add_argument("kind", choices=["a", "b"])
    p.add_argument("--info", required=True)
    p.add_argument("--repo", required=True)
    p.add_argument("--emit", choices=["vector", "perm", "string"], default="vector")
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="vector file back to its message")
    p.add_argument("kind", choices=["a", "b"])
    p.add_argument("--vector", required=True)
    p.add_argument("--repo", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bounds", help="counting, rate, and length calculators")
    p.add_argument("--q", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--upper", action="store_true")
    p.add_argument("--lower", action="store_true")
    p.add_argument("--rate", action="store_true")
    p.add_argument("--length", action="store_true")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--rate-table", action="store_true")
    p.add_argument("--c3", type=int, default=17)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="noise sweep on a profile vector")
    p.add_argument("--profile", required=True)
    p.add_argument("--noise", choices=["additive", "drop"], required=True)
    p.add_argument("--params", nargs="+", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=_jobs, help="worker processes (default: all cores)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("distance", help="transposition distance of words or codes")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--code")
    p.set_defaults(func=cmd_distance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except AssertionError as err:
        print(f"internal assertion: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

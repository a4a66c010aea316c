"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 infeasibility or verification
failure, 3 internal assertion.  Every randomized path takes a mandatory
``--seed``; everything else is deterministic and exact.
"""

from __future__ import annotations

import argparse
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from typing import Iterable, Iterator

from . import channel, codes, encoder, feasibility, oracle, synthesis
from .core import (
    DECIMAL,
    Params,
    ProfileVector,
    RankPermutation,
    parse_natural,
    parse_word,
    profile_of,
    rank_of,
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


def _whole(least: int = 0):
    """The argparse type of a whole-number option: written as ``str`` writes
    it, the one numeral rule of the text formats, and at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = parse_natural(text, "whole number")
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a whole number >= {least}, got {text!r}")
        return value

    return parse


_natural = _whole()
_positive = _whole(1)  # window lengths, string lengths, c3, worker counts
_alphabet = _whole(2)  # alphabet sizes


def _checked(fn, *args):
    """``fn(*args)``, with its ValueError, a value out of range, a usage error."""
    try:
        return fn(*args)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, or an iterable of text pieces one by one, to ``path``
    or, for None and ``-``, to stdout."""
    pieces = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _inline_or_file(args, name: str) -> str:
    """The text of ``--<name>``, else the stripped contents of ``--<name>-file``."""
    text = getattr(args, name)
    if text:
        return text
    path = getattr(args, f"{name}_file")
    if path is None:
        raise _UsageError(f"need --{name} or --{name}-file")
    return _read(path).strip()


PIECE_CHARS = 1 << 16  # the most characters a repeated run is written in at once
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def _write_string(path: str | None, runs: list[tuple[bytes, int]]) -> None:
    """Write the string that nonempty ``(symbols, repeats)`` runs expand to,
    in digits and then a newline, in pieces of at most PIECE_CHARS characters
    or one run's symbols: a witness too long to hold in memory streams out."""
    if any(max(s) > 9 for s, _ in runs):
        raise ValueError("digit rendering is only defined for q <= 10")
    texts = [(s.translate(_DIGIT_TEXT).decode("ascii"), k) for s, k in runs]

    def pieces() -> Iterator[str]:
        for text, k in texts:
            per = max(1, PIECE_CHARS // len(text))  # repeats of the run per piece
            block = text * per
            full, rest = divmod(k, per)
            for _ in range(full):  # full may pass the C size limit of repeat()
                yield block
            yield text * rest
        yield "\n"

    _write(path, pieces())


def cmd_check(args) -> int:
    perm = RankPermutation.from_text(_inline_or_file(args, "perm").strip())
    verdict = feasibility.decide(perm, use_precheck=not args.no_precheck)
    _write(args.out, verdict.to_text())
    return EXIT_OK if verdict.feasible else EXIT_REJECTED


def cmd_profile(args) -> int:
    params = Params(args.q, args.ell)
    if params.q > 10:  # the profile text names words in digits
        raise ValueError("digit rendering is only defined for q <= 10")
    text = _inline_or_file(args, "string")
    _write(args.out, profile_of(text, params).to_text())
    return EXIT_OK


def cmd_synthesize(args) -> int:
    profile = ProfileVector.from_text(_read(args.profile))
    if args.method == "euler":
        runs = synthesis.eulerian_runs(profile)
    else:
        if args.seed is None or args.length is None:
            raise _UsageError("markov synthesis needs --seed and --length")
        s = synthesis.normalized(profile)
        x = synthesis.markov_generate(s, profile.params, args.length, args.seed)
        runs = [(x, 1)]
    _write_string(args.out, runs)
    return EXIT_OK


def cmd_census(args) -> int:
    params = Params(args.q, args.ell)
    result = oracle.enumerate_feasible(params)
    sys.stdout.write(result.summary())
    return EXIT_OK


def cmd_repo(args) -> int:
    if args.action == "build":
        repo = oracle.build_repository()
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
        vec = encoder.encode_a(encoder.info_a_from_text(_read(args.info)), repo)
    else:
        vec = encoder.encode_b(encoder.info_b_from_text(_read(args.info)), repo)
    if args.emit == "vector":
        _write(args.out, vec.to_text())
    elif args.emit == "perm":
        _write(args.out, rank_of(vec.entries, vec.params).to_text() + "\n")
    else:
        _write_string(args.out, synthesis.eulerian_runs(vec.to_profile()))
    return EXIT_OK


def cmd_decode(args) -> int:
    repo = encoder.Repository.load(args.repo)
    fv = feasibility.FeasibleVector.from_text(_read(args.vector))
    try:
        if args.kind == "a":
            text = encoder.info_a_to_text(encoder.decode_a(fv, repo))
        else:
            text = encoder.info_b_to_text(encoder.decode_b(fv, repo))
    except encoder.NotACodeword as err:
        print(f"not-a-codeword: {err}", file=sys.stderr)
        return EXIT_REJECTED
    _write(args.out, text)
    return EXIT_OK


def _exact(x: int | Fraction) -> str:
    """``str(x)``, written through Decimal, which has no int-to-str digit limit."""
    n, d = x.as_integer_ratio()
    return f"{_decimal(n)}/{_decimal(d)}" if d > 1 else f"{_decimal(n)}"


_LIMB_BITS = 512  # below this, Decimal(n) converts directly


def _decimal(n: int) -> Decimal:
    """``Decimal(n)`` in subquadratic time, for counts of a million digits.

    ``Decimal(n)`` takes time quadratic in the digits.  Here the high and
    low halves of n's bits are converted apart and joined as
    ``low + high * 2**w``, exactly, in decimal arithmetic at full
    precision, whose multiplication is subquadratic.  The powers of two are
    built the same way and cached, since each level of the split needs at
    most two of them.
    """
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            powers[w] = (
                Decimal(1 << w)
                if w <= _LIMB_BITS
                else exact.multiply(power(w >> 1), power(w - (w >> 1)))
            )
        return powers[w]

    def convert(m: int, bits: int) -> Decimal:
        if bits <= _LIMB_BITS:
            return Decimal(m)
        w = bits >> 1
        high = m >> w
        low = convert(m - (high << w), w)
        return exact.add(exact.multiply(convert(high, bits - w), power(w)), low)

    d = convert(abs(n), n.bit_length())
    return exact.minus(d) if n < 0 else d


def _approx(exact: str) -> str:
    """``f"{float(x):.6g}"`` for ``exact = _exact(x)``, rounded from the exact
    digits: no float overflow, and linear time where ``Decimal(int)`` is quadratic."""
    num, _, den = exact.partition("/")
    six = Context(prec=6, Emax=MAX_EMAX)
    d = six.normalize(six.divide(Decimal(num), Decimal(den or 1)))
    e = d.adjusted()
    return f"{d:f}" if -4 <= e < 6 else f"{six.scaleb(d, -e):f}e{e:+03d}"


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
        bound = _checked(feasibility.upper_bound, params)
        exact = _exact(bound)
        lines.append(f"upper={exact} ({_approx(exact)})")
    if args.lower:
        lines.append(f"lower={_exact(_checked(encoder.count_lower_bound, params))}")
    if args.rate:
        lines.append(f"rate={_checked(encoder.rate_lower_bound, params):.4f}")
    if args.length:
        b = _checked(encoder.length_bounds, params, args.c3)
        lines.append(" ".join(f"{name}={_exact(v)}" for name, v in vars(b).items()))
    if args.alpha:
        alpha = _checked(feasibility.alpha_star_lower, params)
        lines.append(f"alpha_star_lower={_exact(alpha)}")
    if not lines:
        raise _UsageError("pick at least one of --upper/--lower/--rate/--length/--alpha")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _rate(text: str) -> float:
    """A drop rate: an ASCII decimal in [0, 1]."""
    if not re.fullmatch(DECIMAL, text) or float(text) > 1:
        raise ValueError(f"drop rate must be a decimal in [0, 1], got {text!r}")
    return float(text)


def cmd_simulate(args) -> int:
    if args.noise == "additive":
        levels = [_checked(parse_natural, v, "additive noise level") for v in args.params]
        models = [channel.AdditiveNoise(v) for v in levels]
    else:
        models = [channel.DropNoise(_checked(_rate, v)) for v in args.params]
    profile = ProfileVector.from_text(_read(args.profile))
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
    if not lines:
        raise ValueError("code file lists no codewords")
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
    p.add_argument("--q", type=_alphabet, required=True)
    p.add_argument("--ell", type=_positive, required=True)
    p.add_argument("--string")
    p.add_argument("--string-file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("synthesize", help="produce a witness string for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--method", choices=["euler", "markov"], default="euler")
    p.add_argument("--seed", type=_natural)
    p.add_argument("--length", type=_positive)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("census", help="count realizable orders exhaustively")
    p.add_argument("--q", type=_alphabet, required=True)
    p.add_argument("--ell", type=_positive, required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("repo", help="build or verify the base repository")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--file", required=True)
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
    p.add_argument("--q", type=_alphabet)
    p.add_argument("--ell", type=_positive)
    p.add_argument("--upper", action="store_true")
    p.add_argument("--lower", action="store_true")
    p.add_argument("--rate", action="store_true")
    p.add_argument("--length", action="store_true")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--rate-table", action="store_true")
    p.add_argument("--c3", type=_positive, default=17)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="noise sweep on a profile vector")
    p.add_argument("--profile", required=True)
    p.add_argument("--noise", choices=["additive", "drop"], required=True)
    p.add_argument("--params", nargs="+", required=True)
    p.add_argument("--trials", type=_natural, default=100)
    p.add_argument("--seed", type=_natural, required=True)
    p.add_argument("--jobs", type=_positive, help="worker processes (default: all cores)")
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

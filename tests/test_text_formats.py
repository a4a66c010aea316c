"""Each text format has one spelling per value.

Every reader builds its value and then holds the text to what the format's
writer gives for that value (``core.read_back``), up to a missing final
newline.  So a text a reader accepts is its writer's output: the one-edit
fuzz below checks that property on every format, and the pinned cases check
the spellings that readers used to accept before that rule.
"""

import random

import pytest

from profilerank.core import Params, ProfileVector, RankPermutation
from profilerank.encoder import (
    _ROW_TEXT,
    _repository_row,
    info_a_from_text,
    info_a_to_text,
    info_b_from_text,
    info_b_to_text,
    random_info_a,
    random_info_b,
)
from profilerank.feasibility import FeasibleVector

# What the edits insert or put in place of a character: every character of
# the formats, and the look-alikes that int() and str.split() take.
EDIT_CHARS = "0123456789 ,=/()-+_.qelbasipPt\n\t\r\u00a0\uff13\u0663"
EDITS_PER_FORMAT = 10_000


def _profile_texts():
    rng = random.Random(5)
    for params in (Params(2, 2), Params(3, 2), Params(2, 3)):
        counts = [rng.choice((0, 1, 7, 10, 2**40)) for _ in range(params.word_count)]
        yield ProfileVector(params, tuple(counts)).to_text()


def _vector_texts():
    rng = random.Random(6)
    for params in (Params(2, 2), Params(3, 1), Params(2, 3)):
        entries = [rng.randint(-40, 40) for _ in range(params.word_count - 1)]
        yield FeasibleVector(params, (1, *entries), rng.choice((1, 2, 6))).to_text()


def _perm_texts():
    rng = random.Random(7)
    for params in (Params(2, 2), Params(3, 2), Params(2, 3)):
        order = list(range(params.word_count))
        rng.shuffle(order)
        yield RankPermutation(params, tuple(order)).to_text()


def _row_texts():
    yield "0 17 255 3 40 5 6 100 9"
    yield "1 2 3 4 5 6 7 8 9"


FORMATS = {
    "profile": (ProfileVector.from_text, ProfileVector.to_text, list(_profile_texts())),
    "vector": (FeasibleVector.from_text, FeasibleVector.to_text, list(_vector_texts())),
    "rank order": (RankPermutation.from_text, RankPermutation.to_text, list(_perm_texts())),
    "info_a": (
        info_a_from_text,
        info_a_to_text,
        [info_a_to_text(random_info_a(q, random.Random(q))) for q in (3, 4, 5)],
    ),
    "info_b": (
        info_b_from_text,
        info_b_to_text,
        [info_b_to_text(random_info_b(q, ell, random.Random(q + ell)))
         for q, ell in ((3, 2), (3, 3), (4, 3))],
    ),
    "repository row": (
        lambda text: _repository_row(text, 1),
        lambda row: _ROW_TEXT.format(*row),
        list(_row_texts()),
    ),
}


def _one_edit(text: str, rng: random.Random) -> str:
    """``text`` with one character inserted, deleted or replaced."""
    op = rng.randrange(3)
    i = rng.randrange(len(text) + (op == 0))
    if op == 0:
        return text[:i] + rng.choice(EDIT_CHARS) + text[i:]
    if op == 1:
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice(EDIT_CHARS) + text[i + 1 :]


def fuzz(read, write, texts, edits, seed):
    """Run ``edits`` one-character edits of the ``texts`` through ``read``.
    Returns the edited texts it accepted that ``write`` does not give back
    (up to a missing final newline), and those it refused with an error
    other than ValueError, as ``(text, exception)`` pairs."""
    rng = random.Random(seed)
    drifted, crashed = [], []
    for k in range(edits):
        text = _one_edit(texts[k % len(texts)], rng)
        try:
            value = read(text)
        except ValueError:
            continue
        except Exception as err:  # noqa: BLE001 - what the test counts
            crashed.append((text, err))
            continue
        written = write(value)
        if text != written and text + "\n" != written:
            drifted.append(text)
    return drifted, crashed


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_accepted_edit_reads_back_as_written(fmt):
    read, write, texts = FORMATS[fmt]
    for text in texts:  # the unedited texts are read back as they are
        assert write(read(text)) in (text, text + "\n")
    drifted, crashed = fuzz(read, write, texts, EDITS_PER_FORMAT, seed=23)
    assert crashed == []
    assert drifted == []


# -- pinned spellings ----------------------------------------------------------

PROFILE = "q=2 ell=2\n00 8\n01 5\n10 0\n11 2\n"
VECTOR = "q=2 ell=2\n00 8\n01 5/2\n10 0\n11 -3\n"
PERM = "01,00,10,11"
INFO_A = "q=4\nbase=612\npi=2,4,1,3 t=0110100100000\n"
INFO_B = "q=3 ell=3\nbase=8\nP(11)=2,0,1\nP(12)=0,1,2\nP(21)=1,0,2\nP(22)=0,2,1\n"
INFO_B2 = "q=3 ell=2\nbase=8\n"

READERS = {
    PROFILE: ProfileVector.from_text,
    VECTOR: FeasibleVector.from_text,
    PERM: RankPermutation.from_text,
    INFO_A: info_a_from_text,
    INFO_B: info_b_from_text,
    INFO_B2: info_b_from_text,
}

# (the canonical text, a piece of it, that piece respelled)
RESPELLINGS = {
    "08": [(PROFILE, "00 8", "00 08"), (VECTOR, "00 8", "00 08"), (INFO_B, "base=8", "base=08")],
    "ell=02": [
        (PROFILE, "ell=2", "ell=02"),
        (VECTOR, "ell=2", "ell=02"),
        (INFO_B2, "ell=2", "ell=02"),
    ],
    "base=0612": [(INFO_A, "base=612", "base=0612")],
    "2,0,01": [(INFO_B, "=2,0,1", "=2,0,01"), (INFO_A, "pi=2,4,1,3", "pi=2,4,01,3")],
    "-0": [(PROFILE, "10 0", "10 -0"), (VECTOR, "10 0", "10 -0"), (INFO_B, "=2,0,1", "=2,-0,1")],
    "tab": [
        (PROFILE, "01 5", "01\t5"),
        (VECTOR, "01 5/2", "01\t5/2"),
        (PERM, "00,", "00,\t"),
        (INFO_A, " t=", "\tt="),
        (INFO_B, "q=3 ell", "q=3\tell"),
    ],
    "nbsp": [
        (PROFILE, "01 5", "01\u00a05"),
        (VECTOR, "01 5/2", "01\u00a05/2"),
        (PERM, "00,", "00,\u00a0"),
        (INFO_A, " t=", "\u00a0t="),
        (INFO_B, "q=3 ell", "q=3\u00a0ell"),
    ],
    "trailing blank": [
        (PROFILE, "01 5", "01 5 "),
        (VECTOR, "01 5/2", "01 5/2 "),
        (PERM, "11", "11 "),
        (INFO_A, "base=612", "base=612 "),
        (INFO_B, "base=8", "base=8 "),
    ],
    "CRLF": [
        (text, text, text.replace("\n", "\r\n")) for text in (PROFILE, VECTOR, INFO_A, INFO_B)
    ]
    + [(PERM, "11", "11\r\n")],
    "blank line": [(text, "\n", "\n\n") for text in (PROFILE, VECTOR, INFO_A, INFO_B)]
    + [(PERM, "11", "11\n\n")],
    "out of index order": [
        (PROFILE, "00 8\n01 5", "01 5\n00 8"),
        (VECTOR, "00 8\n01 5/2", "01 5/2\n00 8"),
        (INFO_B, "P(12)=0,1,2\nP(21)=1,0,2", "P(21)=1,0,2\nP(12)=0,1,2"),
    ],
}


@pytest.mark.parametrize(
    "text,old,new",
    [
        pytest.param(text, old, new, id=f"{spelling}-{READERS[text].__qualname__}")
        for spelling, cases in RESPELLINGS.items()
        for text, old, new in cases
    ],
)
def test_readers_refuse_a_second_spelling(text, old, new):
    read = READERS[text]
    read(text)  # the text as its writer writes it is read
    assert old in text
    with pytest.raises(ValueError):
        read(text.replace(old, new, 1))


# (the canonical text, a field of it, that field made no number, the error)
NOT_A_NUMBER = [
    (PROFILE, "ell=2", "ell=x", "profile line 1: 'x' is not a number"),
    (PROFILE, "01 5", "01 x", "profile line 3: 'x' is not a number"),
    (PROFILE, "\n01 5", "\n\n01 5", "profile line 3: '' is not a number"),
    (VECTOR, "q=2", "q=", "vector line 1: '' is not a number"),
    (VECTOR, "01 5/2", "01 5/y", "vector line 3: 'y' is not a number"),
    (VECTOR, "11 -3", "11 -x", "vector line 5: '-x' is not a number"),
    (INFO_A, "base=612", "base=6x2", "message line 2: '6x2' is not a number"),
    (INFO_A, "pi=2,4,1,3", "pi=2,x,1,3", "message line 3: 'x' is not a number"),
    (INFO_B, "ell=3", "ell=three", "message line 1: 'three' is not a number"),
    (INFO_B, "P(21)=1,0,2", "P(21)=1,,2", "message line 5: '' is not a number"),
]


@pytest.mark.parametrize(
    "text,old,new,error",
    [
        pytest.param(text, old, new, error, id=f"{READERS[text].__qualname__}-{k}")
        for k, (text, old, new, error) in enumerate(NOT_A_NUMBER)
    ],
)
def test_a_field_that_is_no_number_is_named_by_its_line(text, old, new, error):
    read = READERS[text]
    assert old in text
    with pytest.raises(ValueError) as raised:
        read(text.replace(old, new, 1))
    assert str(raised.value) == error

import math
import random

import numpy as np
import pytest

from singflow import codec as cdc
from singflow import (ADJUSTED, ALPHABET, PAPER, AmbiguousContextError,
                      BitSequence, CodeLetter, CodecDomainError, DecodeError,
                      FirstReturnStructureError, GapPair, Geometric, Harmonic,
                      LogHarmonic, Power, RegionDomainError, RoofFunction,
                      SymbolSequence, Truncated, accel_step,
                      ceil_sqrt, decode_position, decode_sequence, decode_word,
                      encode_block, encode_sequence, fiber_sfts, gap_pair,
                      letter, parse_letter, parse_word, region_of, render_word,
                      return_profile, roof_prime, roof_prime_continuity_probe,
                      sft_entropy_wordcount, shift, step_length)
from singflow.cli import main

INF = math.inf
LOG2 = math.log(2.0)
HARM = RoofFunction.from_profile(Harmonic(1.0))


# ---------------------------------------------------------------------------
# regions and step lengths

def test_region_examples():
    assert region_of(GapPair(0, 5)) == 1
    assert region_of(GapPair(4, 7)) == 3      # 7 > 4 >= 7/3
    assert region_of(GapPair(8, 3)) == 4
    assert region_of(GapPair(2, 9)) == 2
    with pytest.raises(RegionDomainError):
        region_of(GapPair(INF, INF))


def test_region_infinite_rays():
    assert region_of(GapPair(0, INF)) == 1
    assert region_of(GapPair(17, INF)) == 2
    assert region_of(GapPair(INF, 17)) == 4


def test_region_boundary_conventions():
    boundary = GapPair(2, 6)  # k- = k+/3
    assert region_of(boundary, ADJUSTED) == 3
    assert region_of(boundary, PAPER) == 2


def test_region_totality_exhaustive():
    # the four regions partition everything except the doubly infinite pair;
    # vectorized predicate cross-checked against region_of on a sample
    n = 2000
    km = np.arange(0, n + 1).reshape(-1, 1)
    kp = np.arange(1, n + 1).reshape(1, -1)
    r1 = km == 0
    r4 = (km > 0) & (kp <= km)
    r2 = (km > 0) & (kp > km) & (3 * km < kp)
    r3 = (km > 0) & (kp > km) & (3 * km >= kp)
    total = r1.astype(int) + r4.astype(int) + r2.astype(int) + r3.astype(int)
    assert np.all(total == 1)
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = int(rng.integers(0, n + 1))
        b = int(rng.integers(1, n + 1))
        want = 1 if r1[a, 0] else 2 if r2[a, b - 1] else 3 if r3[a, b - 1] else 4
        assert region_of(GapPair(a, b)) == want


def test_step_length_examples():
    assert step_length(GapPair(0, 123)) == 1
    assert step_length(GapPair(0, INF)) == 1
    assert step_length(GapPair(2, 9)) == 2
    assert step_length(GapPair(4, 7)) == 4       # 7 - floor(121/32)
    assert step_length(GapPair(8, 3)) == 2       # ceil(3/2)
    assert step_length(GapPair(17, INF)) == 17
    assert step_length(GapPair(INF, 9)) == 5


def test_step_length_positive_sampled():
    rng = np.random.default_rng(19)
    for _ in range(500):
        km = int(rng.integers(0, 5000))
        kp = int(rng.integers(1, 5000))
        assert step_length(GapPair(km, kp)) >= 1


def test_accel_step_examples():
    star = BitSequence.zero()
    assert accel_step(star) == star
    x = BitSequence.from_ones([-2, 9])
    assert accel_step(x) == shift(x, 2)
    y = BitSequence.from_ones([0, 9])
    assert accel_step(y) == shift(y, 1)


def test_accel_step_agrees_with_block_simulation():
    # dual route: object-level steps against the integer profile offsets
    rng = np.random.default_rng(43)
    for _ in range(25):
        gap = int(rng.integers(3, 3000))
        prof = return_profile(gap)
        x = BitSequence.from_ones([0, gap])
        for q in range(prof.p):
            assert gap_pair(x).k_minus == prof.offsets[q]
            x = accel_step(x)
        assert gap_pair(x).k_minus == 0 and x.at(0) == 1


# ---------------------------------------------------------------------------
# first-return profiles

def test_return_profile_gap_11():
    prof = return_profile(11)
    assert (prof.p, prof.r) == (6, 3)
    assert prof.epsilon_bits == {4: 1}
    assert prof.offsets == (0, 1, 2, 4, 8, 10, 11)
    assert prof.regions == (1, 2, 2, 3, 4, 4)


def test_return_profile_gap_5():
    prof = return_profile(5)
    assert (prof.p, prof.r) == (4, 2)
    assert prof.epsilon_bits == {}


def test_return_profile_gap_4_both_conventions():
    adj = return_profile(4, ADJUSTED)
    assert (adj.p, adj.r) == (4, 1)
    assert adj.epsilon_bits == {2: 0}
    lit = return_profile(4, PAPER)
    assert lit.r is None
    assert lit.regions == (1, 2, 4, 4)
    assert lit.word is None


def test_return_profile_small_gaps():
    assert return_profile(1).word == (letter(1, "x"),)
    assert return_profile(2).word == (letter(1, "x"), letter(4, "x"))


def test_a_gap_that_is_not_a_positive_integer_is_a_value_error(capsys):
    for gap in (2.5, 11.0, "11", None, 0, -3, np.float64(11.0)):
        for fn in (return_profile, encode_block):
            with pytest.raises(ValueError, match="^gap must be a positive integer$"):
                fn(gap)
    assert return_profile(np.int64(11)) == return_profile(11)
    assert encode_block(np.int32(11)) == encode_block(11)
    assert main(["codec", "profile", "--gap", "0"]) == 2
    assert capsys.readouterr() == ("", "error: gap must be a positive integer\n")


def test_first_return_structure_sweep():
    for gap in range(3, 2001):
        prof = return_profile(gap)
        p, r = prof.p, prof.r
        assert r is not None and 0 < r < p
        assert prof.regions == (1,) + (2,) * (r - 1) + (3,) + (4,) * (p - 1 - r)
        for q in range(1, r + 1):
            assert prof.offsets[q] == 2 ** (q - 1)
        for q in range(r + 1, p):
            kp = gap - prof.offsets[q]
            want = 2 ** (p - 1 - q) + sum(prof.epsilon_bits[q + i] << i
                                          for i in range(p - q - 1))
            assert kp == want
        assert 2 * r >= p - 3
        assert p - 2 - r <= math.ceil(p / 2) - 1


# ---------------------------------------------------------------------------
# block words

def test_encode_examples():
    assert render_word(encode_block(11)) == "1^1 2^x 2^x 3^x 4^x 4^1"
    assert render_word(encode_block(4)) == "1^0 3^x 4^x 4^0"
    assert encode_block(1) == (letter(1, "x"),)
    assert encode_block(2) == (letter(1, "x"), letter(4, "x"))


def test_encode_gap_4_paper_raises():
    with pytest.raises(FirstReturnStructureError):
        encode_block(4, PAPER)


def test_alphabet_has_24_letters():
    assert len(ALPHABET) == 24
    assert len(set(ALPHABET)) == 24


def test_decode_examples():
    assert decode_word(parse_word("1^1 2^x 2^x 3^x 4^x 4^1")) == 11
    assert decode_word(parse_word("1^x")) == 1
    assert decode_word(parse_word("1^x 4^x")) == 2
    assert decode_word(parse_word("1^0 3^x 4^x 4^0")) == 4


def test_decode_structural_errors():
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^0 2^x 4^x 2^x"))
    assert err.value.constraint == "y-pattern"
    with pytest.raises(DecodeError) as err:
        decode_word(())
    assert err.value.constraint == "empty-word"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("2^x"))
    assert err.value.constraint == "fixed-word-shape"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^x 3^x 4^x 4^0"))
    assert err.value.constraint == "z1-range"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^0 3^x 4^x 4^x"))
    assert err.value.constraint == "epsilon-bit"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^0 3^1 4^x 4^0"))
    assert err.value.constraint == "z-extraneous"


@pytest.mark.parametrize("text", ["1^\u00b2", "\u00b2^0"])
def test_parse_letter_rejects_a_superscript_digit_as_a_format_error(text):
    # str.isdigit accepts the superscript two, which int() rejects
    with pytest.raises(DecodeError) as err:
        parse_letter(text)
    assert err.value.constraint == "letter-format"


@pytest.mark.parametrize("text, constraint", [
    ("\u0663^0", "letter-format"),   # Arabic-Indic three
    ("1^\u0663", "letter-format"),
    ("\uff11^x", "letter-format"),   # fullwidth one
    ("5^0", "letter-alphabet"),
])
def test_parse_word_reads_only_ascii_digits(text, constraint):
    with pytest.raises(DecodeError) as err:
        parse_word(text)
    assert err.value.constraint == constraint


def test_parse_word_raises_only_decode_errors():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # y^z shapes over ASCII digits, x and digits that are not decimal (superscript
    # two, circled one) or not ASCII (Arabic-Indic three)
    part = st.sampled_from("0123456x\u00b2\u2460\u0663")
    token = st.one_of(st.sampled_from([str(l) for l in ALPHABET]), st.text(max_size=4),
                      st.tuples(part, part).map("^".join))

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(st.one_of(st.text(max_size=20), st.lists(token, max_size=6).map(" ".join)))
    def check(text):
        try:
            word = parse_word(text)
        except DecodeError:
            return
        assert all(isinstance(l, CodeLetter) for l in word)

    check()


def test_decode_rejects_a_well_formed_word_outside_the_image():
    # the formula gives gap 14, whose word is 1^0 2^x 2^x 3^x 4^0 4^x 4^1
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^4 2^x 2^x 3^x 4^x 4^1"))
    assert err.value.constraint == "not-in-image"


def test_decode_accepts_only_code_words_under_a_swapped_z1():
    accepted = 0
    for gap in range(3, 2001):
        w = encode_block(gap)
        for z1 in range(5):
            if z1 == w[0].z:
                continue
            swapped = (letter(1, z1),) + w[1:]
            try:
                g = decode_word(swapped)
            except DecodeError:
                continue
            assert encode_block(g) == swapped, (gap, z1, g)
            accepted += 1
    assert accepted > 0  # some swaps land on the word of another gap


def test_roundtrip_and_injectivity_sweep():
    seen = {}
    for gap in range(1, 2001):
        w = encode_block(gap)
        assert decode_word(w) == gap
        assert w not in seen
        seen[w] = gap


def test_roundtrip_paper_boundary_anomalies():
    anomalies = []
    for gap in range(1, 2001):
        try:
            w = encode_block(gap, PAPER)
        except FirstReturnStructureError:
            anomalies.append(gap)
            continue
        assert decode_word(w) == gap
    assert anomalies == [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048][:len(anomalies)]
    assert anomalies == [g for g in range(4, 2001) if g & (g - 1) == 0]


# ---------------------------------------------------------------------------
# the row kernel, with the scalar decode_word as its oracle

INDEX = {l: i for i, l in enumerate(ALPHABET)}


def _word_of_row(row):
    """The word a kernel row stands for: its entries before the trailing -1
    padding, each an ALPHABET index or else no letter at all."""
    row = list(row)
    while row and row[-1] == -1:
        row.pop()
    return [ALPHABET[i] if 0 <= i < len(ALPHABET) else i for i in row]


def _scalar_decode(word):
    try:
        return decode_word(word), None
    except DecodeError as exc:
        return None, exc.constraint


def _assert_rows_decode_like_decode_word(words, width):
    """The kernel's gap is decode_word's where it returns and 0 where it
    raises; returns decode_word's (gap, constraint) per row."""
    rows = np.full((len(words), width), -1, dtype=np.int64)
    for row, word in zip(rows, words):
        row[:len(word)] = word
    want = [_scalar_decode(_word_of_row(row)) for row in rows.tolist()]
    assert cdc._decode_rows(rows).tolist() == [g or 0 for g, _ in want]
    return want


def _edited(word, edits):
    """A code word's letter indices with some entries overwritten."""
    row = [INDEX[l] for l in word or ()]
    for i, v in edits:
        if i < len(row):
            row[i] = v
    return row


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_decode_rows_decodes_every_code_word(boundary):
    profiles = [p for g in range(1, 20001) if (p := return_profile(g, boundary)).word]
    words = [_edited(p.word, ()) for p in profiles]
    assert _assert_rows_decode_like_decode_word(words, 40) == [(p.gap, None) for p in profiles]


def _corrupted(word, rng):
    """One corruption of a word of letter indices: one or two letters
    replaced, two letters swapped, a letter deleted, padding inside the
    row, or an index outside the alphabet."""
    word = list(word)
    kind = rng.randrange(6)
    i = rng.randrange(len(word))
    if kind == 0:
        word[i] = rng.randrange(24)
    elif kind == 1:
        word[i], word[rng.randrange(len(word))] = rng.randrange(24), rng.randrange(24)
    elif kind == 2:
        j = rng.randrange(len(word))
        word[i], word[j] = word[j], word[i]
    elif kind == 3:
        del word[i]
    elif kind == 4:
        word[i] = -1
    else:
        word[i] = rng.choice([-9, -2, 24, 25, 1000])
    return word


def test_decode_rows_rejects_the_corrupted_words_decode_word_rejects():
    rng = random.Random(20261018)
    base = [_edited(p.word, ()) for b in (ADJUSTED, PAPER) for g in range(1, 5001)
            if (p := return_profile(g, b)).word]
    words = [_corrupted(rng.choice(base), rng) for _ in range(30000)]
    got = _assert_rows_decode_like_decode_word(words, 30)
    # every constraint of decode_word but return-time-shape, and some words decode
    assert {c for _, c in got} == {
        None, "letter-alphabet", "empty-word", "fixed-word-shape", "y-pattern",
        "z1-range", "epsilon-bit", "z-extraneous", "not-in-image"}


def test_decode_rows_rejects_rows_beyond_the_walk_width():
    cdc._decode_rows(np.full((2, 59), -1))
    cdc._decode_rows(np.zeros((0, 0), dtype=np.int64))
    for rows in (np.full((2, 60), -1), np.full(5, -1), [[[5]]]):
        with pytest.raises(ValueError):
            cdc._decode_rows(rows)


def test_decode_rows_matches_decode_word_on_arbitrary_rows():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    index = st.integers(-2, 25)
    # a y pattern 1 2^(r-1) 3 4^h with z mostly drawn from (0, 1, x)
    z = st.sampled_from([0, 1, 5, 5, 2, 4])
    shaped = st.tuples(st.integers(1, 29), st.integers(0, 30)).map(
        lambda t: [1] + [2] * (t[0] - 1) + [3] + [4] * t[1]).flatmap(
        lambda ys: st.lists(z, min_size=len(ys), max_size=len(ys)).map(
            lambda zs: [(y - 1) * 6 + zi for y, zi in zip(ys, zs)]))
    coded = st.tuples(st.integers(1, (1 << 30) - 1), st.sampled_from([ADJUSTED, PAPER]),
                      st.lists(st.tuples(st.integers(0, 58), index), max_size=2)).map(
        lambda t: _edited(return_profile(t[0], t[1]).word, t[2]))
    word = st.one_of(st.lists(index, max_size=59), shaped, coded).filter(
        lambda w: len(w) <= 59)

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(st.lists(word, min_size=1, max_size=6), st.integers(0, 59))
    def check(words, extra):
        width = max(map(len, words))
        _assert_rows_decode_like_decode_word(words, min(59, width + extra))

    check()


# ---------------------------------------------------------------------------
# position recovery

def test_decode_position_examples():
    w11 = encode_block(11)
    got = decode_position(w11, 2)  # letter index q = 3, y = 2
    assert (got.k_minus, got.k_plus) == (2, 9)
    got = decode_position(w11, 0)
    assert (got.k_minus, got.k_plus) == (0, 11)


def test_decode_position_future_segment():
    ctx = [letter(1, "x")] + [letter(2, "x")] * 10
    for depth in (2, 3, 6):
        got = decode_position(ctx, depth - 1, no_ones_right=True)
        assert (got.k_minus, got.k_plus) == (2 ** (depth - 2), INF)


def test_decode_position_past_segment():
    prof = return_profile(11)
    w = list(encode_block(11))
    ctx = w[4:] + [letter(1, "x")]
    got = decode_position(ctx, 0, no_ones_left=True)
    assert (got.k_minus, got.k_plus) == (INF, 11 - prof.offsets[4])


def test_decode_position_errors():
    with pytest.raises(AmbiguousContextError):
        decode_position([letter(2, "x")] * 4, 2)
    with pytest.raises(AmbiguousContextError):
        decode_position(encode_block(11), 99)
    both = decode_position([letter(2, "x")] * 4, 2,
                           no_ones_left=True, no_ones_right=True)
    assert both.is_singular()
    # a halving phase of four steps needs parity bits before the context
    with pytest.raises(AmbiguousContextError):
        decode_position([letter(4, "x")] * 4 + [letter(1, "x")], 0, no_ones_left=True)
    with pytest.raises(DecodeError) as err:
        decode_position([letter(4, "x")] * 3 + [letter(1, "x")], 0, no_ones_left=True)
    assert err.value.constraint == "epsilon-bit"


@pytest.mark.parametrize("context", [["a"], [letter(1, "x"), "a"]])
def test_decode_position_rejects_a_context_holding_no_letter(context):
    with pytest.raises(DecodeError) as err:
        decode_position(context, 0)
    assert err.value.constraint == "letter-alphabet"


def test_decode_position_side_errors():
    w11 = encode_block(11)
    with pytest.raises(AmbiguousContextError, match="context ends inside a block"):
        decode_position(w11[:4], 1)
    with pytest.raises(AmbiguousContextError, match="no previous block leader"):
        decode_position([letter(4, "x")] * 2 + [letter(1, "x")], 0)
    with pytest.raises(DecodeError) as err:
        decode_position([letter(1, "x"), letter(2, "x"), letter(4, "x")], 1, no_ones_right=True)
    assert err.value.constraint == "future-segment-letters"
    with pytest.raises(DecodeError) as err:
        decode_position([letter(4, "x"), letter(2, "x"), letter(1, "x")], 0, no_ones_left=True)
    assert err.value.constraint == "past-segment-letters"
    # a context ending exactly at a block boundary needs no declared future
    assert decode_position(w11, 5) == decode_position(w11 + (letter(1, "x"),), 5)


def test_return_profile_offsets_do_not_depend_on_the_boundary():
    # at k- = k+/3 the contracting step k+ - (4 k-)^2 // (8 k-) equals the expanding step k-
    for gap in range(1, 20001):
        assert return_profile(gap, PAPER).offsets == return_profile(gap, ADJUSTED).offsets, gap


def test_decode_position_matches_simulation_exhaustively():
    for gap in range(1, 10 ** 4 + 1):
        prof = return_profile(gap)
        offsets = prof.offsets
        for q in range(prof.p):
            got = decode_position(prof.word, q)
            assert (got.k_minus, got.k_plus) == (offsets[q], gap - offsets[q])


# the one-rule decode_position against the four-branch function it replaced,
# kept verbatim below as the oracle

def _oracle_decode_position(word_context, offset: int, *, no_ones_left: bool = False,
                               no_ones_right: bool = False,
                               boundary: str = ADJUSTED) -> GapPair:
    """Gap coordinates of the base point whose code image carries the letter
    at ``offset`` of ``word_context`` at its origin.

    Inside a complete block the letter index determines one coordinate
    directly (k- = 0 at the leading letter, k- = 2^(q-2) in the expanding
    phase, the parity expansion of k+ in the halving phase) and the decoded
    gap gives the other.  The flags declare that the context continues
    without y = 1 letters beyond the given side.
    """
    letters = tuple(word_context)
    if not 0 <= offset < len(letters):
        raise AmbiguousContextError("offset outside the provided context")
    i0 = next((c for c in range(offset, -1, -1) if letters[c].y == 1), None)
    i1 = next((c for c in range(offset + 1, len(letters)) if letters[c].y == 1), None)

    if i0 is not None and i1 is None and not no_ones_right:
        # the context may end exactly at a block boundary
        try:
            decode_word(letters[i0:])
        except DecodeError:
            raise AmbiguousContextError(
                "context ends inside a block and the future side is undeclared"
            ) from None
        i1 = len(letters)

    if i0 is not None and i1 is not None:
        block = letters[i0:i1]
        gap = decode_word(block)
        p = len(block)
        q = offset - i0 + 1
        y = letters[offset].y
        if y == 1:
            return GapPair(0, gap)
        if y in (2, 3):
            km = 1 << (q - 2)
            return GapPair(km, gap - km)
        s = q - 1  # step index of the halving phase
        kp = cdc._halving_kplus(block, s, p - 1 - s)
        return GapPair(gap - kp, kp)

    if i0 is not None:  # future side without ones, declared: else a block was decoded above
        for c in range(i0 + 1, len(letters)):
            if letters[c].y != 2:
                raise DecodeError("future-segment-letters",
                                  "an endless expanding phase uses y = 2 letters")
        q = offset - i0 + 1
        if q == 1:
            return GapPair(0, INF)
        return GapPair(1 << (q - 2), INF)

    if i1 is not None:  # past side without ones
        if not no_ones_left:
            raise AmbiguousContextError("no previous block leader; past side undeclared")
        for c in range(0, i1):
            if letters[c].y != 4:
                raise DecodeError("past-segment-letters",
                                  "an endless halving phase uses y = 4 letters")
        return GapPair(INF, cdc._halving_kplus(letters, offset, i1 - offset - 1))

    if no_ones_left and no_ones_right:
        return GapPair(INF, INF)
    raise AmbiguousContextError("no block leader in the context and sides undeclared")


_PARITY_Z = (0, 1, "x")
_Z_ALL = (0, 1, 2, 3, 4, "x")


def position_contexts(rng, n):
    """(context, offset, no_ones_left, no_ones_right) for decode_position:
    fragments of one to three code words of gaps below 3000, some with one
    letter replaced; runs of y in {1, 2} or {1, 3, 4} letters, mostly with
    z in {0, 1, x}, a few of them over 1000 letters long; random letters.
    Offsets run from -1 to the context's length."""
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            letters = [l for _ in range(rng.randint(1, 3))
                       for l in encode_block(rng.randrange(1, 3000))]
            a = rng.randrange(len(letters))
            ctx = letters[a:rng.randint(a + 1, len(letters))]
            if rng.random() < 0.3:
                ctx[rng.randrange(len(ctx))] = rng.choice(ALPHABET)
        elif kind == 3:
            ctx = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 12))]
        else:
            ys = (1, 2, 2, 2, 2) if kind == 1 else (1, 3, 4, 4, 4, 4, 4)
            size = rng.randint(1100, 1200) if rng.random() < 0.002 else rng.randint(1, 24)
            ctx = [letter(rng.choice(ys), rng.choice(_PARITY_Z if rng.random() < 0.9 else _Z_ALL))
                   for _ in range(size)]
        yield ctx, rng.randint(-1, len(ctx)), rng.random() < 0.5, rng.random() < 0.5


def _position_outcome(fn, ctx, offset, left, right):
    """The GapPair, or the type and message of the codec error raised."""
    try:
        return fn(ctx, offset, no_ones_left=left, no_ones_right=right)
    except (AmbiguousContextError, DecodeError) as exc:
        return type(exc), str(exc)


def _outcome_class(outcome):
    if isinstance(outcome, GapPair):
        return "pair", outcome.k_minus == INF, outcome.k_plus == INF
    kind, message = outcome
    return kind.__name__, message.split(":")[0] if kind is DecodeError else message


def _same_position_outcome(got, want):
    # equal pairs with equal coordinate types: an infinite coordinate stays math.inf
    return got == want and (not isinstance(want, GapPair) or (
        type(got.k_minus), type(got.k_plus)) == (type(want.k_minus), type(want.k_plus)))


def test_decode_position_matches_oracle_on_seeded_contexts():
    reached = set()
    for case in position_contexts(random.Random(1301), 100_000):
        want = _position_outcome(_oracle_decode_position, *case)
        got = _position_outcome(decode_position, *case)
        assert _same_position_outcome(got, want), (case, got, want)
        reached.add(_outcome_class(want))
    constraints = {"fixed-word-shape", "y-pattern", "return-time-shape", "z1-range",
                   "epsilon-bit", "z-extraneous", "not-in-image",
                   "future-segment-letters", "past-segment-letters"}
    ambiguous = {"offset outside the provided context",
                 "context ends inside a block and the future side is undeclared",
                 "no previous block leader; past side undeclared",
                 "no block leader in the context and sides undeclared",
                 "parity bits of the halving phase fall before the context"}
    pairs = {("pair", left, right) for left in (False, True) for right in (False, True)}
    assert reached == ({("DecodeError", c) for c in constraints}
                       | {("AmbiguousContextError", m) for m in ambiguous} | pairs)


def test_decode_position_matches_oracle_on_arbitrary_contexts():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=30), st.data(),
               st.booleans(), st.booleans())
    def check(ctx, data, left, right):
        offset = data.draw(st.integers(-1, len(ctx)))
        case = ctx, offset, left, right
        assert _same_position_outcome(_position_outcome(decode_position, *case),
                                      _position_outcome(_oracle_decode_position, *case)), case

    check()


def test_decode_position_on_endless_sides_beyond_float_range():
    # k- and k+ past 2^1024 stay exact integers beside an infinite coordinate
    future = [letter(1, "x")] + [letter(2, "x")] * 1100
    got = decode_position(future, 1100, no_ones_right=True)
    assert got == GapPair(1 << 1099, INF) == _oracle_decode_position(future, 1100,
                                                                     no_ones_right=True)
    past = [letter(4, 1)] * 2101 + [letter(1, "x")]
    got = decode_position(past, 1050, no_ones_left=True)
    assert got == GapPair(INF, (1 << 1051) - 1) == _oracle_decode_position(
        past, 1050, no_ones_left=True)


@pytest.mark.parametrize("call", [
    lambda: decode_sequence(encode_sequence(BitSequence.periodic((1,) + (0,) * 10)), "bogus"),
    lambda: decode_position(encode_block(11), 0, boundary="bogus"),
    # the boundary's ValueError, not a CodecDomainError about the origin
    lambda: encode_sequence(BitSequence.periodic((1, 0, 0)), "bogus"),
], ids=["decode_sequence", "decode_position", "encode_sequence"])
def test_sequence_codec_checks_the_boundary(call):
    with pytest.raises(ValueError, match="boundary must be 'adjusted' or 'paper'"):
        call()


# typed errors: contexts and sequences mixing code words, loose letters and,
# now and then, an object that is no letter

_NOT_LETTERS = ("a", "1^x", 0, 1, None, 2.5, (1, "x"))


def _mixed_letters(st, min_size=0):
    piece = st.one_of(st.integers(1, 300).map(lambda g: list(encode_block(g))),
                      st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3),
                      st.sampled_from(_NOT_LETTERS).map(lambda o: [o]))
    return st.lists(piece, min_size=min_size, max_size=5).map(
        lambda ps: [l for p in ps for l in p])


def test_decode_position_raises_only_typed_errors():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(_mixed_letters(st), st.data(), st.booleans(), st.booleans())
    def check(ctx, data, left, right):
        offset = data.draw(st.one_of(st.integers(-2, len(ctx) + 1), st.integers()))
        try:
            got = decode_position(ctx, offset, no_ones_left=left, no_ones_right=right)
        except (DecodeError, AmbiguousContextError):
            return
        assert isinstance(got, GapPair) and all(isinstance(l, CodeLetter) for l in ctx)

    check()


def test_decode_sequence_raises_only_typed_errors():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(_mixed_letters(st), st.integers(-40, 40), _mixed_letters(st, 1),
               _mixed_letters(st, 1))
    def check(window, start, left, right):
        u = SymbolSequence(window, start, left, right)
        try:
            got = decode_sequence(u)
        except (DecodeError, AmbiguousContextError):
            return
        assert isinstance(got, BitSequence)
        assert all(isinstance(l, CodeLetter) for l in u.window + u.left + u.right)

    check()


# ---------------------------------------------------------------------------
# the block code on sequences

def test_encode_sequence_periodic_block():
    x = BitSequence.periodic((1,) + (0,) * 10)
    u = encode_sequence(x)
    word = encode_block(11)
    assert tuple(u.at(i) for i in range(6)) == word
    assert tuple(u.at(i) for i in range(6, 12)) == word
    assert len(u.left) == 6 and len(u.right) == 6
    assert decode_sequence(u) == x


def test_encode_sequence_zero_maps_to_constant_word():
    u = encode_sequence(BitSequence.zero())
    assert u.window == () and u.left == (letter(1, "x"),) == u.right


def test_encode_sequence_collision_with_all_ones():
    # the all-ones sequence has every gap 1 and collides with the image of
    # the zero sequence; decoding resolves the constant word to zero
    ones = BitSequence.periodic((1,))
    u = encode_sequence(ones)
    assert u == encode_sequence(BitSequence.zero())
    assert decode_sequence(u) == BitSequence.zero()


def test_encode_sequence_domain_errors():
    with pytest.raises(CodecDomainError):
        encode_sequence(BitSequence.from_ones([0, 5]))  # zero tails
    # origin inside a block but off the accelerated orbit
    x = shift(BitSequence.periodic((1,) + (0,) * 10), 3)
    with pytest.raises(CodecDomainError):
        encode_sequence(x)


def test_encode_sequence_equivariance_exhaustive():
    for gap in range(1, 101):
        x = BitSequence.periodic((1,) + (0,) * (gap - 1))
        u = encode_sequence(x)
        y = x
        for _ in range(min(return_profile(gap).p, 8)):
            y = accel_step(y)
            u = shift(u, 1)
            assert encode_sequence(y) == u


def test_encode_sequence_mixed_gaps():
    # two-block cycle 1 0 0 1 0: gaps 3 and 2
    x = BitSequence.periodic((1, 0, 0, 1, 0))
    u = encode_sequence(x)
    expected_cycle = encode_block(3) + encode_block(2)
    assert tuple(u.at(i) for i in range(len(expected_cycle))) == expected_cycle
    assert decode_sequence(u) == x
    assert encode_sequence(accel_step(x)) == shift(u, 1)


def test_decode_sequence_no_ones_is_zero():
    u = encode_sequence(BitSequence.zero())
    assert decode_sequence(u) == BitSequence.zero()
    fiber_word = (letter(2, 0), letter(2, "x"))
    v = SymbolSequence((), 0, fiber_word, fiber_word)
    assert decode_sequence(v) == BitSequence.zero()


def test_decode_sequence_future_zero_tail():
    # bits: ...(1 0 0)* then 1 at 0 and zeros forever
    x = BitSequence((1,), 0, (1, 0, 0), (0,))
    cyc = encode_block(3)
    tail_letters = (letter(2, "x"),)
    window = cyc  # the block ending at the final 1 has gap 3
    u = SymbolSequence(window + (letter(1, "x"),), -len(window), cyc, tail_letters)
    got = decode_sequence(u)
    assert got == x


def test_decode_sequence_rejects_bad_segments():
    bad = SymbolSequence((letter(1, "x"),), 0, (letter(1, "x"),), (letter(4, "x"),))
    with pytest.raises(DecodeError):
        decode_sequence(bad)


def test_roundtrip_random_periodic_patterns():
    rng = np.random.default_rng(47)
    for _ in range(30):
        gaps = [int(rng.integers(1, 40)) for _ in range(int(rng.integers(1, 5)))]
        word = []
        for g in gaps:
            word += [1] + [0] * (g - 1)
        x = BitSequence.periodic(tuple(word))
        u = encode_sequence(x)
        assert decode_sequence(u) == x
        # a few accelerated steps stay consistent
        y, v = x, u
        for _ in range(5):
            y = accel_step(y)
            v = shift(v, 1)
            assert decode_sequence(v) == y


def test_decode_sequence_endless_halving_past():
    # bits: 0* then a 1 at 5 and (1 0 0)* from there.  The origin has
    # k+ = 5 = 2^2 + 1*1 + 0*2: the parity bits sit at letters 0 and 2, two
    # halving steps before the leader at letter 3
    x = BitSequence((1, 0, 0), 5, (0,), (1, 0, 0))
    cyc = encode_block(3)
    past = (letter(4, 1), letter(4, "x"), letter(4, 0))
    u = SymbolSequence(past, 0, (letter(4, "x"), letter(4, 0)), cyc)
    assert decode_sequence(u) == x
    # the halving steps 3 and 1 move the 1 to 2 and then to 1
    assert decode_sequence(shift(u, 1)) == BitSequence((1, 0, 0), 2, (0,), (1, 0, 0))
    assert decode_sequence(shift(u, 2)) == BitSequence((1, 0, 0), 1, (0,), (1, 0, 0))
    bad = SymbolSequence(past, 0, (letter(2, "x"), letter(4, 0)), cyc)
    with pytest.raises(DecodeError):
        decode_sequence(bad)


# ---------------------------------------------------------------------------
# the sequence codec against the block-by-block path it replaced: the oracle
# scans a materialised segment for block leaders, anchors from whichever
# side it finds, decodes the tail cycles separately and places bits one
# leader at a time

ONE_X = letter(1, "x")


def _oracle_encode_sequence(x, boundary=ADJUSTED):
    if x.is_zero():
        return SymbolSequence((), 0, (ONE_X,), (ONE_X,))
    if 1 not in x.left or 1 not in x.right:
        raise CodecDomainError(
            "block coding needs 1s in both tails (recurrent domain)")
    per_l, per_r = len(x.left), len(x.right)
    lo = min(x.start, 0) - 3 * per_l - 1
    hi = max(x.end, 0) + 3 * per_r + 1
    ones, b = [], lo - 1
    while (b := x.ones_around(b)[1]) <= hi:
        ones.append(b)

    pos0 = max(p for p in ones if p <= 0)
    pos1 = min(p for p in ones if p > pos0)
    prof0 = return_profile(pos1 - pos0, boundary)
    try:
        q0 = prof0.offsets[:-1].index(-pos0)
    except ValueError:
        raise CodecDomainError(
            "origin is not on the accelerated orbit of its block") from None

    q_left = max(p for p in ones if p <= min(pos0, x.start - per_l))
    p_right = min(p for p in ones if p >= max(pos1, x.end + per_r))

    def block_words(points):
        words = []
        for a, b in zip(points, points[1:]):
            words.append((a, encode_block(b - a, boundary)))
        return words

    left_cycle = block_words([p for p in ones if q_left - per_l <= p <= q_left])
    right_cycle = block_words([p for p in ones if p_right <= p <= p_right + per_r])
    middle = block_words([p for p in ones if q_left <= p <= p_right])

    letters = []
    origin_index = None
    for start_bit, w in middle:
        if start_bit == pos0:
            origin_index = len(letters) + q0
        letters.extend(w)
    if origin_index is None:
        raise AssertionError("origin block not materialized")

    wl = tuple(l for _, w in left_cycle for l in w)
    wr = tuple(l for _, w in right_cycle for l in w)
    return SymbolSequence(tuple(letters), -origin_index, wl, wr)


def _oracle_cycle_bits(u, leaders):
    bits = []
    for a, b in zip(leaders, leaders[1:]):
        bits += [1] + [0] * (decode_word(u.segment(a, b)) - 1)
    return tuple(bits)


def _oracle_decode_sequence(u, boundary=ADJUSTED):
    for l in u.window + u.left + u.right:
        if not isinstance(l, CodeLetter):
            raise DecodeError("letter-alphabet", f"not a code letter: {l!r}")

    left_has = any(l.y == 1 for l in u.left)
    right_has = any(l.y == 1 for l in u.right)
    win_has = any(l.y == 1 for l in u.window)
    if not (left_has or right_has or win_has):
        return BitSequence.zero()
    if not u.window and u.left == (ONE_X,) and u.right == (ONE_X,):
        return BitSequence.zero()

    per_l, per_r = len(u.left), len(u.right)
    lo = min(u.start, 0) - 3 * per_l - 1
    hi = max(u.end, 0) + 3 * per_r + 1
    seg = u.segment(lo, hi + 1)
    onepos = [lo + i for i, l in enumerate(seg) if l.y == 1]

    i0 = max((c for c in onepos if c <= 0), default=None)
    if i0 is not None:
        j1 = next((c for c in onepos if c > i0), None)
        if j1 is None:
            q = -i0 + 1
            anchor_letter, anchor_bit = i0, 0 if q == 1 else -(1 << (q - 2))
        else:
            gap0 = decode_word(u.segment(i0, j1))
            prof0 = return_profile(gap0, boundary)
            q = -i0
            if q >= prof0.p:
                raise DecodeError("word-length",
                                  "block word longer than its return time")
            anchor_letter, anchor_bit = i0, -prof0.offsets[q]
    else:
        i1 = min(onepos)
        ctx_lo = min(lo, i1 - 2 * (i1 - 0) - 4)
        ctx = u.segment(ctx_lo, i1 + 1)
        kpair = decode_position(ctx, 0 - ctx_lo, no_ones_left=True, boundary=boundary)
        anchor_letter, anchor_bit = i1, kpair.k_plus

    idx = onepos.index(anchor_letter)
    bit_at = {anchor_letter: anchor_bit}
    for a, b in zip(onepos[idx:], onepos[idx + 1:]):
        bit_at[b] = bit_at[a] + decode_word(u.segment(a, b))
    for b, a in zip(reversed(onepos[:idx + 1]), reversed(onepos[:idx])):
        bit_at[a] = bit_at[b] - decode_word(u.segment(a, b))

    if right_has:
        right_edge = min(c for c in onepos if c >= max(u.end, 0) + per_r)
        right_tail = _oracle_cycle_bits(u, [c for c in onepos
                                            if right_edge <= c <= right_edge + per_r])
    else:
        if any(l.y != 2 for l in seg[max(onepos) + 1 - lo:]):
            raise DecodeError("future-segment-letters",
                              "an endless expanding phase uses y = 2 letters")
        right_tail = (0,)
        right_edge = None

    if left_has:
        left_edge = max(c for c in onepos if c <= min(u.start, 0) - per_l)
        left_tail = _oracle_cycle_bits(u, [c for c in onepos
                                           if left_edge - per_l <= c <= left_edge])
    else:
        if any(l.y != 4 for l in seg[:min(onepos) - lo]):
            raise DecodeError("past-segment-letters",
                              "an endless halving phase uses y = 4 letters")
        left_tail = (0,)
        left_edge = None

    lo_bit = bit_at[left_edge] if left_edge is not None else bit_at[min(onepos)]
    hi_bit = bit_at[right_edge] if right_edge is not None else bit_at[max(onepos)] + 1
    window = [0] * (hi_bit - lo_bit)
    for c, bit in bit_at.items():
        if lo_bit <= bit < hi_bit:
            window[bit - lo_bit] = 1
    return BitSequence(tuple(window), lo_bit, left_tail, right_tail)


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the codec error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _blocks(gaps):
    bits = []
    for g in gaps:
        bits += [1] + [0] * (g - 1)
    return tuple(bits)


def recurrent_cases(rng, boundary, n):
    """Bit sequences with 1s in both tails, from random block gaps; half of
    them have their origin on the accelerated orbit of the first window
    block, the rest anywhere near the window."""
    for _ in range(n):
        left, middle, right = ([rng.randint(1, 12) for _ in range(rng.randint(low, 3))]
                               for low in (1, 0, 1))
        bits = _blocks(middle)
        if middle and rng.random() < 0.5:
            start = -rng.choice(return_profile(middle[0], boundary).offsets[:-1])
        else:
            start = rng.randint(-len(bits) - 3, 3)
        yield BitSequence(bits, start, _blocks(left), _blocks(right))


def endless_cases(rng, boundary, n):
    """Letter sequences with at least one side free of block leaders: an
    endless halving past of y = 4 letters before the first leader, and/or an
    endless expanding future of y = 2 letters after the last one, around
    block words; the origin anywhere near the window."""
    gaps = [g for g in range(1, 13) if return_profile(g, boundary).word is not None]

    def words(k):
        return tuple(l for _ in range(k) for l in encode_block(rng.choice(gaps), boundary))

    def free(y, low):
        return tuple(letter(y, rng.choice(_PARITY_Z)) for _ in range(rng.randint(low, 3)))

    for _ in range(n):
        endless_left, endless_right = rng.choice([(True, False), (False, True), (True, True)])
        window = ((free(4, 0) if endless_left else ()) + words(rng.randint(0, 3))
                  + ((letter(1, rng.choice(_Z_ALL)),) + free(2, 0) if endless_right else ()))
        left = free(4, 1) if endless_left else words(rng.randint(1, 2))
        right = free(2, 1) if endless_right else words(rng.randint(1, 2))
        yield SymbolSequence(window, rng.randint(-len(window) - 4, 4), left, right)


def corrupted(rng, u, k):
    """u with k letters of its window or tails replaced by random letters."""
    parts = [list(u.window), list(u.left), list(u.right)]
    for _ in range(k):
        part = rng.choice([p for p in parts if p])
        part[rng.randrange(len(part))] = rng.choice(ALPHABET)
    return SymbolSequence(parts[0], u.start, parts[1], parts[2])


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_encode_sequence_matches_oracle(boundary):
    rng = random.Random(801)
    for x in recurrent_cases(rng, boundary, 80):
        for s in range(-8, 9):
            y = shift(x, s)
            assert _outcome(encode_sequence, y, boundary) \
                == _outcome(_oracle_encode_sequence, y, boundary), (y, boundary)


def decode_cases(boundary):
    """Shifted and corrupted code images under ``boundary``, and endless
    letter sequences with some of them corrupted."""
    rng = random.Random(802)
    images = [u for u in (_outcome(_oracle_encode_sequence, x, boundary)
                          for x in recurrent_cases(rng, boundary, 120))
              if isinstance(u, SymbolSequence)]
    cases = [shift(u, s) for u in images[:40] for s in range(-8, 9)]
    cases += [corrupted(rng, u, rng.randint(1, 3)) for u in images for _ in range(4)]
    endless = list(endless_cases(rng, boundary, 300))
    return cases + endless + [corrupted(rng, v, rng.randint(1, 2)) for v in endless[:100]]


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_decode_sequence_matches_oracle(boundary):
    for v in decode_cases(boundary):
        assert _outcome(decode_sequence, v, boundary) \
            == _outcome(_oracle_decode_sequence, v, boundary), (v, boundary)


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_decode_sequence_does_not_depend_on_the_boundary(boundary):
    # the oracle still anchors through return_profile under its boundary
    other = PAPER if boundary == ADJUSTED else ADJUSTED
    for v in decode_cases(boundary):
        want = _outcome(_oracle_decode_sequence, v, boundary)
        assert _outcome(_oracle_decode_sequence, v, other) == want, v
        assert _outcome(decode_sequence, v, other) == want, v


# ---------------------------------------------------------------------------
# the accelerated roof

def test_roof_prime_at_singularity():
    assert roof_prime(BitSequence.zero(), HARM) == 1.0 * LOG2
    two = RoofFunction.from_profile(Harmonic(2.0))
    assert roof_prime(BitSequence.zero(), two) == 2.0 * LOG2
    with pytest.raises(ValueError):
        roof_prime(BitSequence.zero(), RoofFunction.from_profile(Power(0.5)))


def test_roof_prime_single_step():
    x = BitSequence.from_ones([0, 7])
    assert roof_prime(x, HARM) == 1.0  # R1: one term, g0


def test_roof_prime_deep_expanding_phase():
    x = BitSequence.from_ones([-1000, 10 ** 6])
    got = roof_prime(x, HARM)
    oracle = math.fsum(1.0 / j for j in range(1000, 2000))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.6933972, abs=1e-6)


def test_roof_prime_power_is_a_birkhoff_sum_of_value():
    # the scalar law k ** -alpha summed over one step; numpy's ks ** -alpha
    # differs from it in the last bit for some k
    g = Power(0.5)
    f = RoofFunction.from_profile(g)
    rng = np.random.default_rng(29)
    for _ in range(300):
        km, kp = int(rng.integers(0, 3000)), int(rng.integers(1, 3000))
        dists = [min(km + j, kp - j) for j in range(step_length(GapPair(km, kp)))]
        want = math.fsum(g.g0 if d == 0 else g.value(d) for d in dists)
        assert roof_prime(BitSequence.from_ones([-km, kp]), f) == want


def test_birkhoff_over_step_reads_the_roof_at_the_nearer_one():
    # the summand before roof_between, f.value_at_gap(min(km + j, kp - j)), as the oracle
    roofs = [RoofFunction.const(2.0)] + [RoofFunction.from_profile(g) for g in (
        Harmonic(1.0), Power(0.5), LogHarmonic(), Geometric(0.05),
        Truncated(Harmonic(1.0), 0.1))]
    rng = random.Random(20261019)
    pairs = [(rng.randrange(0, 3000), rng.randrange(1, 3000)) for _ in range(300)]
    pairs += [(0, INF), (1, INF), (2000, INF), (INF, 1), (INF, 2), (INF, 2999)]
    for f in roofs:
        for km, kp in pairs:
            for boundary in (ADJUSTED, PAPER):
                step = step_length(GapPair(km, kp), boundary)
                want = math.fsum(f.value_at_gap(min(km + j, kp - j)) for j in range(step))
                got = cdc._birkhoff_over_step(km, kp, f, boundary)
                assert float.hex(got) == float.hex(want), (f.spec(), km, kp, boundary)


def test_roof_prime_positive_sampled():
    rng = np.random.default_rng(53)
    for _ in range(100):
        km = int(rng.integers(0, 2000))
        kp = int(rng.integers(1, 2000))
        x = BitSequence.from_ones([p for p in (-km, kp) if True])
        if km == 0:
            x = BitSequence.from_ones([0, kp])
        assert roof_prime(x, HARM) > 0.0


def test_roof_prime_continuity_probe():
    probe = roof_prime_continuity_probe(Harmonic(1.0), 2000)
    assert probe <= 0.02
    values = [roof_prime_continuity_probe(Harmonic(1.0), K)
              for K in (250, 500, 1000, 2000, 4000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    doubled = roof_prime_continuity_probe(Harmonic(2.0), 2000)
    assert doubled <= 0.04


def test_roof_prime_probe_scales_linearly():
    a = roof_prime_continuity_probe(Harmonic(1.0), 500)
    b = roof_prime_continuity_probe(Harmonic(2.0), 500)
    assert b == pytest.approx(2 * a, rel=1e-9)


def test_roof_prime_probe_table_agreeing_beyond_k():
    # a table that matches l/k past its explicit entries probes identically
    from singflow import Table
    table = Table([0.5] * 10, tail=Harmonic(1.0))
    assert (roof_prime_continuity_probe(table, 250)
            == roof_prime_continuity_probe(Harmonic(1.0), 250))


def test_fiber_sfts_shape_and_entropy():
    first, second = fiber_sfts()
    assert [render_word(w) for w in first] == ["2^0 2^x", "2^1 2^x"]
    assert [render_word(w) for w in second] == ["4^0 4^x", "4^1 4^x"]
    assert sft_entropy_wordcount(first, 40).value == pytest.approx(LOG2 / 2)
    assert sft_entropy_wordcount(second, 40).value == pytest.approx(LOG2 / 2)


def test_ceil_sqrt_exact():
    assert ceil_sqrt(0) == 0
    for n in list(range(1, 500)) + [10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1]:
        s = ceil_sqrt(n)
        assert (s - 1) ** 2 < n <= s ** 2

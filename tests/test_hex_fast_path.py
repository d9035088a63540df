"""`parse_hex` reads text of exactly the form `image_to_hex` writes (an
optional `@` head line, then lines of 8 hex digits, each ending in `\n`)
as one block; any other text takes the per-line path.  Both must read
text exactly as a plain per-line reading of the format does, errors
included.  `image_to_hex` packs all words at once and must write what a
per-word writer does."""

import gc
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rv32mc import MemoryImage, image_to_hex, parse_hex
from rv32mc.errors import AsmError


def reference_parse_hex(text: str) -> tuple[int, list[int]]:
    """The format, one line at a time: comments and blanks skipped, `@`
    and 1 to 8 hex digits of word address, or 1 to 8 hex digits of word;
    nothing at byte address 2^32 or above."""
    words: dict[int, int] = {}
    addr = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"#.*|//.*", "", raw).strip()
        if not line:
            continue
        if line.startswith("@"):
            if not re.fullmatch(r"@[0-9a-fA-F]{1,8}", line):
                raise AsmError(f"bad address record {line!r}", line=lineno)
            addr = int(line[1:], 16) * 4
            if addr >= 2**32:
                raise AsmError(f"{line!r} is past the last word address", line=lineno)
            continue
        if not re.fullmatch(r"[0-9a-fA-F]{1,8}", line):
            raise AsmError(f"bad hex word {line!r}", line=lineno)
        if addr >= 2**32:
            raise AsmError(f"word at {addr:#x} is past the last word address", line=lineno)
        words[addr] = int(line, 16)
        addr += 4
    if not words:
        return 0, []
    lo, hi = min(words), max(words)
    return lo, [words.get(a, 0) for a in range(lo, hi + 4, 4)]


def outcome(parse, text: str) -> tuple:
    try:
        result = parse(text)
    except AsmError as e:
        return type(e), e.message, e.line
    if isinstance(result, tuple):
        return result
    return result.base_address, result.words


_word = st.integers(0, 2**32 - 1)
_line = st.one_of(
    _word.map("{:08x}".format),
    _word.map("{:08X}".format),
    st.tuples(_word, st.integers(1, 7)).map(lambda a: f"{a[0]:x}"[: a[1]]),
    _word.map("{:08x} # a comment".format),
    _word.map("{:x}// note".format),
    # @ records stay at or below word address 0x1000: the image is laid
    # out as one zero-filled block, so its size follows the address.
    st.tuples(st.integers(0, 0x1000), st.sampled_from(["{:x}", "{:X}", "{:08x}", "{:03x}"])).map(
        lambda a: "@" + a[1].format(a[0])
    ),
    # Eight characters that int(x, 16) reads but the format forbids, or
    # that only the strict path may accept (surrounding whitespace).
    st.sampled_from([
        "+1234567", "-1234567", "1234_567", " 1234567", "1234567 ", "\t1234567", "0x123456",
        "0X12345f", "１２３４５６７８", "٠١٢٣٤٥٦٧", "1234 567", "g1234567",
    ]),
    st.sampled_from([
        "", "   ", "# only a comment", "// only a comment", "123456789", "@", "@-1", "@+1", "@0x10",
        "@ 10", "@123456789", "12345678#", "1234#567", "@10 # comment", "@40000000", "@ffffffff",
    ]),
)
_hex_text = st.tuples(
    st.lists(st.tuples(_line, st.sampled_from(["\n", "\r\n"])), max_size=14),
    st.booleans(),
).map(lambda a: "".join(line + end for line, end in a[0]).rstrip("\r\n" if a[1] else ""))


@given(_hex_text)
def test_parse_hex_reads_as_the_per_line_format(text):
    assert outcome(parse_hex, text) == outcome(reference_parse_hex, text)


def test_fast_path_lines_are_exactly_eight_hex_digits():
    assert parse_hex("0000006f\r\nDEADBEEF\n").words == [0x6F, 0xDEADBEEF]
    for line in ("+1234567", "-1234567", "1234_567", "0x123456", "１２３４５６７８"):
        assert outcome(parse_hex, f"00000000\n{line}\n") == (
            AsmError, f"bad hex word {line!r}", 2
        )
    assert parse_hex(" 1234567\n").words == [0x1234567]  # strict path: stripped, 7 digits


def longhand_image_to_hex(image: MemoryImage) -> str:
    """The format, one word at a time."""
    lines = [f"@{image.base_address >> 2:x}"] if image.base_address else []
    lines += [f"{w:08x}" for w in image.words]
    return "".join(line + "\n" for line in lines)


_words = st.lists(_word, max_size=64)
# Any word-aligned base up to word address 0xFFFFFFFF: the text of most
# of these places words past the last word address.
_any_image = st.builds(
    MemoryImage, st.one_of(st.just(0), st.integers(1, 0xFFFFFFFF).map(lambda w: 4 * w)), _words
)
# Images the format can hold: a word-aligned base, the last word below 2^32.
_image = _words.flatmap(lambda words: st.builds(
    MemoryImage,
    st.one_of(st.just(0), st.integers(1, 2**30 - max(len(words), 1)).map(lambda w: 4 * w)),
    st.just(words),
))


def _mutate(line: str, kind: str, at: int) -> str:
    """`line` (without its newline) with one flaw of `kind` at index `at`."""
    at %= len(line) + 1
    return {
        "digit": line[:at] + "g" + line[at + 1:],
        "newline": line[:at] + "\n" + line[at + 1:],
        "space": line[:at] + " " + line[at:],
        "crlf": line + "\r",
        "comment": line + " # c",
        "short": line[:-1],
        "long": line + "0",
    }[kind]


@st.composite
def _image_text(draw):
    """The text of a random image, as written or with one flaw."""
    text = longhand_image_to_hex(draw(_any_image))
    kind = draw(st.sampled_from([
        None, "digit", "newline", "space", "crlf", "comment", "short", "long",
        "comment line", "no final newline",
    ]))
    if kind is None or not text:
        return text
    if kind == "no final newline":
        return text[:-1]
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "comment line":
        lines.insert(i, "// a comment")
    else:
        lines[i] = _mutate(lines[i], kind, draw(st.integers(0, 9)))
    return "".join(line + "\n" for line in lines)


@given(_image_text())
def test_block_form_reads_as_the_per_line_format(text):
    assert outcome(parse_hex, text) == outcome(reference_parse_hex, text)


@given(_image)
def test_image_to_hex_writes_the_per_word_form(image):
    assert image_to_hex(image) == longhand_image_to_hex(image)


@given(_image)
def test_image_to_hex_reads_back_as_written(image):
    back = parse_hex(image_to_hex(image))
    # An image with no words reads back empty at 0, as any empty text does.
    assert (back.base_address, back.words) == (
        (image.base_address, image.words) if image.words else (0, []))


@pytest.mark.parametrize("base, words", [
    (2, [1]), (-4, [1]), (0xFFFFFFFC, [1, 2]), (1 << 34, [1]), (1 << 32, []),
])
def test_image_to_hex_refuses_a_base_the_format_cannot_hold(base, words):
    with pytest.raises(ValueError) as e:
        image_to_hex(MemoryImage(base, words))
    assert str(e.value) == (f"base {base:#x} with {len(words)} words: an image must start "
                            f"at a word address and end at or below 0x100000000")


@pytest.mark.parametrize("word", [-1, 2**32])
def test_image_to_hex_refuses_a_word_outside_32_bits(word):
    with pytest.raises(ValueError) as e:
        image_to_hex(MemoryImage(0x100, [0x13, word, 0x6F]))
    assert str(e.value) == f"word at 0x104 is {word}, outside 0..0xffffffff"


def test_block_read_keeps_no_state_per_line():
    # A repeated-group regex over the text would keep a stack entry per
    # line: about 8 MiB more at this size.
    words = [(i * 0x9E3779B1) & 0xFFFFFFFF for i in range(0x10000)]
    text = image_to_hex(MemoryImage(0x400, words))
    gc.collect()
    tracemalloc.start()
    try:
        image = parse_hex(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (image.base_address, image.words) == (0x400, words)
    assert peak < 4 * 2**20

import gc
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rv32mc import MemoryImage, assemble, disassemble, encode, image_to_hex, parse_hex
from rv32mc.errors import (
    BadOperand,
    BranchTargetMisaligned,
    DuplicateLabel,
    ImmediateOutOfRange,
    MisalignedImmediate,
    OperandCount,
    UndefinedLabel,
    UnknownMnemonic,
)
from test_isa import instructions


def test_single_instruction():
    assert assemble("addi x1, x0, 5").words == [0x00500093]


def test_empty_source():
    image = assemble("", base=0x40)
    assert image.words == [] and image.base_address == 0x40


def test_self_loop_label():
    assert assemble("loop: beq x0, x0, loop").words == [0x00000063]


def test_backward_and_forward_labels():
    src = """
        jal x0, end       # forward
top:    addi x1, x1, 1
        beq x0, x0, top   # backward
end:    jal x0, end
"""
    image = assemble(src)
    assert image.words[0] == encode_jal_offset(12)
    assert image.words[2] == assemble("beq x0, x0, -4").words[0]


def encode_jal_offset(offset):
    from rv32mc import instr

    return encode(instr("jal", rd=0, imm=offset))


def test_label_on_own_line():
    src = "top:\n    jal x0, top\n"
    assert assemble(src).words == [encode_jal_offset(0)]


def test_comments_and_blank_lines():
    src = "# leading comment\n\naddi x1, x0, 1 // trailing\n   \n"
    assert len(assemble(src).words) == 1


def test_org_and_word_directives():
    src = """
        .org 0x10
        .word 0xDEADBEEF
        addi x1, x0, 1
"""
    image = assemble(src)
    assert image.base_address == 0x10
    assert image.words == [0xDEADBEEF, 0x00100093]


def test_org_gap_zero_filled():
    src = "addi x1, x0, 1\n.org 0x10\n.word 7\n"
    image = assemble(src)
    assert image.base_address == 0
    assert image.words == [0x00100093, 0, 0, 0, 7]


def test_forward_labels_resolve_across_org_gaps():
    src = "jal x0, far\n.org 0x10\nbeq x0, x0, far\n.org 0x20\n.org 0x20\nfar: jal x0, far\n"
    image = assemble(src, base=0)
    beq = assemble("beq x0, x0, 16").words[0]
    assert image.words == [encode_jal_offset(0x20), 0, 0, 0, beq, 0, 0, 0, encode_jal_offset(0)]


@pytest.mark.parametrize(
    "src,err,line",
    [
        ("addi x1, x0, 1\n.org 0x1000000\naddi x2, x0, zz", BadOperand, 3),
        ("addi x1, x0, 1\n.org 0x1000000\nbeq x0, x0, nowhere", UndefinedLabel, 3),
        ("addi x1, x0, 1\n.org 0x1000000\naddi x2, x0, 2\nx:\nx:", DuplicateLabel, 5),
        # a span no memory can hold, refused at its last statement: a 2^30-word gap
        ("addi x1, x0, 1\n.org 0xfffffff8\naddi x1, x0, 1", BadOperand, 3),
        ("addi x1, x0, 1\n.org 0x1000000\naddi x2, x0, 2\n# end", BadOperand, 3),
    ],
)
def test_an_error_past_an_org_gap_is_reported_before_the_gap_is_filled(src, err, line):
    # Filling the 4M-word gap first would take 32 MiB.
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(err) as exc:
            assemble(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == line and peak < 2**20


def test_an_image_may_span_the_largest_memory_and_no_more():
    # The span runs from the first word to the end of the last, gaps
    # included; it need not start at address 0.
    from rv32mc.errors import AsmError
    from rv32mc.memory import MAX_MEM_SIZE

    first = 0x100
    for last, fits in ((first + MAX_MEM_SIZE - 4, True), (first + MAX_MEM_SIZE, False)):
        source = f".org {first:#x}\naddi x1, x0, 1\n.org {last:#x}\naddi x2, x0, 2\n"
        text = f"@{first >> 2:x}\n00100093\n@{last >> 2:x}\n00200113\n"
        if fits:
            for image in (assemble(source), parse_hex(text)):
                assert image.base_address == first and 4 * len(image.words) == MAX_MEM_SIZE
                assert image.words[-1] == 0x00200113
        else:
            with pytest.raises(BadOperand, match="16 MiB") as exc:
                assemble(source)
            assert exc.value.line == 4
            with pytest.raises(AsmError, match="16 MiB"):
                parse_hex(text)


def test_base_offsets_labels():
    # label resolution is pc-relative, so the encoding is base-independent
    src = "top: jal x0, top"
    assert assemble(src, base=0x100).words == assemble(src, base=0).words
    assert assemble(src, base=0x100).base_address == 0x100


@pytest.mark.parametrize(
    "src,err,line",
    [
        ("addw x1, x2, x3", UnknownMnemonic, 1),
        ("\nbeq x0, x0, nowhere", UndefinedLabel, 2),
        ("dup: addi x1, x0, 0\ndup: addi x1, x0, 0", DuplicateLabel, 2),
        ("add x1, x2", OperandCount, 1),
        ("addi x1, x0, 5, 6", OperandCount, 1),
        ("\n\naddi x1, x0, 2048", ImmediateOutOfRange, 3),
        ("beq x0, x0, 3", BranchTargetMisaligned, 1),
        ("addi x1, x0, five", BadOperand, 1),
        ("add x1, x2, x32", BadOperand, 1),
        ("lw x1, 4[x2]", BadOperand, 1),
        (".org 0x6", MisalignedImmediate, 1),
        (".org 8\n.org 4", BadOperand, 2),
        # nothing placed at or past 2^32 (`.org` first: a gap before it is zero-filled)
        (".org 0x100000000\naddi x2, x0, 2", BadOperand, 1),
        (".org 0xfffffffc\naddi x1, x0, 1\naddi x2, x0, 2", BadOperand, 3),
        (".word 0x1FFFFFFFF", ImmediateOutOfRange, 1),
        ("addi x1, x0, 1:", BadOperand, 1),  # a colon that ends no label
        ("\n.org", OperandCount, 2),
        (".word", OperandCount, 1),
        ("jal x0, x5", BadOperand, 1),  # a register is neither label nor offset
        # a decimal with a leading zero, which `int(tok, 0)` refuses
        ("\naddi x1, x0, 01", BadOperand, 2),
        ("lw x1, 010(x2)", BadOperand, 1),
        ("\n\n.org 08", BadOperand, 3),
        ("beq x0, x0, 08", BadOperand, 1),
        (".word 01", BadOperand, 1),
    ],
)
def test_diagnostics_carry_origin_line(src, err, line):
    with pytest.raises(err) as exc:
        assemble(src)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


@pytest.mark.parametrize(
    "src,err,line",
    [
        # an error of the first walk (labels, `.org`, placement) wins over any
        # operand error above it; then the first failing statement by line
        ("addi x1, x0, zz\nx:\nx:", DuplicateLabel, 3),
        ("beq x0, x0, nowhere\naddi x1, x0, zz", UndefinedLabel, 1),
        ("addi x1, x0, zz\nbeq x0, x0, nowhere", BadOperand, 1),
        ("addi x1, x0, 5000\n.org 2", MisalignedImmediate, 2),
        ("frob x1\njal x0, y\ny:", UnknownMnemonic, 1),
        (".word 0x1FFFFFFFF\nlw x1, 3(x9", ImmediateOutOfRange, 1),
    ],
)
def test_a_source_with_two_errors_reports_the_same_one(src, err, line):
    with pytest.raises(err) as exc:
        assemble(src)
    assert exc.value.line == line


def test_assemble_holds_under_200_bytes_per_statement():
    # The listing of a 10,000-word image of every shape, branches and jumps
    # included: the traced peak covers the lines, the result and whatever
    # else assembling holds at once.
    src = "".join(f"addi x{k % 32}, x{k % 7}, {k % 4096 - 2048}\nsw x{k % 32}, {k % 2048 - 1024}(x3)\n"
                  f"beq x{k % 5}, x{k % 3}, {-8 * (k % 64)}\njal x{k % 32}, {8 * (k % 512)}\n"
                  f"lw x{k % 9}, {k % 1000}(x{k % 32})\n" for k in range(2000))
    image = assemble(src)
    listing = disassemble(image)
    gc.collect()
    tracemalloc.start()
    try:
        again = assemble(listing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(image.words) == 10_000 and again.words == image.words
    assert peak <= 200 * 10_000


def test_zero_and_hex_with_leading_zeros_still_assemble():
    assert assemble("addi x1, x0, 00\nlw x1, -00(x2)\naddi x1, x0, 0x01").words == \
        assemble("addi x1, x0, 0\nlw x1, 0(x2)\naddi x1, x0, 1").words


def test_last_word_address_is_placed():
    image = assemble(".org 0xfffffffc\naddi x1, x0, 1\n")
    assert (image.base_address, image.words) == (0xFFFFFFFC, [0x00100093])


def test_duplicate_label_even_when_empty():
    with pytest.raises(DuplicateLabel):
        assemble("x:\nx:\n")


def test_disassemble_examples():
    assert disassemble(MemoryImage(0, [0x00500093])) == "addi x1, x0, 5\n"
    assert disassemble(MemoryImage(0, [0xFFFFFFFF])) == ".word 0xFFFFFFFF\n"
    # Repeated and unsupported words, each formatted once, listed in image order.
    assert disassemble(MemoryImage(0, [0, 0x00500093, 0, 0x00500093, -1])) == (
        ".word 0x00000000\naddi x1, x0, 5\n.word 0x00000000\naddi x1, x0, 5\n.word 0xFFFFFFFF\n")


def test_disassemble_store_and_load_forms():
    text = disassemble(assemble("lw x2, -8(x3)\nsw x4, 12(x5)\n"))
    assert text == "lw x2, -8(x3)\nsw x4, 12(x5)\n"


def test_assemble_disassemble_round_trip():
    src = """
        addi x7, x0, 1
        slli x7, x7, 12
loop:   lw   x9, 8(x7)
        sw   x9, 12(x7)
        beq  x9, x0, loop
        jal  x0, 0
"""
    # 4,096 distinct words: more than any per-word `lru_cache` holds.
    wide = "".join(f"addi x{k % 32}, x{k % 7}, {k - 1024}\nsw x{k % 32}, {k % 2048 - 1024}(x3)\n"
                   for k in range(2048))
    for text in (src, wide):
        image = assemble(text)
        assert assemble(disassemble(image)).words == image.words
    assert len(set(image.words)) == 4096


@given(st.lists(instructions(), max_size=40))
def test_round_trip_any_decodable_image(ins_list):
    image = MemoryImage(0, [encode(i) for i in ins_list])
    assert assemble(disassemble(image)).words == image.words


def test_assembly_is_deterministic():
    src = "a: addi x1, x0, 1\nb: beq x1, x0, a\njal x0, 0\n"
    assert assemble(src).words == assemble(src).words


# --- hex image format ---

def test_hex_round_trip_base_zero():
    image = MemoryImage(0, [0x00500093, 0x0000006F])
    text = image_to_hex(image)
    assert text == "00500093\n0000006f\n"
    back = parse_hex(text)
    assert back.base_address == 0 and back.words == image.words


def test_hex_round_trip_nonzero_base():
    image = MemoryImage(0x40, [1, 2, 3])
    text = image_to_hex(image)
    assert text.splitlines()[0] == "@10"
    back = parse_hex(text)
    assert back.base_address == 0x40 and back.words == [1, 2, 3]


def test_hex_sparse_records_zero_fill():
    back = parse_hex("@1\n11\n@4\n44\n")
    assert back.base_address == 4
    assert back.words == [0x11, 0, 0, 0x44]


def test_hex_comments_and_short_words():
    back = parse_hex("# dump\n@2\nabc // three nibbles\n")
    assert back.base_address == 8 and back.words == [0xABC]


def test_hex_rejects_garbage():
    from rv32mc.errors import AsmError

    with pytest.raises(AsmError) as exc:
        parse_hex("00500093\nxyz\n")
    assert exc.value.line == 2
    with pytest.raises(AsmError):
        parse_hex("@zz\n")
    with pytest.raises(AsmError):
        parse_hex("123456789\n")


@pytest.mark.parametrize("record", ["@-1", "@+10", "@1_0", "@0x10", "@ 10", "@", "@123456789"])
def test_hex_address_record_is_unsigned_hex(record):
    from rv32mc.errors import AsmError

    with pytest.raises(AsmError) as exc:
        parse_hex(f"# image\n{record}\n0000006f\n")
    assert exc.value.line == 2


def test_hex_address_record_takes_up_to_eight_digits():
    assert parse_hex("@3fFfFfFf\n1\n").base_address == 4 * 0x3FFFFFFF


# Each `@` record comes first: a gap after an earlier word would be zero-filled.
@pytest.mark.parametrize("text, line", [
    ("@40000000\n00000013\n", 1),  # image_to_hex's block form
    ("@40000000\n00000013\n# c\n", 1),  # the same, line by line
    ("@ffffffff\n00000013\n", 1),
    ("@40000000\n", 1),
    ("@3fffffff\n00000013\n00000013\n", 3),  # the second word lands at 2^32
    ("@3fffffff\n00000013\n00000013\n# c\n", 3),
], ids=["block", "lines", "ffffffff", "record-alone", "second-word-block", "second-word-lines"])
def test_hex_address_at_or_past_2_32_is_refused(text, line):
    from rv32mc.errors import AsmError

    with pytest.raises(AsmError) as exc:
        parse_hex(text)
    assert exc.value.line == line and "past the last word address" in str(exc.value)


@pytest.mark.parametrize("text", ["@3fffffff\n00000013\n", "@3fffffff\n00000013\n# c\n"],
                         ids=["block", "lines"])
def test_hex_last_word_address_is_placed(text):
    back = parse_hex(text)
    assert back.base_address == 0xFFFFFFFC and back.words == [0x13]


@pytest.mark.parametrize("base", [-4, 1 << 32])
def test_base_outside_address_space_rejected(base):
    from rv32mc.errors import BadOperand

    with pytest.raises(BadOperand):
        assemble("jal x0, 0\n", base=base)


def test_hex_empty():
    assert parse_hex("").words == []
    assert image_to_hex(MemoryImage(0, [])) == ""

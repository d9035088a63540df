import pytest
from hypothesis import given, strategies as st

from rv32mc import ControlMode, MemoryImage, UnifiedMemory, parse_hex
from rv32mc.errors import (
    DoubleWritePerCycle,
    MisalignedAccess,
    OutOfRange,
    WriteForbiddenInMode,
)

PROG = ControlMode.PROGRAMMING
EXEC = ControlMode.EXECUTING
OBS = ControlMode.OBSERVATION
RESET = ControlMode.RESET_HOLD


def test_fresh_memory_reads_zero():
    assert UnifiedMemory().read_word(0) == 0


def test_read_after_commit():
    mem = UnifiedMemory()
    mem.schedule_write(0x10, 0xDEADBEEF, PROG)
    mem.commit_cycle()
    assert mem.read_word(0x10) == 0xDEADBEEF


def test_pending_write_not_visible_before_commit():
    mem = UnifiedMemory()
    mem.schedule_write(0, 0x00500093, PROG)
    mem.commit_cycle()
    mem.schedule_write(0, 0x11111111, PROG)
    assert mem.read_word(0) == 0x00500093
    mem.commit_cycle()
    assert mem.read_word(0) == 0x11111111


def test_misaligned_read():
    with pytest.raises(MisalignedAccess) as exc:
        UnifiedMemory().read_word(0x1002)
    assert exc.value.addr == 0x1002


def test_out_of_range_read():
    with pytest.raises(OutOfRange):
        UnifiedMemory().read_word(4096)
    with pytest.raises(OutOfRange):
        UnifiedMemory().read_word(-4)


def test_write_forbidden_in_observation_and_reset():
    mem = UnifiedMemory()
    with pytest.raises(WriteForbiddenInMode):
        mem.schedule_write(0, 1, OBS)
    with pytest.raises(WriteForbiddenInMode):
        mem.schedule_write(0, 1, RESET)
    assert mem.read_word(0) == 0


def test_single_write_port_per_cycle():
    mem = UnifiedMemory()
    mem.schedule_write(0, 1, PROG)
    with pytest.raises(DoubleWritePerCycle):
        mem.schedule_write(4, 2, PROG)
    mem.commit_cycle()
    mem.schedule_write(4, 2, PROG)  # next cycle is fine
    mem.commit_cycle()
    assert (mem.read_word(0), mem.read_word(4)) == (1, 2)


def test_empty_commit_is_noop():
    mem = UnifiedMemory()
    before = list(mem.words)
    mem.commit_cycle()
    assert mem.words == before


def test_commit_applies_to_word_index():
    mem = UnifiedMemory()
    mem.schedule_write(0x20, 7, PROG)
    mem.commit_cycle()
    assert mem.words[8] == 7


def test_load_image_then_read_back():
    mem = UnifiedMemory()
    image = MemoryImage(0, [1, 2, 3])
    assert mem.load_image(image, PROG) == 3
    assert [mem.read_word(a) for a in (0, 4, 8)] == [1, 2, 3]


def test_load_image_requires_programming_mode():
    mem = UnifiedMemory()
    for mode in (EXEC, OBS, RESET):
        with pytest.raises(WriteForbiddenInMode):
            mem.load_image(MemoryImage(0, [1]), mode)


def test_load_image_bounds():
    mem = UnifiedMemory(4096)
    with pytest.raises(OutOfRange):
        mem.load_image(MemoryImage(0, [0] * 1025), PROG)
    assert mem.load_image(MemoryImage(0, [0] * 1024), PROG) == 1024
    with pytest.raises(OutOfRange):
        mem.load_image(MemoryImage(4092, [1, 2]), PROG)


def test_size_must_be_positive_multiple_of_four():
    with pytest.raises(ValueError):
        UnifiedMemory(0)
    with pytest.raises(ValueError):
        UnifiedMemory(10)


def test_configurable_size():
    mem = UnifiedMemory(512)
    assert mem.load_image(MemoryImage(0, [0] * 128), PROG) == 128
    with pytest.raises(OutOfRange):
        mem.read_word(512)


def test_dump_image_round_trip():
    mem = UnifiedMemory()
    mem.load_image(MemoryImage(8, [5, 6]), PROG)
    dump = mem.dump_image()
    assert dump.base_address == 0 and len(dump.words) == 1024
    assert dump.words[2:4] == [5, 6]
    assert mem.dump_image(8, 2).words == [5, 6]


@given(
    st.lists(
        st.tuples(st.integers(0, 1023), st.integers(0, 0xFFFFFFFF)),
        max_size=40,
    )
)
def test_memory_is_a_function_of_committed_writes(writes):
    # read-after-commit always returns the last committed value
    mem = UnifiedMemory()
    model = {}
    for word_addr, value in writes:
        mem.schedule_write(word_addr * 4, value, PROG)
        assert mem.read_word(word_addr * 4) == model.get(word_addr, 0)
        mem.commit_cycle()
        model[word_addr] = value
        assert mem.read_word(word_addr * 4) == value
    for word_addr, value in model.items():
        assert mem.read_word(word_addr * 4) == value


@given(st.lists(st.integers(0, 1023), max_size=20))
def test_observation_never_mutates(addrs):
    mem = UnifiedMemory()
    mem.load_image(MemoryImage(0, [0xA5A5A5A5] * 16), PROG)
    before = list(mem.words)
    for a in addrs:
        mem.read_word(a * 4)
        with pytest.raises(WriteForbiddenInMode):
            mem.schedule_write(a * 4, 0, OBS)
        mem.commit_cycle()
    assert mem.words == before


def test_load_image_with_pending_write_raises_and_changes_nothing():
    mem = UnifiedMemory()
    mem.schedule_write(0x40, 9, PROG)
    with pytest.raises(DoubleWritePerCycle):
        mem.load_image(MemoryImage(0, [1, 2, 3]), PROG)
    assert mem.words == [0] * 1024
    mem.commit_cycle()
    assert mem.read_word(0x40) == 9


def test_load_image_masks_words_to_32_bits():
    mem = UnifiedMemory()
    mem.load_image(MemoryImage(0, [-1, 2**32 + 5]), PROG)
    assert (mem.read_word(0), mem.read_word(4)) == (0xFFFFFFFF, 5)


def test_image_ending_on_last_word_loads():
    mem = UnifiedMemory(4096)
    assert mem.load_image(MemoryImage(4088, [7, 8]), PROG) == 2
    assert (mem.read_word(4088), mem.read_word(4092)) == (7, 8)
    assert mem.words[:1022] == [0] * 1022


@pytest.mark.parametrize("base", [0, 4092, 4096, 0x10000, 2**32 - 4])
def test_empty_image_loads_at_any_aligned_base(base):
    mem = UnifiedMemory(4096)
    assert mem.load_image(MemoryImage(base, []), PROG) == 0
    assert mem.words == [0] * 1024


def test_parse_hex_zero_fills_between_lowest_and_highest_address():
    # Out-of-order `@` records take the hex reader's line-by-line path.
    assert parse_hex("@6\n3\n@4\n1\n") == MemoryImage(0x10, [1, 0, 3])
    assert parse_hex("@10\n# nothing\n") == MemoryImage(0, [])

"""The assembler packs through the same field encoder as `isa.encode`.

Every mnemonic, with registers and immediates up to each range's edges
and one past them, assembles to `encode(instr(...))` or fails with the
error `encode` gives, at the statement's line.  The hex images of the
bundled firmware and of the benchmark's generated sources are pinned by
digest, so the assembler's output stays byte for byte.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rv32mc import assemble, encode, image_to_hex, instr
from rv32mc.errors import BranchTargetMisaligned, EncodeError
from rv32mc.isa import ENCODING, MNEMONIC_CLASS

ROOT = Path(__file__).resolve().parent.parent

# (low, high) of each operand shape's immediate; the strategy draws both,
# the values one past them, and values between.
_RANGES = {
    "r": (0, 0),
    "i": (-2048, 2047),
    "shift": (0, 31),
    "load": (-2048, 2047),
    "store": (-2048, 2047),
    "branch": (-4096, 4094),
    "jump": (-(1 << 20), (1 << 20) - 2),
}


def _edges(shape: str) -> list[int]:
    lo, hi = _RANGES[shape]
    step = 2 if shape in ("branch", "jump") else 1  # offsets are even
    return [lo - step, lo, hi, hi + step]


def _source(m: str, rd: int, rs1: int, rs2: int, imm: int) -> str:
    shape = ENCODING[m][0]
    if shape == "r":
        return f"{m} x{rd}, x{rs1}, x{rs2}"
    if shape in ("i", "shift"):
        return f"{m} x{rd}, x{rs1}, {imm}"
    if shape == "load":
        return f"{m} x{rd}, {imm}(x{rs1})"
    if shape == "store":
        return f"{m} x{rs2}, {imm}(x{rs1})"
    if shape == "branch":
        return f"{m} x{rs1}, x{rs2}, {imm}"
    return f"{m} x{rd}, {imm}"


def check_statement(m: str, rd: int, rs1: int, rs2: int, imm: int, blank_lines: int) -> None:
    """Assemble one statement after `blank_lines` empty lines; compare with encode."""
    shape = ENCODING[m][0]
    unused = {"r": "imm", "i": "rs2", "shift": "rs2", "load": "rs2", "store": "rd",
              "branch": "rd", "jump": "rs1 rs2"}[shape].split()
    fields = {k: 0 if k in unused else v for k, v in dict(rd=rd, rs1=rs1, rs2=rs2, imm=imm).items()}
    lo, hi = _RANGES[shape]
    imm = fields["imm"]
    encodable = lo <= imm <= hi and not (shape in ("branch", "jump") and imm % 2)
    line = blank_lines + 1
    source = "\n" * blank_lines + _source(m, **fields)
    try:
        expected = encode(instr(m, **fields))
    except EncodeError as e:
        assert not encodable
        if shape in ("branch", "jump") and imm % 2:
            # An odd literal target is the assembler's own error.
            error = (BranchTargetMisaligned, f"odd target offset {imm}")
        else:
            error = (type(e), e.message)
        with pytest.raises(error[0]) as exc:
            assemble(source)
        assert (type(exc.value), exc.value.message, exc.value.line) == (*error, line)
    else:
        assert encodable
        assert assemble(source).words == [expected]


@st.composite
def statements(draw):
    """(mnemonic, rd, rs1, rs2, imm) of one instruction."""
    m = draw(st.sampled_from(sorted(MNEMONIC_CLASS)))
    lo, hi = _RANGES[ENCODING[m][0]]
    imm = draw(st.one_of(st.sampled_from(_edges(ENCODING[m][0])), st.integers(lo - 2, hi + 2)))
    reg = st.integers(0, 31)
    return m, draw(reg), draw(reg), draw(reg), imm


@given(statements(), st.integers(0, 3))
def test_assembler_packs_as_encode(stmt, blank_lines):
    check_statement(*stmt, blank_lines)


@pytest.mark.parametrize("m", sorted(MNEMONIC_CLASS))
def test_assembler_range_edges(m):
    for k, imm in enumerate(_edges(ENCODING[m][0])):
        check_statement(m, 31, 1, 30, imm, k)


def test_every_mnemonic_has_an_operand_shape():
    assert set(ENCODING) == set(MNEMONIC_CLASS)
    assert {shape for shape, _ in ENCODING.values()} == set(_RANGES)


def _workgen():
    """perfbench/workgen.py, loaded under its own name for the dataclasses in it."""
    spec = importlib.util.spec_from_file_location("perfbench_workgen", ROOT / "perfbench" / "workgen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# sha256 of `rv32mc asm` output (the image's hex text).
ASM_DIGESTS = {
    "demo": "026ea142b480bfcfddfebfff5a2292f84887189225dfc706f484af0bb1e6e9db",
    "timing": "217ea31c38e1be435c1dd273d67677f4cde9b1546aed39e6cd2f912b57f17017",
    "pacer": "ab3d759fcb9d517c0ada014d1223b8c913f82faa1b74c2abf2d71e70b2156152",
    "loop_kernel": "0dc94b5e3a089d2978631dd4733123efda4be7bc5aa53a6edee7de80952b3d6f",
    "toolchain_image": "e28f69f41c5a755eaa7a0fa4b62f5761181f36869918ba3c2f0edcae7a14f834",
    "traced_mmio": "20b5846a2a7fb3e28fbf7265736397e4ac07485f6ac5cd686aa68d7ad565fea0",
}


def test_assembled_images_are_unchanged():
    sources = {name: (ROOT / "firmware" / f"{name}.s").read_text() for name in ("demo", "timing", "pacer")}
    workgen = _workgen()
    for name in ("loop_kernel", "toolchain_image", "traced_mmio"):
        sources[name] = getattr(workgen, name)(1).source
    digests = {
        name: hashlib.sha256(image_to_hex(assemble(src)).encode()).hexdigest()
        for name, src in sources.items()
    }
    assert digests == ASM_DIGESTS

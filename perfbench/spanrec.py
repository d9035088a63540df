"""Span recorder for the traced run, applied from outside the package.

`instrument()` wraps public functions and methods of rv32mc in
place and undoes it on exit.  Every wrapped call pushes a frame; on return
the call's duration is added to its name's total and, minus the time its
wrapped children took, to its self time.  Hot per-call functions (decode,
memory accesses, device dispatch, trace rendering) only aggregate; the
others also append a (name, start, end, parent) span, so memory stays
bounded by the number of coarse calls.

Calls are recorded only while a root span is open and no muted span is
running: work outside the timed pipeline (the benchmark's own checks) and
inside a muted span (selftest, timed as one opaque span) passes straight
through.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

perf = time.perf_counter


@dataclass
class Agg:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Recorder:
    on: bool = False
    stack: list[list] = field(default_factory=list)  # [name, child_time, span_id]
    agg: dict[str, Agg] = field(default_factory=dict)
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    decode_words: set[int] = field(default_factory=set)
    peripheral_maps: dict[int, Any] = field(default_factory=dict)

    def reset(self) -> None:
        self.agg.clear()
        self.spans.clear()
        self.counters.clear()
        self.decode_words.clear()
        self.peripheral_maps.clear()

    def add(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @contextlib.contextmanager
    def root(self, name: str = "bench.pipeline"):
        """Open the root span; wrapped calls inside it are recorded."""
        frame = [name, 0.0, len(self.spans)]
        self.spans.append((name, 0.0, 0.0, -1))
        self.stack.append(frame)
        self.on = True
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            self.on = False
            self.stack.pop()
            self.spans[frame[2]] = (name, t0, t1, -1)
            self._close(name, t1 - t0, frame[1])

    def _close(self, name: str, dur: float, child: float) -> None:
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = Agg()
        a.count += 1
        a.total += dur
        a.self_time += dur - child

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        hot: bool = False,
        note: Callable[..., None] | None = None,
        mute: bool = False,
    ) -> Callable:
        """A wrapper that times `fn`; `note(rec, args, kwargs, result, dur)`
        runs after each recorded call that returns."""
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            stack = rec.stack
            parent = stack[-1]
            span_id = parent[2]
            if not hot:
                span_id = len(rec.spans)
                rec.spans.append((label, 0.0, 0.0, parent[2]))
            frame = [label, 0.0, span_id]
            stack.append(frame)
            if mute:
                rec.on = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if mute:
                    rec.on = True
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                rec._close(label, dur, frame[1])
                if not hot:
                    rec.spans[span_id] = (label, t0, t1, parent[2])
            if note is not None:
                note(rec, args, kwargs, result, dur)
            return result

        return wrapper


@contextlib.contextmanager
def patched(targets: list[tuple[object, str, Callable]]):
    """Replace each (owner, attribute) with a wrapper; restore on exit.

    A module-level function is also replaced wherever an rv32mc module
    bound it with `from ... import`.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "rv32mc" or n.startswith("rv32mc.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, wrapper in targets:
            original = getattr(owner, attr)
            holders = [(owner, attr)]
            if not isinstance(owner, type):
                holders = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for holder, name in holders:
                undo.append((holder, name, holder.__dict__[name]))
                setattr(holder, name, wrapper)
        yield
    finally:
        for holder, name, value in reversed(undo):
            setattr(holder, name, value)


def _count(key: str, size: Callable[..., float] = lambda *a: 1):
    def note(rec: Recorder, args, kwargs, result, dur) -> None:
        rec.add(key, size(args, kwargs, result))
    return note


def _note_decode(rec: Recorder, args, kwargs, result, dur) -> None:
    # Only the engine's own decodes: trace rendering also decodes, inside
    # its own span.
    if rec.stack[-1][0] == "core.run":
        rec.add("decode_calls", 1)
        rec.decode_words.add(args[0] if args else kwargs["word"])


def _note_run(rec: Recorder, args, kwargs, result, dur) -> None:
    mode = "traced" if kwargs.get("trace") is not None else "untraced"
    rec.add(f"run_cycles_{mode}", result.total_cycles)
    rec.add(f"run_s_{mode}", dur)


def _note_dispatch(rec: Recorder, args, kwargs, result, dur) -> None:
    rec.add("mmio_accesses", 1)
    rec.peripheral_maps[id(args[0])] = args[0]


def _note_assemble(rec: Recorder, args, kwargs, result, dur) -> None:
    rec.add("asm_lines", len((args[0] if args else kwargs["source"]).splitlines()))
    rec.add("image_words", len(result.words))


def _note_parse_hex(rec: Recorder, args, kwargs, result, dur) -> None:
    rec.add("hex_words", len(result.words))
    rec.add("image_words", len(result.words))


def _result_words(args, kwargs, result) -> int:
    return len(result.words)


def _arg_words(args, kwargs, result) -> int:
    return len((args[0] if args else kwargs["image"]).words)


def instrument(rec: Recorder, sink: type):
    """Context manager that records rv32mc's layer boundaries into `rec`.

    `sink` is the class standing in for stdout; its `write` counts as
    trace rendering.
    """
    from rv32mc import asm, cli, core, harness, isa, memory, metrics, selfcheck

    mem = memory.UnifiedMemory
    w = rec.wrap
    targets = [
        (isa, "decode", w("isa.decode", isa.decode, hot=True, note=_note_decode)),
        (core.Core, "run", w("core.run", core.Core.run, note=_note_run)),
        (core, "reference_execute", w("core.reference_execute", core.reference_execute,
                                      note=_count("oracle_instr", lambda a, k, r: r.retired))),
        (core.TraceRecord, "as_csv", w("core.as_csv", core.TraceRecord.as_csv, hot=True,
                                       note=_count("trace_bytes", lambda a, k, r: len(r) + 1))),
        (asm, "assemble", w("asm.assemble", asm.assemble, note=_note_assemble)),
        (asm, "parse_hex", w("asm.parse_hex", asm.parse_hex, note=_note_parse_hex)),
        (asm, "image_to_hex", w("asm.image_to_hex", asm.image_to_hex,
                                note=_count("to_hex_words", _arg_words))),
        (asm, "disassemble", w("asm.disassemble", asm.disassemble, note=_count("dis_words", _arg_words))),
        (asm, "load_hex_file", w("asm.load_hex_file", asm.load_hex_file)),
        (asm, "save_hex_file", w("asm.save_hex_file", asm.save_hex_file)),
        (mem, "read_word", w("memory.read_word", mem.read_word, hot=True, note=_count("read_calls"))),
        (mem, "schedule_write", w("memory.schedule_write", mem.schedule_write, hot=True,
                                  note=_count("write_commits"))),
        (mem, "commit_cycle", w("memory.commit_cycle", mem.commit_cycle, hot=True)),
        (mem, "load_image", w("memory.load_image", mem.load_image)),
        (mem, "dump_image", w("memory.dump_image", mem.dump_image,
                              note=_count("dump_words", _result_words))),
        (harness.Simulator, "program_and_start",
         w("harness.program_and_start", harness.Simulator.program_and_start)),
        (harness.PeripheralMap, "dispatch", w("harness.dispatch", harness.PeripheralMap.dispatch,
                                              hot=True, note=_note_dispatch)),
        (metrics, "attach_metrics", w("metrics.attach_metrics", metrics.attach_metrics)),
        (metrics, "render_kv", w("metrics.render_kv", metrics.render_kv)),
        (metrics, "render_text", w("metrics.render_text", metrics.render_text)),
        (cli, "dispatch", w(lambda argv=None: f"cli.{argv[0]}", cli.dispatch)),
        (selfcheck, "run_selftest", w("selfcheck.run_selftest", selfcheck.run_selftest, mute=True)),
        (sink, "write", w("bench.sink", sink.write, hot=True)),
    ]
    return patched(targets)

"""Abstract instruction model and deterministic trace generation.

Instructions carry only what the defense mechanism reads: a program
counter, a shadow class when they can cause squashing, and execute/resolve
latencies.  There is no ISA, no registers, no memory values.  An
``Instruction`` holds no position: a trace position is its list index,
so one object may stand at many positions.

Both generators, ``gen_loop_trace`` and the attack scenario builders, take
every instruction from ``instruction``, the process's one intern table: it
keeps one ``Instruction`` for each of the ``INSTRUCTION_TABLE_SIZE`` most
recently used values, and ``instruction.cache_clear()`` empties it.  Each
trace still gets its own list; only the immutable instructions are shared.

Trace file format (one instruction per line, ``#`` starts a comment)::

    <seq> <pc-hex> <KIND> <SHADOW|-> <exec_latency> <resolve_latency> [MISS]

SEQ is the position: the line's index among the instructions, from 0.
KIND is one of PLAIN, LOAD, STORE, BRANCH, TRANSMIT; SHADOW is one of E,
C, D, M or ``-`` for none; MISS marks a pre-scheduled misspeculation.  A
latency is from 1 to 2**20 cycles, the largest livelock budget.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from operator import attrgetter

from .config import MAX_BUDGET
from .shadows import ShadowKind


class InstructionKind(str, Enum):
    PLAIN = "PLAIN"
    LOAD = "LOAD"
    STORE = "STORE"
    BRANCH = "BRANCH"
    TRANSMIT = "TRANSMIT"  # side-channel transmit; never casts a shadow

    def __str__(self) -> str:
        return self.value


# Which shadow classes an instruction kind may cast.
_KIND_SHADOWS: dict[InstructionKind, frozenset[ShadowKind]] = {
    InstructionKind.PLAIN: frozenset(),
    InstructionKind.LOAD: frozenset({ShadowKind.E, ShadowKind.M}),
    InstructionKind.STORE: frozenset({ShadowKind.E, ShadowKind.D}),
    InstructionKind.BRANCH: frozenset({ShadowKind.C}),
    InstructionKind.TRANSMIT: frozenset(),
}


class TraceFormatError(ValueError):
    """Raised for malformed trace text; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instruction:
    """What a trace says about one instruction, apart from where it sits.

    An instruction holds no position, so a trace may hold one object at
    many positions, and both generators take theirs from ``instruction``,
    so their traces share them too.  Frozen and compared by value, an
    instruction is never told apart by identity.  A position is the list
    index; the pipeline keeps it in the ``RobEntry`` and assigns its own
    sequence numbers to re-dispatched instances.
    """

    pc: int
    kind: InstructionKind
    shadow_class: ShadowKind | None = None
    exec_latency: int = 1
    resolve_latency: int = 1
    misspeculate: bool = False

    def __post_init__(self) -> None:
        shadow = self.shadow_class
        if shadow is not None and shadow.__class__ is not ShadowKind:
            object.__setattr__(self, "shadow_class", ShadowKind(shadow))
        if self.pc < 0:
            raise ValueError(f"pc must be >= 0, got {self.pc}")
        # a latency above the largest livelock budget livelocks under every
        # budget, and the cap keeps ``done_at`` clear of the pipeline's NEVER
        if not 1 <= self.exec_latency <= MAX_BUDGET:
            raise ValueError(f"exec_latency must be in [1, 2**20], got {self.exec_latency}")
        if not 1 <= self.resolve_latency <= MAX_BUDGET:
            raise ValueError(f"resolve_latency must be in [1, 2**20], got {self.resolve_latency}")
        if self.shadow_class is not None and self.shadow_class not in _KIND_SHADOWS[self.kind]:
            raise ValueError(f"{self.kind} cannot cast a shadow of class {self.shadow_class}")
        if self.misspeculate and self.shadow_class is None:
            raise ValueError("only shadow-casting instructions can misspeculate")


INSTRUCTION_TABLE_SIZE = 1024  # distinct instructions the generators keep


@lru_cache(maxsize=INSTRUCTION_TABLE_SIZE)
def instruction(pc: int, kind: InstructionKind, shadow: ShadowKind | None,
                exec_latency: int, resolve_latency: int, misspeculate: bool) -> Instruction:
    """The process's one ``Instruction`` of this value.

    Pass every argument positionally: the cache keys on the arguments as
    given, so one value must always be spelled the same way.
    """
    return Instruction(pc, kind, shadow, exec_latency, resolve_latency, misspeculate)


_PC = attrgetter("pc")


@dataclass
class Trace:
    """An ordered dynamic instruction stream with its generation metadata;
    a position in it is an index into ``instructions``."""

    name: str
    seed: int
    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    @property
    def trace_id(self) -> str:
        return f"{self.name}:{self.seed}:{len(self.instructions)}"

    def pc_counts(self, n: int) -> dict[int, int]:
        """A new dict: PC -> how many of the first ``n`` records hold it."""
        if n >= len(self.instructions):
            return dict(self._pc_counts)
        return dict(Counter(map(_PC, self.instructions[:n])))

    @cached_property
    def _pc_counts(self) -> dict[int, int]:
        # counted on the first whole-trace read and kept, so the records of a
        # trace must not change once it has run
        return dict(Counter(map(_PC, self.instructions)))


_LOOP_PC_BASE = 0x1000


def _loop_slot(j: int) -> tuple[InstructionKind, ShadowKind | None, int, int]:
    """Static layout of loop body slot j: (kind, shadow, exec, resolve)."""
    if j % 11 == 7:
        return InstructionKind.LOAD, ShadowKind.M, 2, 5
    if j % 5 == 0:
        return InstructionKind.BRANCH, ShadowKind.C, 1, 4
    if j % 5 == 3:
        return InstructionKind.STORE, ShadowKind.D, 1, 3
    if j % 5 == 2:
        return InstructionKind.LOAD, None, 2, 1
    return InstructionKind.PLAIN, None, 1, 1


def gen_loop_trace(body_len: int, iterations: int, squash_rate: float, seed: int) -> Trace:
    """Generate a loop whose body repeats with identical PCs per iteration.

    A ``squash_rate`` fraction of the dynamic shadow-casting instructions
    is pre-marked to misspeculate.  Selection is reproducible: walk the
    dynamic stream in order and draw ``random.Random(seed).random()`` once
    per shadow-casting instruction; mark it when the draw is below the
    rate.

    Every instruction comes from ``instruction``, so the trace holds one
    object per body slot, and one misspeculating twin per shadow-casting
    slot, each at every position it fills.
    """
    if body_len < 1:
        raise ValueError(f"body_len must be >= 1, got {body_len}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 <= squash_rate <= 1.0:
        raise ValueError(f"squash_rate must be in [0, 1], got {squash_rate}")

    # the body, and each shadow-casting slot's misspeculating twin
    plain: list[Instruction] = []
    twins: list[tuple[int, Instruction]] = []
    for j in range(body_len):
        kind, shadow, exec_lat, res_lat = _loop_slot(j)
        slot = (_LOOP_PC_BASE + 4 * j, kind, shadow, exec_lat, res_lat)
        plain.append(instruction(*slot, False))
        if shadow is not None:
            twins.append((j, instruction(*slot, True)))
    # the unmarked loop, then the marks, drawn in stream order
    out = plain * iterations
    draw = random.Random(seed).random
    for base in range(0, len(out), body_len):
        for j, twin in twins:
            if draw() < squash_rate:
                out[base + j] = twin
    return Trace(name=f"loop-{body_len}x{iterations}-r{squash_rate}", seed=seed, instructions=out)


def parse_trace(text: str, name: str = "trace") -> Trace:
    """Parse the trace file format; round-trips with :func:`serialize_trace`."""
    instructions: list[Instruction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (6, 7):
            raise TraceFormatError(line_no, f"expected 6 or 7 fields, got {len(fields)}")
        try:
            seq = int(fields[0])
        except ValueError:
            raise TraceFormatError(line_no, f"bad seq {fields[0]!r}") from None
        try:
            pc = int(fields[1], 16)
        except ValueError:
            raise TraceFormatError(line_no, f"bad pc {fields[1]!r}") from None
        try:
            kind = InstructionKind(fields[2].upper())
        except ValueError:
            raise TraceFormatError(line_no, f"unknown kind {fields[2]!r}") from None
        shadow: ShadowKind | None
        if fields[3] == "-":
            shadow = None
        else:
            try:
                shadow = ShadowKind(fields[3].upper())
            except ValueError:
                raise TraceFormatError(line_no, f"unknown shadow class {fields[3]!r}") from None
        try:
            exec_lat = int(fields[4])
            res_lat = int(fields[5])
        except ValueError:
            raise TraceFormatError(line_no, "bad latency field") from None
        miss = False
        if len(fields) == 7:
            if fields[6].upper() != "MISS":
                raise TraceFormatError(line_no, f"unexpected trailing field {fields[6]!r}")
            miss = True
        if seq != len(instructions):
            raise TraceFormatError(line_no, f"seq {seq} out of order, expected {len(instructions)}")
        try:
            instructions.append(
                Instruction(pc, kind, shadow, exec_lat, res_lat, miss)
            )
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
    return Trace(name=name, seed=0, instructions=instructions)  # no generator seed


def serialize_trace(trace: Trace) -> str:
    """Render a trace in the file format (one instruction per line)."""
    lines = []
    for seq, ins in enumerate(trace.instructions):
        shadow = str(ins.shadow_class) if ins.shadow_class is not None else "-"
        line = f"{seq} 0x{ins.pc:x} {ins.kind} {shadow} {ins.exec_latency} {ins.resolve_latency}"
        if ins.misspeculate:
            line += " MISS"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def load_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read(), name=path)


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from squashsim.shadows import ShadowKind
from squashsim.trace import (
    Instruction,
    InstructionKind,
    Trace,
    TraceFormatError,
    gen_loop_trace,
    instruction,
    parse_trace,
    serialize_trace,
)


def test_loop_trace_no_squash_case():
    t = gen_loop_trace(body_len=4, iterations=3, squash_rate=0.0, seed=1)
    assert len(t) == 12
    pcs = [i.pc for i in t]
    assert len(set(pcs)) == 4
    for pc in set(pcs):
        assert pcs.count(pc) == 3
    assert not any(i.misspeculate for i in t)


def test_loop_trace_saturation_case():
    t = gen_loop_trace(body_len=4, iterations=3, squash_rate=1.0, seed=1)
    shadowed = [i for i in t if i.shadow_class is not None]
    assert shadowed, "loop body must contain shadow-casting slots"
    assert all(i.misspeculate for i in shadowed)
    assert not any(i.misspeculate for i in t if i.shadow_class is None)


def test_loop_trace_seeded_selection_matches_oracle():
    # independent re-implementation of the documented selection recipe
    body_len, iterations, rate, seed = 8, 100, 0.1, 7
    t = gen_loop_trace(body_len, iterations, rate, seed)
    rng = random.Random(seed)
    expected = []
    for ins in t:
        if ins.shadow_class is not None:
            expected.append(rng.random() < rate)
    actual = [i.misspeculate for i in t if i.shadow_class is not None]
    assert actual == expected
    assert sum(actual) > 0


def test_loop_trace_determinism():
    a = gen_loop_trace(8, 50, 0.3, seed=9)
    b = gen_loop_trace(8, 50, 0.3, seed=9)
    assert a.instructions == b.instructions
    c = gen_loop_trace(8, 50, 0.3, seed=10)
    assert a.instructions != c.instructions


def test_loop_trace_shares_one_object_per_slot_and_one_per_twin():
    body_len = 40
    t = gen_loop_trace(body_len, 500, 0.05, seed=7)
    assert len({id(ins) for ins in t}) <= 2 * body_len
    for j in range(body_len):  # each slot's positions hold it or its misspeculating twin
        assert len({id(ins) for ins in t.instructions[j::body_len]}) <= 2


@pytest.mark.parametrize("args, digest", [
    ((40, 50, 0.05, 7), "1dc1bbd69b70c0754fda52330a138a71a4677481b761979a9587c5f9c004f51e"),
    ((128, 40, 0.05, 0), "69f4a1102109713aa0f4d88e5fb8f06304c85fd0695e63fecb29338c10c6ed7f"),
    ((10, 40, 0.15, 31), "6ffc0e31ad3d4d30ff899ccbd8d4f9b7eee4137f963d2c3d87546bc923c1582b"),
    ((3, 5, 1.0, 2), "5f170d5b7142eeed6a3125707aa1a40502fbb600589d123e7d01e5bda75951d0"),
])
def test_loop_trace_text_is_pinned(args, digest):
    # SHA-256 of the file text, recorded before loop traces took their
    # instructions from the intern table
    assert hashlib.sha256(serialize_trace(gen_loop_trace(*args)).encode()).hexdigest() == digest


@pytest.mark.parametrize("body_len, iterations, traces, objects", [
    (40, 50, 64, 58),  # the benchmark's loop workload at seed 0
    (128, 40, 12, 186),  # its sweep workload's traces at seed 0
])
def test_loop_traces_hold_one_instruction_object_per_value(body_len, iterations, traces,
                                                          objects):
    instruction.cache_clear()
    ins = [i for seed in range(traces) for i in gen_loop_trace(body_len, iterations, 0.05, seed)]
    assert len({id(i) for i in ins}) == len(set(ins)) == objects


def _reference_loop(body_len, iterations, rate, seed):
    """The loop trace built one Instruction per position, from the slot
    layout and one draw per shadow-casting position in stream order."""
    rng = random.Random(seed)
    out = []
    for _ in range(iterations):
        for j in range(body_len):
            if j % 11 == 7:
                row = (InstructionKind.LOAD, ShadowKind.M, 2, 5)
            elif j % 5 == 0:
                row = (InstructionKind.BRANCH, ShadowKind.C, 1, 4)
            elif j % 5 == 3:
                row = (InstructionKind.STORE, ShadowKind.D, 1, 3)
            elif j % 5 == 2:
                row = (InstructionKind.LOAD, None, 2, 1)
            else:
                row = (InstructionKind.PLAIN, None, 1, 1)
            miss = row[1] is not None and rng.random() < rate
            out.append(Instruction(0x1000 + 4 * j, *row, misspeculate=miss))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 23])
@pytest.mark.parametrize("body_len, rate", [(40, 0.05), (11, 0.5), (3, 1.0)])
def test_loop_trace_equals_a_per_position_reference(body_len, rate, seed):
    t = gen_loop_trace(body_len, 60, rate, seed)
    assert t.instructions == _reference_loop(body_len, 60, rate, seed)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(body_len=0, iterations=3, squash_rate=0.0, seed=1),
        dict(body_len=4, iterations=0, squash_rate=0.0, seed=1),
        dict(body_len=4, iterations=3, squash_rate=1.5, seed=1),
        dict(body_len=4, iterations=3, squash_rate=-0.1, seed=1),
    ],
)
def test_loop_trace_rejects_bad_args(kwargs):
    with pytest.raises(ValueError):
        gen_loop_trace(**kwargs)


def test_parse_single_line():
    t = parse_trace("0 0x400 LOAD E 1 10\n")
    assert len(t) == 1
    ins = t.instructions[0]
    assert ins.pc == 0x400
    assert ins.kind is InstructionKind.LOAD
    assert ins.shadow_class is ShadowKind.E
    assert ins.exec_latency == 1
    assert ins.resolve_latency == 10
    assert not ins.misspeculate


def test_parse_empty_file():
    t = parse_trace("")
    assert len(t) == 0
    assert parse_trace("# only a comment\n\n").instructions == []


def test_parse_miss_marker_and_comments():
    text = "# header\n0 0x10 BRANCH C 1 4 MISS  # trailing comment\n1 0x14 PLAIN - 1 1\n"
    t = parse_trace(text)
    assert t.instructions[0].misspeculate
    assert not t.instructions[1].misspeculate


def test_parse_requires_each_seq_after_the_first_to_follow_on():
    with pytest.raises(TraceFormatError, match="line 2: seq 8 out of order, expected 1"):
        parse_trace("0 0x400 LOAD E 1 10\n8 0x404 PLAIN - 1 1\n")


@pytest.mark.parametrize("first", [1, 5])
def test_parse_requires_the_first_seq_to_be_0(first):
    with pytest.raises(TraceFormatError, match=f"^line 1: seq {first} out of order, expected 0$"):
        parse_trace(f"{first} 0x400 LOAD E 1 10\n{first + 1} 0x404 PLAIN - 1 1\n")


def test_roundtrip_generated_file():
    t = gen_loop_trace(10, 5, 0.4, seed=3)
    assert len(t) == 50
    text = serialize_trace(t)
    again = serialize_trace(parse_trace(text))
    assert again == text


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("0 0x400 LOAD", "line 1"),
        ("0 zz LOAD E 1 10", "bad pc"),
        ("0 0x400 FROB E 1 10", "unknown kind"),
        ("0 0x400 LOAD Q 1 10", "unknown shadow"),
        ("0 0x400 LOAD E x 10", "latency"),
        ("-1 0x400 LOAD E 1 10", "out of order"),
        ("0 0x400 LOAD E 1 10 WAT", "trailing"),
        ("0 -0x4 LOAD E 1 10", "pc must"),
        ("0 0x10 TRANSMIT C 1 1", "TRANSMIT cannot cast a shadow of class C"),
    ],
)
def test_parse_errors_name_line_and_field(line, fragment):
    with pytest.raises(TraceFormatError) as err:
        parse_trace(line + "\n")
    assert "line 1" in str(err.value)
    assert fragment.split()[0] in str(err.value) or fragment == "line 1"


def test_parse_error_names_a_bad_seq():
    with pytest.raises(TraceFormatError, match="^line 1: bad seq 'x'$"):
        parse_trace("x 0x10 PLAIN - 1 1\n")


def test_instruction_invariants():
    with pytest.raises(ValueError):
        Instruction(-4, InstructionKind.PLAIN)
    with pytest.raises(ValueError):
        Instruction(0x10, InstructionKind.TRANSMIT, ShadowKind.C)
    with pytest.raises(ValueError):
        Instruction(0x10, InstructionKind.PLAIN, ShadowKind.E)
    with pytest.raises(ValueError):
        Instruction(0x10, InstructionKind.BRANCH, ShadowKind.D)
    with pytest.raises(ValueError):
        Instruction(0x10, InstructionKind.PLAIN, misspeculate=True)
    with pytest.raises(ValueError):
        Instruction(0x10, InstructionKind.PLAIN, exec_latency=0)


@pytest.mark.parametrize("field", ["exec_latency", "resolve_latency"])
def test_latencies_are_capped_at_2_20(field):
    # the largest livelock budget: a longer latency livelocks under any budget
    assert getattr(Instruction(0x10, InstructionKind.LOAD, **{field: 2**20}), field) == 2**20
    with pytest.raises(ValueError, match=rf"{field} must be in \[1, 2\*\*20\], got 1048577"):
        Instruction(0x10, InstructionKind.LOAD, **{field: 2**20 + 1})
    line = {"exec_latency": "1 0x10 LOAD E {} 1", "resolve_latency": "1 0x10 LOAD E 1 {}"}[field]
    (_, ins) = parse_trace("0 0x10 PLAIN - 1 1\n" + line.format(2**20)).instructions
    assert getattr(ins, field) == 2**20
    with pytest.raises(TraceFormatError, match=rf"line 2: {field} must be in \[1, 2\*\*20\]"):
        parse_trace("0 0x10 PLAIN - 1 1\n" + line.format(2**20 + 1))


_KIND_SHADOW = st.sampled_from(
    [
        (InstructionKind.PLAIN, None),
        (InstructionKind.LOAD, None),
        (InstructionKind.LOAD, ShadowKind.E),
        (InstructionKind.LOAD, ShadowKind.M),
        (InstructionKind.STORE, ShadowKind.D),
        (InstructionKind.BRANCH, ShadowKind.C),
        (InstructionKind.TRANSMIT, None),
    ]
)


@st.composite
def _traces(draw):
    rows = draw(st.lists(st.tuples(_KIND_SHADOW, st.integers(0, 2**48), st.integers(1, 9),
                                   st.integers(1, 20), st.booleans()), max_size=40))
    ins = []
    for (kind, shadow), pc, ex, res, miss in rows:
        ins.append(Instruction(pc, kind, shadow, ex, res,
                               misspeculate=miss and shadow is not None))
    return Trace(name="prop", seed=0, instructions=ins)


@pytest.mark.fuzz
@given(_traces())
def test_roundtrip_property(trace):
    assert parse_trace(serialize_trace(trace)).instructions == trace.instructions

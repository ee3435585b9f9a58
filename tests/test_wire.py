"""Wire layer: 44-byte records, 256-byte frames, bit-exact round trips."""

import dataclasses
import math
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from skillbench.core import ContinuousSkillPlan, JointTarget, MotionCommand, MotionType, Pose
from skillbench.bench import compile_plans
from skillbench.plc_trigger import ContinuousMotionProgram, SkillProgram, single_motion_skills
from skillbench.robot_executor import NativeExecutor
from skillbench.wire import (
    FRAME_SIZE,
    HEADER_SIZE,
    IDLE_COMMAND_BYTES,
    IDLE_FEEDBACK_BYTES,
    RECORD_SIZE,
    SLOT_COUNT,
    BadCommandWord,
    BadStateCode,
    CommandFrame,
    CommandWord,
    DecodeError,
    FeedbackFrame,
    FrameTooLong,
    FrameTooShort,
    MalformedContinuation,
    MalformedRecord,
    MotionRecord,
    NonFiniteScalar,
    RecordCountOutOfRange,
    RobotState,
    UnencodableValue,
    UnknownMotionType,
    decode_command_frame,
    decode_command_header,
    decode_feedback_frame,
    decode_record,
    encode_command_frame,
    encode_feedback_frame,
    encode_plan,
    encode_record,
    explode_plan,
    pack_command_frame,
    slot_for_record,
    slot_image,
)
from stream_harness import f32, random_motions

DATA = Path(__file__).parent / "data"

f32s = st.floats(allow_nan=False, allow_infinity=False, width=32)

@st.composite
def records(draw):
    """Records within the codec's domain: the joint flag mirrors the motion
    type and continuation records carry a bare position."""
    mtype = draw(st.sampled_from(list(MotionType)))
    cont = mtype is MotionType.CIRCULAR and draw(st.booleans())
    if cont:
        target = draw(st.tuples(f32s, f32s, f32s)) + (0.0, 0.0, 0.0)
    else:
        target = draw(st.tuples(f32s, f32s, f32s, f32s, f32s, f32s))
    return MotionRecord(
        motion_type=mtype,
        record_seq=draw(st.integers(0, 0xFFFF)),
        target=target,
        velocity=draw(f32s),
        acceleration=draw(f32s),
        approx_distance=draw(f32s),
        tool_frame=draw(st.integers(0, 255)),
        base_frame=draw(st.integers(0, 255)),
        force_setpoint=draw(st.integers(0, 0xFFFF)),
        joint_target=mtype is MotionType.PTP_JOINT,
        continuation=cont,
    )


def sample_record(**overrides) -> MotionRecord:
    base = dict(
        motion_type=MotionType.LIN_CARTESIAN,
        record_seq=7,
        target=(1.5, -2.0, 3.25, 0.5, -0.5, 90.0),
        velocity=250.0,
        acceleration=2000.0,
        approx_distance=10.0,
        tool_frame=3,
        base_frame=9,
        force_setpoint=0x1234,
    )
    base.update(overrides)
    return MotionRecord(**base)


# --- record codec -------------------------------------------------------------


def test_record_is_44_bytes():
    assert len(encode_record(sample_record())) == RECORD_SIZE == 44


def test_record_field_offsets():
    """Layout check against the documented byte offsets, not the codec."""
    data = encode_record(sample_record())
    assert data[0] == 1  # LIN
    assert data[1] == 0  # no flags
    assert struct.unpack_from("<H", data, 2)[0] == 7
    assert struct.unpack_from("<6f", data, 4) == (1.5, -2.0, 3.25, 0.5, -0.5, 90.0)
    assert struct.unpack_from("<f", data, 28)[0] == 250.0
    assert struct.unpack_from("<f", data, 32)[0] == 2000.0
    assert struct.unpack_from("<f", data, 36)[0] == 10.0
    assert data[40] == 3
    assert data[41] == 9
    assert struct.unpack_from("<H", data, 42)[0] == 0x1234


def test_record_flag_bits():
    joint = encode_record(sample_record(joint_target=True))
    cont = encode_record(sample_record(continuation=True))
    both = encode_record(sample_record(joint_target=True, continuation=True))
    assert joint[1] == 0x01
    assert cont[1] == 0x02
    assert both[1] == 0x03


@given(records())
def test_record_round_trip(rec):
    data = encode_record(rec)
    assert len(data) == RECORD_SIZE
    decoded = decode_record(data)
    assert decoded == rec and same_types(decoded, rec)


def test_record_seq_must_fit_u16():
    with pytest.raises(UnencodableValue):
        encode_record(sample_record(record_seq=0x10000))


def test_record_rejects_nonfinite_floats():
    for bad in (math.inf, -math.inf, math.nan, 3.5e38, -1e39):
        with pytest.raises(UnencodableValue, match="not representable as f32"):
            encode_record(sample_record(velocity=bad))
        with pytest.raises(UnencodableValue, match="not representable as f32"):
            encode_record(sample_record(target=(0.0, bad, 0.0, 0.0, 0.0, 0.0)))


def test_decode_rejects_wrong_length():
    with pytest.raises(FrameTooShort):
        decode_record(b"\x00" * 43)
    with pytest.raises(FrameTooLong):
        decode_record(b"\x00" * 45)


def test_decode_rejects_reserved_flag_bits():
    data = bytearray(encode_record(sample_record()))
    data[1] = 0x04
    with pytest.raises(MalformedRecord):
        decode_record(bytes(data))


def test_decode_rejects_joint_flag_mismatch():
    data = bytearray(encode_record(sample_record()))
    data[1] = 0x01  # joint flag on a LIN record
    with pytest.raises(MalformedRecord):
        decode_record(bytes(data))


def test_decode_rejects_continuation_with_orientation():
    data = bytearray(encode_record(sample_record(motion_type=MotionType.CIRCULAR)))
    data[1] = 0x02  # continuation, but orientation floats are nonzero
    with pytest.raises(MalformedContinuation):
        decode_record(bytes(data))


def test_decode_rejects_unknown_motion_type():
    data = bytearray(encode_record(sample_record()))
    for bad in (0, 7, 255):
        data[0] = bad
        with pytest.raises(UnknownMotionType):
            decode_record(bytes(data))


def test_decode_rejects_nonfinite_scalar():
    data = bytearray(encode_record(sample_record()))
    struct.pack_into("<f", data, 28, float("nan"))  # velocity
    with pytest.raises(NonFiniteScalar):
        decode_record(bytes(data))


# the nine f32 scalars: six target components, velocity, acceleration and
# approx_distance
SCALAR_OFFSETS = range(4, 40, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("offset", SCALAR_OFFSETS)
def test_decode_names_each_nonfinite_scalar(offset, bad):
    data = bytearray(encode_record(sample_record()))
    struct.pack_into("<f", data, offset, bad)
    with pytest.raises(NonFiniteScalar) as exc:
        decode_record(bytes(data))
    assert str(exc.value) == f"non-finite scalar {bad!r}"


@pytest.mark.parametrize("first, second", [(4, 36), (12, 16), (28, 32)])
def test_decode_names_the_first_of_two_nonfinite_scalars(first, second):
    data = bytearray(encode_record(sample_record()))
    struct.pack_into("<f", data, first, -math.inf)
    struct.pack_into("<f", data, second, math.nan)
    with pytest.raises(NonFiniteScalar, match=r"^non-finite scalar -inf$"):
        decode_record(bytes(data))


def continuation_image(orientation):
    data = bytearray(encode_record(sample_record(motion_type=MotionType.CIRCULAR)))
    data[1] = 0x02
    struct.pack_into("<3f", data, 16, *orientation)
    return bytes(data)


@pytest.mark.parametrize("axis", range(3), ids=["a", "b", "c"])
def test_decode_rejects_each_orientation_slot_of_a_continuation(axis):
    orientation = [0.0, 0.0, 0.0]
    orientation[axis] = 0.5
    with pytest.raises(
        MalformedContinuation, match="continuation record carries orientation data"
    ):
        decode_record(continuation_image(orientation))


def test_decode_accepts_a_continuation_with_negative_zero_orientation():
    rec = decode_record(continuation_image((-0.0, -0.0, -0.0)))
    assert rec.continuation and rec.target[3:] == (0.0, 0.0, 0.0)
    assert [math.copysign(1.0, v) for v in rec.target[3:]] == [-1.0] * 3
    assert_same_as_validated(rec)


@given(f32s)
def test_f32_quantization_is_idempotent(x):
    assert f32(f32(x)) == f32(x)


def test_slot_for_record_cycles_over_five():
    assert [slot_for_record(m) for m in range(1, 12)] == [
        0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0,
    ]
    with pytest.raises(ValueError):
        slot_for_record(0)


# --- motion explosion ---------------------------------------------------------


def lin(x, y, z, approx=0.0):
    return MotionCommand(
        motion_type=MotionType.LIN_CARTESIAN,
        target=Pose(x, y, z),
        velocity=250.0,
        acceleration=2000.0,
        approx_distance=approx,
    )


def test_explode_single_motion():
    motion = lin(1.0, 2.0, 3.0, approx=5.0)
    (image,) = encode_plan([motion])
    (rec,) = explode_plan([motion])
    assert decode_record(image) == rec
    assert rec.record_seq == 1
    assert rec.target[:3] == (1.0, 2.0, 3.0)
    assert rec.approx_distance == 5.0
    assert not rec.continuation and image[1] == 0


def test_explode_circular_yields_continuation_pair():
    circ = MotionCommand(
        motion_type=MotionType.CIRCULAR,
        target=Pose(10.0, 0.0, 0.0),
        velocity=100.0,
        acceleration=1000.0,
        aux_point=(5.0, 5.0, 0.0),
    )
    motions = [lin(1.0, 0.0, 0.0), lin(2.0, 0.0, 0.0), lin(3.0, 0.0, 0.0), circ]
    images = encode_plan(motions)
    recs = explode_plan(motions)[3:]
    assert [r.record_seq for r in recs] == [4, 5]
    assert recs[0].continuation and not recs[1].continuation
    assert [images[3][1], images[4][1]] == [0x02, 0x00]
    assert recs[0].target == (5.0, 5.0, 0.0, 0.0, 0.0, 0.0)
    assert recs[1].target[:3] == (10.0, 0.0, 0.0)
    assert {r.motion_type for r in recs} == {MotionType.CIRCULAR}


def test_explode_joint_motion_sets_flag():
    ptp = MotionCommand(
        motion_type=MotionType.PTP_JOINT,
        target=JointTarget(10.0, -20.0, 30.0),
        velocity=180.0,
        acceleration=720.0,
    )
    (image,) = encode_plan([ptp])
    (rec,) = explode_plan([ptp])
    assert image[1] == 0x01 and rec.joint_target
    assert rec.target == (10.0, -20.0, 30.0, 0.0, 0.0, 0.0)


def test_record_seq_wraps_modulo_65536():
    images = encode_plan([lin(0.0, 0.0, 1.0)] * 0x10001)
    assert [struct.unpack_from("<H", b, 2)[0] for b in images[0xFFFE:]] == [0xFFFF, 0, 1]


def test_explode_quantizes_to_f32():
    motion = lin(0.1, 0.2, 0.3)
    (rec,) = explode_plan([motion])
    assert rec.target[:3] == (f32(0.1), f32(0.2), f32(0.3))
    assert encode_plan([motion]) == [encode_record(rec)]


@pytest.mark.parametrize(
    "record, motion, message",
    [
        (
            3,
            MotionCommand(MotionType.LIN_CARTESIAN, Pose(3.0, 0.0, 0.0), 1e39, 2000.0),
            "scalar 1e+39 not representable as f32",
        ),
        (3, lin(3.0, -4e38, 0.0), "scalar -4e+38 not representable as f32"),
        (
            7,
            MotionCommand(
                MotionType.LIN_FORCE, Pose(7.0, 0.0, 0.0), 250.0, 2000.0, force_setpoint=70000
            ),
            "force_setpoint 70000 does not fit u16",
        ),
    ],
    ids=["velocity", "target", "force"],
)
def test_unencodable_plans_fail_before_start(record, motion, message):
    motions = [lin(float(x), 0.0, 0.0) for x in range(1, 9)]
    motions[record - 1] = motion
    plan = ContinuousSkillPlan(motions)
    with pytest.raises(UnencodableValue, match=re.escape(message)):
        explode_plan(plan.motions)
    builds = (
        ContinuousMotionProgram,
        lambda plans: SkillProgram(single_motion_skills(plans)),
        NativeExecutor,
        compile_plans,
    )
    for build in builds:
        with pytest.raises(UnencodableValue, match=re.escape(message)):
            build([plan])


# scalars at the edges of the f32 rounding: signed zeros, f32 subnormals,
# doubles below the smallest f32 subnormal (they round to a signed zero),
# ints and a bool
ODD_SCALARS = (-0.0, 0.0, 1e-45, -1e-45, 1e-40, -3e-39, 5e-324, -1e-300, 7, -3, True)
ODD_POSITIVE = (1e-45, 1e-40, 5e-324, 7, True)


def odd_target(rng, target):
    """``target`` with a few of its components replaced by ``ODD_SCALARS``."""
    components = list(target.components())
    for i in rng.sample(range(6), rng.randint(1, 3)):
        components[i] = rng.choice(ODD_SCALARS)
    return type(target)(*components)


def wire_motions(rng):
    """Random motions (``random_motions``: LIN, PTP_JOINT and circular
    pairs) with random frame ids, about half the LINs turned LIN_FORCE with
    a random setpoint, and some fields drawn from the odd values above or
    given as bools."""
    motions = []
    for m in random_motions(rng, rng.randint(1, 30)):
        fields = dict(tool_frame=rng.randrange(256), base_frame=rng.randrange(256))
        if rng.random() < 0.2:
            fields.update(tool_frame=rng.random() < 0.5, base_frame=rng.random() < 0.5)
        if m.motion_type is MotionType.LIN_CARTESIAN and rng.random() < 0.5:
            force = rng.choice((rng.randrange(0x10000), 0xFFFF, True, False))
            fields.update(motion_type=MotionType.LIN_FORCE, force_setpoint=force)
        if rng.random() < 0.3:
            fields.update(
                target=odd_target(rng, m.target),
                velocity=rng.choice(ODD_POSITIVE),
                acceleration=rng.choice((*ODD_POSITIVE, m.acceleration)),
                approx_distance=rng.choice((-0.0, 0.0, 1e-40, 5e-324, 2)),
            )
        motions.append(dataclasses.replace(m, **fields))
    return motions


@given(st.integers(0, 2**32 - 1))
def test_plan_images_carry_the_motion_fields(seed):
    """Every image of ``encode_plan`` round-trips through the record codec
    and holds the fields of its motion, rounded to f32."""
    motions = wire_motions(random.Random(seed))
    expected = []
    for m in motions:
        dynamics = (f32(m.velocity), f32(m.acceleration), f32(m.approx_distance))
        frames = (m.tool_frame, m.base_frame)
        if m.aux_point is not None:
            aux = tuple(map(f32, m.aux_point)) + (0.0, 0.0, 0.0)
            expected.append((m.motion_type, aux, *dynamics, *frames, 0, False, True))
        target = tuple(map(f32, m.target.components()))
        joint = isinstance(m.target, JointTarget)
        expected.append((m.motion_type, target, *dynamics, *frames, m.force_setpoint, joint, False))
    images = encode_plan(motions)
    decoded = []
    for seq, image in enumerate(images, 1):
        rec = decode_record(image)
        assert encode_record(rec) == image
        assert rec.record_seq == seq
        decoded.append(
            (
                rec.motion_type,
                rec.target,
                rec.velocity,
                rec.acceleration,
                rec.approx_distance,
                rec.tool_frame,
                rec.base_frame,
                rec.force_setpoint,
                rec.joint_target,
                rec.continuation,
            )
        )
    assert decoded == expected


def exact(rec):
    """The record's type, then the type and repr of each field and target
    component: equal only for equal values of equal types, down to the
    sign of a zero."""
    return [type(rec)] + [(type(v), repr(v)) for v in (*rec, *rec.target)]


@given(st.integers(0, 2**32 - 1))
def test_explode_plan_is_the_decoded_images(seed):
    """``explode_plan`` packs no image, yet gives exactly the records that
    decoding ``encode_plan``'s images gives."""
    motions = wire_motions(random.Random(seed))
    expected = [decode_record(b) for b in encode_plan(motions)]
    got = explode_plan(motions)
    assert got == expected
    assert list(map(exact, got)) == list(map(exact, expected))


def test_explode_plan_gives_the_wire_types():
    """A bool frame id or force setpoint comes out as an int and an int
    scalar as a float, as decoding the image gives them."""
    force = MotionCommand(
        MotionType.LIN_FORCE,
        Pose(1, -2, 0),
        250,
        2000,
        tool_frame=True,
        base_frame=False,
        force_setpoint=True,
    )
    joint = MotionCommand(MotionType.PTP_JOINT, JointTarget(3, -0.0, 1e-40), 180, 720)
    recs = explode_plan([force, joint])
    decoded = map(decode_record, encode_plan([force, joint]))
    assert list(map(exact, recs)) == list(map(exact, decoded))
    rec, jrec = recs
    assert [(type(v), v) for v in (rec.tool_frame, rec.base_frame, rec.force_setpoint)] == [
        (int, 1),
        (int, 0),
        (int, 1),
    ]
    scalars = (*rec.target, rec.velocity, rec.acceleration, rec.approx_distance)
    assert {type(v) for v in scalars} == {float}
    assert repr(jrec.target) == repr((3.0, -0.0, f32(1e-40), 0.0, 0.0, 0.0))


def test_explode_plan_numbers_past_65535_as_the_images_do():
    circ = MotionCommand(
        motion_type=MotionType.CIRCULAR,
        target=Pose(4.0, 0.0, 0.0),
        velocity=100.0,
        acceleration=1000.0,
        aux_point=(2.0, 2.0, 0.0),
    )
    # the circular pair straddles the wrap: its target is record 65536
    motions = [lin(0.0, 0.0, 1.0)] * 0xFFFE + [circ] + [lin(5.0, 0.0, 0.0)] * 2
    recs = explode_plan(motions)
    assert [(r.record_seq, r.continuation) for r in recs[0xFFFD:]] == [
        (0xFFFE, False),
        (0xFFFF, True),
        (0, False),
        (1, False),
        (2, False),
    ]
    assert recs == [decode_record(b) for b in encode_plan(motions)]


def force_lin(x, setpoint):
    return MotionCommand(
        MotionType.LIN_FORCE, Pose(x, 0.0, 0.0), 250.0, 2000.0, force_setpoint=setpoint
    )


def too_fast(x):
    return MotionCommand(MotionType.LIN_CARTESIAN, Pose(x, 0.0, 0.0), 1e39, 2000.0)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({3: force_lin(3.0, 70000), 5: too_fast(5.0)}, "force_setpoint 70000 does not fit u16"),
        ({3: too_fast(3.0), 5: force_lin(5.0, 70000)}, "scalar 1e+39 not representable as f32"),
        (
            # the continuation record comes first, and is checked first
            {
                3: MotionCommand(
                    MotionType.CIRCULAR,
                    Pose(-4e38, 0.0, 0.0),
                    100.0,
                    1000.0,
                    aux_point=(5e38, 0.0, 0.0),
                ),
                5: force_lin(5.0, 70000),
            },
            "scalar 5e+38 not representable as f32",
        ),
    ],
    ids=["force-then-velocity", "velocity-then-force", "aux-then-target"],
)
def test_every_path_names_the_first_of_two_bad_records(bad, message):
    motions = [bad.get(k, lin(float(k), 0.0, 0.0)) for k in range(1, 9)]
    builds = (encode_plan, explode_plan, lambda ms: NativeExecutor([ContinuousSkillPlan(ms)]))
    for build in builds:
        with pytest.raises(UnencodableValue) as raised:
            build(motions)
        assert str(raised.value) == message


F32_LARGEST = struct.unpack("<f", b"\xff\xff\x7f\x7f")[0]
BEYOND_F32 = math.nextafter(3.4028235e38, math.inf)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["max", "lowest"])
def test_the_f32_limit_is_exactly_3_4028235e38(sign):
    """The range check's limit, not ``struct``'s rounding, decides: both
    values below pack without error as the largest f32, but only the first
    is accepted, by every path that packs a scalar."""
    at, beyond = sign * 3.4028235e38, sign * BEYOND_F32
    assert struct.unpack("<2f", struct.pack("<2f", at, beyond)) == (sign * F32_LARGEST,) * 2

    def plan(x):
        return [lin(1.0, 0.0, 0.0), lin(x, 0.0, 0.0), lin(2.0, 0.0, 0.0)]

    recs = explode_plan(plan(at))
    assert recs == [decode_record(b) for b in encode_plan(plan(at))]
    assert recs[1].target[0] == sign * F32_LARGEST
    fields = (RobotState.RUNNING, 0, 1, 1, (0.0, at, 0.0, 0.0, 0.0, 0.0))
    frame = decode_feedback_frame(encode_feedback_frame(FeedbackFrame._make(fields)))
    assert frame.pose[1] == sign * F32_LARGEST

    for build in (encode_plan, explode_plan):
        with pytest.raises(UnencodableValue) as raised:
            build(plan(beyond))
        assert str(raised.value) == f"scalar {beyond!r} not representable as f32"
    fields = (RobotState.RUNNING, 0, 1, 1, (0.0, beyond, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(UnencodableValue) as raised:
        encode_feedback_frame(FeedbackFrame._make(fields))
    assert str(raised.value) == f"pose component {beyond!r} not representable as f32"


def test_explode_plan_numbers_consecutively():
    circ = MotionCommand(
        motion_type=MotionType.CIRCULAR,
        target=Pose(4.0, 0.0, 0.0),
        velocity=100.0,
        acceleration=1000.0,
        aux_point=(2.0, 2.0, 0.0),
    )
    recs = explode_plan([lin(1.0, 0.0, 0.0), circ, lin(5.0, 0.0, 0.0)])
    assert [r.record_seq for r in recs] == [1, 2, 3, 4]


# --- frame codecs -------------------------------------------------------------

slot_images = st.binary(min_size=RECORD_SIZE, max_size=RECORD_SIZE)

command_frames = st.builds(
    CommandFrame,
    command=st.sampled_from(list(CommandWord)),
    record_count=st.integers(0, SLOT_COUNT),
    total_no=st.integers(0, 0xFFFFFFFF),
    loaded_through=st.just(0),
    frame_seq=st.integers(0, 0xFFFF),
    slots=st.tuples(*[slot_images] * SLOT_COUNT),
)

feedback_frames = st.builds(
    FeedbackFrame,
    state=st.sampled_from(list(RobotState)),
    error_code=st.integers(0, 255),
    cur_exec=st.integers(0, 0xFFFFFFFF),
    acked_seq=st.integers(0, 0xFFFF),
    pose=st.tuples(f32s, f32s, f32s, f32s, f32s, f32s),
)


def test_frames_are_256_bytes():
    assert len(IDLE_COMMAND_BYTES) == FRAME_SIZE == 256
    assert len(IDLE_FEEDBACK_BYTES) == FRAME_SIZE == 256


def test_idle_images_are_all_zero_headers():
    assert IDLE_COMMAND_BYTES[:HEADER_SIZE] == bytes(HEADER_SIZE)
    assert IDLE_FEEDBACK_BYTES == bytes(FRAME_SIZE)
    # each packing is a new object, which the loop tells apart by identity
    packed = pack_command_frame(CommandWord.IDLE, 0, 0, 0, 0, ())
    assert packed == IDLE_COMMAND_BYTES and packed is not IDLE_COMMAND_BYTES


def test_command_frame_field_offsets():
    frame = CommandFrame(
        command=CommandWord.START,
        record_count=3,
        total_no=11,
        loaded_through=3,
        frame_seq=0xBEEF,
    )
    data = encode_command_frame(frame)
    assert data[0] == int(CommandWord.START)
    assert data[1] == 3
    assert struct.unpack_from("<I", data, 2)[0] == 11
    assert struct.unpack_from("<I", data, 6)[0] == 3
    assert struct.unpack_from("<H", data, 10)[0] == 0xBEEF
    assert data[HEADER_SIZE:] == bytes(FRAME_SIZE - HEADER_SIZE)


def test_feedback_frame_field_offsets():
    frame = FeedbackFrame(
        state=RobotState.RUNNING,
        error_code=2,
        cur_exec=9,
        acked_seq=0xCAFE,
        pose=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    )
    data = encode_feedback_frame(frame)
    assert data[0] == int(RobotState.RUNNING)
    assert data[1] == 2
    assert struct.unpack_from("<I", data, 2)[0] == 9
    assert struct.unpack_from("<H", data, 6)[0] == 0xCAFE
    assert struct.unpack_from("<6f", data, 8) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert data[32:] == bytes(FRAME_SIZE - 32)


U8, U16, U32 = 0xFF, 0xFFFF, 0xFFFFFFFF
SLOT = bytes(RECORD_SIZE)


def field_id(fields):
    """Test id: each int field's value, the pose's length, each slot's size."""
    parts = []
    for name, value in fields.items():
        if name == "slots":
            value = "+".join(str(len(s)) for s in value)
        elif name == "pose":
            value = len(value)
        parts.append(f"{name}={value}")
    return ",".join(parts)


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (FeedbackFrame, dict(state=6), "6 is not a valid RobotState"),
        (FeedbackFrame, dict(state=-1), "-1 is not a valid RobotState"),
        (FeedbackFrame, dict(error_code=U8 + 1), "error_code does not fit u8"),
        (FeedbackFrame, dict(error_code=-1), "error_code does not fit u8"),
        (FeedbackFrame, dict(cur_exec=U32 + 1), "curExec does not fit u32"),
        (FeedbackFrame, dict(cur_exec=-1), "curExec does not fit u32"),
        (FeedbackFrame, dict(acked_seq=U16 + 1), "acked_seq does not fit u16"),
        (FeedbackFrame, dict(acked_seq=-1), "acked_seq does not fit u16"),
        (FeedbackFrame, dict(pose=(0.0,) * 5), "pose needs six components"),
        (FeedbackFrame, dict(pose=(0.0,) * 7), "pose needs six components"),
        (CommandFrame, dict(command=3), "3 is not a valid CommandWord"),
        (CommandFrame, dict(command=-1), "-1 is not a valid CommandWord"),
        (CommandFrame, dict(record_count=SLOT_COUNT + 1), "record_count 6 out of 0..5"),
        (CommandFrame, dict(record_count=-1), "record_count -1 out of 0..5"),
        (CommandFrame, dict(total_no=U32 + 1), "totalNo does not fit u32"),
        (CommandFrame, dict(total_no=-1), "totalNo does not fit u32"),
        (CommandFrame, dict(total_no=4, loaded_through=5), "loadedThrough must be within"),
        (CommandFrame, dict(total_no=4, loaded_through=-1), "loadedThrough must be within"),
        (CommandFrame, dict(frame_seq=U16 + 1), "frame_seq does not fit u16"),
        (CommandFrame, dict(frame_seq=-1), "frame_seq does not fit u16"),
        (CommandFrame, dict(slots=(SLOT,) * 4), "slots must be 5 images of 44 bytes"),
        (CommandFrame, dict(slots=(SLOT,) * 6), "slots must be 5 images of 44 bytes"),
        (CommandFrame, dict(slots=(SLOT,) * 4 + (SLOT[1:],)), "slots must be 5 images of"),
        (CommandFrame, dict(slots=(SLOT + b"\0",) + (SLOT,) * 4), "slots must be 5 images of"),
    ],
    ids=lambda v: field_id(v) if isinstance(v, dict) else None,
)
def test_frame_constructors_reject_fields_beyond_the_wire(cls, fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        cls(**fields)


def test_frame_constructors_accept_the_wire_limits_and_coerce():
    """Each field at the edge of its wire range is accepted, an enum code
    becomes its member, a pose becomes six floats and the slots five
    ``bytes``, each in a tuple."""
    fb = FeedbackFrame(5, U8, U32, U16, [1, 2, 3, 4, 5, True])
    assert (fb.state, fb.error_code, fb.cur_exec, fb.acked_seq, fb.pose) == (
        RobotState.ABORTING,
        U8,
        U32,
        U16,
        (1.0, 2.0, 3.0, 4.0, 5.0, 1.0),
    )
    assert type(fb.state) is RobotState and type(fb.pose) is tuple
    assert {type(v) for v in fb.pose} == {float}

    top = b"\x01" * RECORD_SIZE
    cmd = CommandFrame(2, SLOT_COUNT, U32, U32, U16, [bytearray(SLOT)] * 4 + [top])
    fields = (cmd.command, cmd.record_count, cmd.total_no, cmd.loaded_through, cmd.frame_seq)
    assert fields == (CommandWord.ABORT, SLOT_COUNT, U32, U32, U16)
    assert cmd.slots == (SLOT,) * 4 + (top,)
    assert type(cmd.command) is CommandWord and type(cmd.slots) is tuple
    assert {type(s) for s in cmd.slots} == {bytes}


@given(command_frames, st.integers(0, 200))
def test_command_frame_round_trip(frame, extra_total):
    # loaded_through must stay within total_no; rebuild with a valid pair
    frame = CommandFrame(
        command=frame.command,
        record_count=frame.record_count,
        total_no=frame.total_no,
        loaded_through=min(frame.total_no, extra_total),
        frame_seq=frame.frame_seq,
        slots=frame.slots,
    )
    data = encode_command_frame(frame)
    assert len(data) == FRAME_SIZE
    decoded = decode_command_frame(data)
    assert decoded == frame and same_types(decoded, frame)


@given(feedback_frames)
def test_feedback_frame_round_trip(frame):
    data = encode_feedback_frame(frame)
    assert len(data) == FRAME_SIZE
    decoded = decode_feedback_frame(data)
    assert decoded == frame and same_types(decoded, frame)


def test_frame_length_policing():
    with pytest.raises(FrameTooShort):
        decode_command_frame(IDLE_COMMAND_BYTES[:-1])
    with pytest.raises(FrameTooLong):
        decode_command_frame(IDLE_COMMAND_BYTES + b"\x00")
    with pytest.raises(FrameTooShort):
        decode_feedback_frame(b"")
    with pytest.raises(FrameTooLong):
        decode_feedback_frame(IDLE_FEEDBACK_BYTES + b"\x00")


def test_decode_rejects_bad_command_word():
    data = bytearray(IDLE_COMMAND_BYTES)
    data[0] = 99
    with pytest.raises(BadCommandWord):
        decode_command_frame(bytes(data))


def test_decode_rejects_bad_state_code():
    data = bytearray(IDLE_FEEDBACK_BYTES)
    data[0] = 99
    with pytest.raises(BadStateCode):
        decode_feedback_frame(bytes(data))


def test_decode_rejects_record_count_overflow():
    data = bytearray(IDLE_COMMAND_BYTES)
    data[1] = SLOT_COUNT + 1
    with pytest.raises(RecordCountOutOfRange):
        decode_command_frame(bytes(data))


def test_decode_rejects_loaded_beyond_total():
    data = bytearray(IDLE_COMMAND_BYTES)
    struct.pack_into("<I", data, 2, 4)  # totalNo
    struct.pack_into("<I", data, 6, 5)  # loadedThrough
    with pytest.raises(DecodeError):
        decode_command_frame(bytes(data))


def test_feedback_decode_rejects_nonfinite_pose():
    data = bytearray(IDLE_FEEDBACK_BYTES)
    struct.pack_into("<f", data, 8, float("inf"))
    with pytest.raises(NonFiniteScalar):
        decode_feedback_frame(bytes(data))


# the six f32 pose components of a feedback frame
POSE_OFFSETS = range(8, 32, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("offset", POSE_OFFSETS)
def test_feedback_decode_names_each_nonfinite_pose_component(offset, bad):
    data = bytearray(encode_feedback_frame(FeedbackFrame(pose=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))))
    struct.pack_into("<f", data, offset, bad)
    with pytest.raises(NonFiniteScalar) as exc:
        decode_feedback_frame(bytes(data))
    assert str(exc.value) == f"non-finite pose component {bad!r}"


@pytest.mark.parametrize("first, second", [(8, 28), (12, 16), (20, 24)])
def test_feedback_decode_names_the_first_of_two_nonfinite_pose_components(first, second):
    data = bytearray(IDLE_FEEDBACK_BYTES)
    struct.pack_into("<f", data, first, -math.inf)
    struct.pack_into("<f", data, second, math.nan)
    with pytest.raises(NonFiniteScalar, match=r"^non-finite pose component -inf$"):
        decode_feedback_frame(bytes(data))


# --- fast paths against the validated ones ----------------------------------


def outcome_of(fn, *args):
    """``fn``'s return value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


@st.composite
def corrupted(draw, images):
    """An image of ``images``, then some bytes overwritten, the image
    truncated or extended, or left as is."""
    data = bytearray(draw(images))
    how = draw(st.sampled_from(("keep", "poke", "poke-header", "truncate", "extend")))
    if how.startswith("poke"):
        end = HEADER_SIZE if how == "poke-header" else len(data)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, end - 1))] = draw(st.integers(0, 255))
    elif how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif how == "extend":
        data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


valid_command_images = st.builds(
    lambda frame, loaded: encode_command_frame(
        CommandFrame(**{**frame._asdict(), "loaded_through": min(frame.total_no, loaded)})
    ),
    command_frames,
    st.integers(0, 200),
)


@given(corrupted(valid_command_images))
def test_header_decoder_agrees_with_frame_decoder(data):
    header = outcome_of(decode_command_header, data)
    frame = outcome_of(decode_command_frame, data)
    if isinstance(frame, CommandFrame):
        assert header == (
            frame.command,
            frame.record_count,
            frame.total_no,
            frame.loaded_through,
            frame.frame_seq,
        )
        assert type(header.command) is CommandWord
        # the decoded frame is what the validated constructor builds
        assert_same_as_validated(frame)
        assert frame.slots == tuple(slot_image(data, m) for m in range(1, SLOT_COUNT + 1))
    else:
        assert header == frame


def same_types(a, b):
    """``a`` and ``b`` are of one class and each field of one type: a named
    tuple compares equal to any tuple of equal values, whatever its class."""
    return type(a) is type(b) and [type(v) for v in a] == [type(v) for v in b]


def assert_same_as_validated(obj):
    """``obj`` equals, hashes and prints like the same fields passed through
    its class's validating constructor, and has the same types."""
    built = type(obj)(**obj._asdict())
    assert obj == built and built == obj
    assert same_types(obj, built)
    assert hash(obj) == hash(built)
    assert repr(obj) == repr(built)


@given(records())
def test_decoded_records_equal_constructed_ones(rec):
    decoded = decode_record(encode_record(rec))
    assert decoded == rec and hash(decoded) == hash(rec)
    assert same_types(decoded, rec) and repr(decoded) == repr(rec)


@given(corrupted(st.builds(encode_record, records())))
def test_decoded_corrupted_records_equal_constructed_ones(data):
    rec = outcome_of(decode_record, data)
    if isinstance(rec, MotionRecord):
        assert_same_as_validated(rec)
        assert encode_record(rec) == data


@given(corrupted(st.builds(encode_feedback_frame, feedback_frames)))
def test_decoded_feedback_equals_constructed_frames(data):
    frame = outcome_of(decode_feedback_frame, data)
    if isinstance(frame, FeedbackFrame):
        assert_same_as_validated(frame)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, 3.5e38])
def test_feedback_encode_rejects_pose_outside_f32(bad):
    pose = (0.0, 1.0, bad, 0.0, 0.0, 0.0)
    with pytest.raises(UnencodableValue, match="pose component"):
        encode_feedback_frame(FeedbackFrame(pose=pose))


@pytest.mark.parametrize("big", [10**39, 10**400, -(10**400)], ids=["1e39", "1e400", "-1e400"])
def test_pack_rejects_ints_beyond_f32(big):
    # 10**400 is beyond the double range too: the check compares it
    # exactly instead of converting it to a float.  ``_make`` skips the
    # frame's float coercion, which would raise OverflowError first
    pose = (big,) + (0.0,) * 5
    with pytest.raises(UnencodableValue, match="pose component"):
        encode_feedback_frame(FeedbackFrame._make((RobotState.RUNNING, 0, 1, 1, pose)))
    with pytest.raises(UnencodableValue, match="scalar"):
        encode_record(MotionRecord(MotionType.LIN_CARTESIAN, 1, pose, 1.0, 1.0, 0.0))


record_images = st.binary(min_size=RECORD_SIZE, max_size=RECORD_SIZE)


@st.composite
def command_fields(draw):
    """In-range command fields, as a ``CommandFrame`` holds them, with 0 to
    5 given slots."""
    total = draw(st.integers(0, 0xFFFFFFFF))
    return (
        draw(st.sampled_from(list(CommandWord))),
        draw(st.integers(0, SLOT_COUNT)),
        total,
        draw(st.integers(0, total)),
        draw(st.integers(0, 0xFFFF)),
        tuple(draw(st.lists(record_images, max_size=SLOT_COUNT))),
    )


@given(command_fields())
@example((CommandWord.IDLE, 0, 0, 0, 0, ()))
@example((CommandWord.START, 5, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, (b"\xff" * RECORD_SIZE,) * 5))
def test_packed_command_equals_encoded_frame(fields):
    *header, given_slots = fields
    slots = given_slots + (bytes(RECORD_SIZE),) * (SLOT_COUNT - len(given_slots))
    packed = pack_command_frame(*fields)
    assert packed == encode_command_frame(CommandFrame(*header, slots))
    # the decoder reads the header and the slots; the rest is zero padding
    assert decode_command_frame(packed) == CommandFrame(*header, slots)
    assert packed[HEADER_SIZE + SLOT_COUNT * RECORD_SIZE :] == bytes(24)


# --- golden fixtures ----------------------------------------------------------


def _fixture_lines(name):
    return [
        line
        for line in (DATA / name).read_text().splitlines()
        if line and not line.startswith("#")
    ]


def test_golden_scenario_records_unchanged():
    from skillbench.bench import SETUP_A, build_plans

    plans = build_plans(SETUP_A)
    recs = [r for p in plans for r in explode_plan(p.motions)]
    assert [encode_record(r).hex() for r in recs] == _fixture_lines(
        "golden_records.hex"
    )


def test_golden_frames_unchanged():
    from skillbench.bench import SETUP_A, build_plans
    from skillbench.plc_trigger import PlcSkillInstance

    plans = build_plans(SETUP_A)
    plc = PlcSkillInstance()
    plc.start_images(encode_plan(plans[1].motions))
    cmd_line, fb_line = _fixture_lines("golden_frames.hex")
    assert plc.image.hex() == cmd_line
    fb = FeedbackFrame(
        state=RobotState.RUNNING,
        error_code=0,
        cur_exec=3,
        acked_seq=1,
        pose=(300.0, 0.0, 30.0, 0.0, 0.0, 0.0),
    )
    assert encode_feedback_frame(fb).hex() == fb_line
    # and the fixture decodes back to the same frame
    assert decode_feedback_frame(bytes.fromhex(fb_line)) == fb

"""Bit-exact wire images for the cyclic PLC<->robot interface.

Everything on the wire is little-endian and fixed size: a motion record is
exactly 44 bytes, and both process images (command and feedback) are exactly
256 bytes.  Floats are IEEE-754 single precision.

Motions become record bytes in one place, ``_plan_image``: it numbers a
plan's records, rounds each float to the nearest f32 as it packs them all
at once, and rejects values beyond the f32 range.  The skills a PLC copies
and the program a robot stores are two views of that one image:
``encode_plan`` cuts it into 44-byte record images, and ``explode_plan``
unpacks it into ``MotionRecord``s, so they carry exactly the numbers the
wire delivers.  A tier-1 property in ``tests/test_wire.py`` holds them
equal, field for field and type for type, to the decoded images of
``encode_plan``.

Motion record layout (44 bytes):

    off  size  field
    0    1     motion type code (1..6)
    1    1     flags: bit0 joint-space target, bit1 aux continuation
    2    2     record_seq (u16, global record index mod 65536)
    4    24    six f32 target components (x,y,z,a,b,c or j1..j6)
    28   4     f32 velocity
    32   4     f32 acceleration
    36   4     f32 approx_distance
    40   1     tool frame id
    41   1     base frame id
    42   2     u16 force setpoint (deci-newtons)

Command frame layout (256 bytes): 12-byte header (command word u8,
record_count u8, totalNo u32, loadedThrough u32, frame_seq u16), then five
44-byte record slots at bytes 12..231, then zero padding.  Record m
(1-based) lives in slot (m-1) % 5.

Feedback frame layout (256 bytes, 36 used): state u8, error code u8,
curExec u32, acked frame_seq u16, six f32 TCP pose components, four
reserved zero bytes, then padding.

All checks of a command frame live in ``decode_command_header``: the frame
length, the command word, record_count <= 5 and loadedThrough <= totalNo.
It returns the five header fields as a ``CommandHeader`` and leaves the
slots alone, so a receiver decodes only the records it has not seen yet
(``slot_image`` then ``decode_record``); ``decode_command_frame`` is that
header plus the five raw slots.

The decoded types are immutable named tuples: ``MotionRecord`` a plain
one, ``CommandFrame`` and ``FeedbackFrame`` subclasses whose ``__new__``
checks and coerces each field.  The decoders build them with one
positional ``tuple.__new__``, without running those checks again: the
struct formats and the decoders' own checks already guarantee what the
constructors check.  ``_replace`` and ``_make`` skip the checks too.

On the sending side there is one unchecked packer per image,
``pack_command_frame`` and ``_pack_feedback``, for fields that already lie
in their ranges, as the frames hold them.  ``encode_command_frame`` and
``encode_feedback_frame`` check their fields through ``CommandFrame`` and
``FeedbackFrame``, and the pose against the f32 range, then call them.  A
robot executor checks its initial pose once, when it is built, and then
packs through ``_pack_feedback``: every later pose is a record target
decoded off the wire.  A PLC packs every command image it publishes, each
refill included, from its fields and its five-record window.
"""

from __future__ import annotations

import math
import struct
from enum import IntEnum
from typing import NamedTuple

from .core import MotionType

RECORD_SIZE = 44
FRAME_SIZE = 256
SLOT_COUNT = 5
HEADER_SIZE = 12

_RECORD_FMT = struct.Struct("<BBH9fBBH")
_CMD_HEADER_FMT = struct.Struct("<BBIIH")
_SLOTS_FMT = struct.Struct(f"{RECORD_SIZE}s" * SLOT_COUNT)
# the whole feedback frame: 32 bytes of fields, then 224 zero bytes (the
# reserved bytes 32..35 and the padding)
_FEEDBACK_FMT = struct.Struct("<BBIH6f224x")

_FLAG_JOINT = 0x01
_FLAG_CONTINUATION = 0x02

assert _RECORD_FMT.size == RECORD_SIZE
assert _CMD_HEADER_FMT.size == HEADER_SIZE
assert _FEEDBACK_FMT.size == FRAME_SIZE


class WireError(Exception):
    """Base for encode/decode failures."""


class EncodeError(WireError):
    pass


class UnencodableValue(EncodeError):
    """A field does not fit its wire representation."""


class DecodeError(WireError):
    pass


class UnknownMotionType(DecodeError):
    pass


class NonFiniteScalar(DecodeError):
    pass


class MalformedContinuation(DecodeError):
    """Continuation record with nonzero orientation slots, or one that the
    next record does not complete."""


class MalformedRecord(DecodeError):
    """Reserved flag bits set, or joint flag inconsistent with the type."""


class FrameTooShort(DecodeError):
    pass


class FrameTooLong(DecodeError):
    pass


class BadCommandWord(DecodeError):
    pass


class RecordCountOutOfRange(DecodeError):
    pass


class BadStateCode(DecodeError):
    pass


class CommandWord(IntEnum):
    IDLE = 0
    START = 1
    ABORT = 2


class RobotState(IntEnum):
    IDLE = 0
    LOADING = 1
    RUNNING = 2
    DONE = 3
    ERROR = 4
    ABORTING = 5


# wire code -> member, without the cost of an Enum call per decode
_MOTION_TYPES = {m.value: m for m in MotionType}
_COMMAND_WORDS = {w.value: w for w in CommandWord}
_ROBOT_STATES = {s.value: s for s in RobotState}
_PTP_JOINT = MotionType.PTP_JOINT
_CIRCULAR = MotionType.CIRCULAR


# the decoders build their named tuples without the checking ``__new__``
_tuple_new = tuple.__new__


def _check_finite(values, what: str):
    """Raise NonFiniteScalar naming the first non-finite value.  f32 values
    off the wire cannot overflow a double sum, so a finite sum means all of
    them are finite."""
    if not math.isfinite(sum(values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise NonFiniteScalar(f"non-finite {what} {bad!r}")


_F32_MAX = 3.4028235e38
_F32_LOWEST = -_F32_MAX


def _check_f32(values, what: str):
    """Raise UnencodableValue for the first value that is non-finite or
    beyond the f32 range: packing would fail on it or silently give inf.
    NaN fails every comparison and the infinities lie beyond the range, so
    one chained comparison tests both; it compares an int of any size
    exactly, where converting it to a float could overflow."""
    for v in values:
        if not _F32_LOWEST <= v <= _F32_MAX:
            raise UnencodableValue(f"{what} {v!r} not representable as f32")


def slot_for_record(m: int) -> int:
    """Slot index for 1-based record index m."""
    if m < 1:
        raise ValueError("record indices are 1-based")
    return (m - 1) % SLOT_COUNT


class MotionRecord(NamedTuple):
    """Decoded content of one 44-byte wire record."""

    motion_type: MotionType
    record_seq: int
    target: tuple[float, float, float, float, float, float]
    velocity: float
    acceleration: float
    approx_distance: float
    tool_frame: int = 0
    base_frame: int = 0
    force_setpoint: int = 0
    joint_target: bool = False
    continuation: bool = False


def _pack_record(fields) -> bytes:
    """The checking record packer: checks each of a record's fields
    ``(code, flags, record_seq, nine scalars, tool, base, force)`` against
    its wire range, then packs them.  The nine scalars are the six target
    components, velocity, acceleration and approx_distance."""
    code, flags, seq, *scalars, tool, base, force = fields
    if not 0 <= seq <= 0xFFFF:
        raise UnencodableValue(f"record_seq {seq} does not fit u16")
    if not 0 <= force <= 0xFFFF:
        raise UnencodableValue(f"force_setpoint {force} does not fit u16")
    if not 0 <= tool <= 0xFF:
        raise UnencodableValue(f"tool_frame {tool} does not fit u8")
    if not 0 <= base <= 0xFF:
        raise UnencodableValue(f"base_frame {base} does not fit u8")
    _check_f32(scalars, "scalar")
    return _RECORD_FMT.pack(*fields)


def encode_record(rec: MotionRecord) -> bytes:
    """Serialize a record to its 44-byte image."""
    flags = (_FLAG_JOINT if rec.joint_target else 0) | (
        _FLAG_CONTINUATION if rec.continuation else 0
    )
    return _pack_record(
        (
            rec.motion_type,
            flags,
            rec.record_seq,
            *rec.target,
            rec.velocity,
            rec.acceleration,
            rec.approx_distance,
            rec.tool_frame,
            rec.base_frame,
            rec.force_setpoint,
        )
    )


def decode_record(data: bytes) -> MotionRecord:
    """Parse a 44-byte image; rejects malformed content."""
    if len(data) < RECORD_SIZE:
        raise FrameTooShort(f"record image is {len(data)} bytes, need {RECORD_SIZE}")
    if len(data) > RECORD_SIZE:
        raise FrameTooLong(f"record image is {len(data)} bytes, need {RECORD_SIZE}")
    code, flags, seq, x, y, z, a, b, c, vel, acc, approx, tool, base, force = (
        _RECORD_FMT.unpack(data)
    )
    mtype = _MOTION_TYPES.get(code)
    if mtype is None:
        raise UnknownMotionType(f"motion type code {code}")
    if flags & ~(_FLAG_JOINT | _FLAG_CONTINUATION):
        raise MalformedRecord(f"reserved flag bits set: 0x{flags:02x}")
    joint = bool(flags & _FLAG_JOINT)
    cont = bool(flags & _FLAG_CONTINUATION)
    if joint != (mtype is _PTP_JOINT):
        raise MalformedRecord(f"joint flag {joint} inconsistent with {mtype.name}")
    # a finite sum means nine finite scalars (``_check_finite``), which then
    # names the first bad one
    if not math.isfinite(x + y + z + a + b + c + vel + acc + approx):
        _check_finite((x, y, z, a, b, c, vel, acc, approx), "scalar")
    if cont and (a or b or c):
        raise MalformedContinuation("continuation record carries orientation data")
    return _tuple_new(
        MotionRecord,
        (mtype, seq, (x, y, z, a, b, c), vel, acc, approx, tool, base, force, joint, cont),
    )


# the images of the largest finite f32 and of its negative.  ``struct``
# packs as these every double of the same sign up to half an f32 step
# beyond: those up to ``_F32_MAX``, which ``_check_f32`` accepts, and those
# above it, which it rejects
_F32_TOP = b"\xff\xff\x7f\x7f"
_F32_BOTTOM = b"\xff\xff\x7f\xff"


def _plan_image(motions) -> bytes:
    """The 44-byte record images of a sequence of ``MotionCommand``s, back
    to back: the one place where motions become record fields.  Records
    are numbered 1, 2, ... (record_seq modulo 65536); CIRCULAR gives two,
    its auxiliary continuation first (position only), then its target.

    One ``struct`` pack of a format sized to the plan rounds every scalar
    to f32, packs each frame id as u8 and each force setpoint as u16;
    ``MotionCommand`` has checked every other field, and every scalar
    finite.  When that pack refuses a value, or its bytes hold the image
    of the largest f32 anywhere (where ``_check_f32`` draws its line), the
    same fields go through ``_pack_record`` one record at a time: its
    checks raise ``UnencodableValue`` for the first culprit, or it returns
    the same bytes."""
    values = []  # the 15 fields of each record, back to back
    seq = 0
    for m in motions:
        mtype = m.motion_type
        tail = (m.velocity, m.acceleration, m.approx_distance, m.tool_frame, m.base_frame)
        if mtype is _CIRCULAR:
            seq += 1
            values += (mtype, _FLAG_CONTINUATION, seq & 0xFFFF, *m.aux_point, 0.0, 0.0, 0.0)
            values += (*tail, 0)
        seq += 1
        flags = _FLAG_JOINT if mtype is _PTP_JOINT else 0
        values += (mtype, flags, seq & 0xFFFF, *m.target.components(), *tail, m.force_setpoint)
    try:
        image = struct.pack("<" + _RECORD_FMT.format[1:] * (len(values) // 15), *values)
    except (struct.error, OverflowError):
        image = None
    if image is None or _F32_TOP in image or _F32_BOTTOM in image:
        image = b"".join(_pack_record(values[i : i + 15]) for i in range(0, len(values), 15))
    return image


def encode_plan(motions) -> list[bytes]:
    """The 44-byte record images of a motion sequence: ``_plan_image`` cut
    into records.  Raises ``UnencodableValue`` when a field does not fit
    the wire."""
    image = _plan_image(motions)
    return [image[i : i + RECORD_SIZE] for i in range(0, len(image), RECORD_SIZE)]


def explode_plan(motions) -> list[MotionRecord]:
    """The records of a sequence of ``MotionCommand``s as the wire delivers
    them: ``_plan_image`` unpacked record by record, so field for field
    and type for type the decoded images of ``encode_plan``.  They are
    built as ``decode_record`` builds them, without its checks: the image
    holds only known motion types, finite scalars and, as flags, one of
    0, the joint flag of a PTP_JOINT target or the continuation flag of
    an auxiliary record."""
    return [
        _tuple_new(
            MotionRecord,
            (
                _MOTION_TYPES[code],
                seq,
                (x, y, z, a, b, c),
                vel,
                acc,
                approx,
                tool,
                base,
                force,
                flags == _FLAG_JOINT,
                flags == _FLAG_CONTINUATION,
            ),
        )
        for code, flags, seq, x, y, z, a, b, c, vel, acc, approx, tool, base, force in (
            _RECORD_FMT.iter_unpack(_plan_image(motions))
        )
    ]


_ZERO_SLOT = bytes(RECORD_SIZE)


class _CommandFields(NamedTuple):
    command: CommandWord
    record_count: int
    total_no: int
    loaded_through: int
    frame_seq: int
    slots: tuple[bytes, ...]


class CommandFrame(_CommandFields):
    """PLC -> robot process image (one 256-byte frame).

    ``slots`` always holds five raw 44-byte images; slots that were never
    written are zero.  ``total_no`` is the total record count of the running
    skill and ``loaded_through`` the highest record index materialized so far.
    """

    __slots__ = ()

    def __new__(
        cls,
        command=CommandWord.IDLE,
        record_count=0,
        total_no=0,
        loaded_through=0,
        frame_seq=0,
        slots=(_ZERO_SLOT,) * SLOT_COUNT,
    ):
        if not isinstance(command, CommandWord):
            command = CommandWord(command)
        if not 0 <= record_count <= SLOT_COUNT:
            raise ValueError(f"record_count {record_count} out of 0..{SLOT_COUNT}")
        if not 0 <= total_no <= 0xFFFFFFFF:
            raise ValueError("totalNo does not fit u32")
        if not 0 <= loaded_through <= total_no:
            raise ValueError("loadedThrough must be within 0..totalNo")
        if not 0 <= frame_seq <= 0xFFFF:
            raise ValueError("frame_seq does not fit u16")
        slots = tuple(map(bytes, slots))
        if len(slots) != SLOT_COUNT or set(map(len, slots)) != {RECORD_SIZE}:
            raise ValueError(f"slots must be {SLOT_COUNT} images of {RECORD_SIZE} bytes")
        return _tuple_new(cls, (command, record_count, total_no, loaded_through, frame_seq, slots))


# the zero bytes after the header: five empty slots, then the padding
_CMD_FILL = bytes(FRAME_SIZE - HEADER_SIZE)


def pack_command_frame(
    command: CommandWord,
    record_count: int,
    total_no: int,
    loaded_through: int,
    frame_seq: int,
    slots,
) -> bytes:
    """Encode command fields that already lie in their ranges, as a
    ``CommandFrame`` holds them; nothing is checked here.  ``slots`` are
    the 44-byte images of the first 0 to 5 slots; the rest stay zero.
    Always returns a new object."""
    return (
        _CMD_HEADER_FMT.pack(command, record_count, total_no, loaded_through, frame_seq)
        + b"".join(slots)
        + _CMD_FILL[RECORD_SIZE * len(slots) :]
    )


def encode_command_frame(frame: CommandFrame) -> bytes:
    # the frame's fields are the packer's arguments, in order
    return pack_command_frame(*frame)


def slot_image(data: bytes, m: int) -> bytes:
    """The 44-byte slot of command image ``data`` that holds record ``m``."""
    off = HEADER_SIZE + slot_for_record(m) * RECORD_SIZE
    return data[off : off + RECORD_SIZE]


class CommandHeader(NamedTuple):
    """The five header fields of a command frame, checked."""

    command: CommandWord
    record_count: int
    total_no: int
    loaded_through: int
    frame_seq: int


def decode_command_header(data: bytes) -> CommandHeader:
    """Check a 256-byte command image and return its header; the one place
    where command frames are checked."""
    n = len(data)
    if n < FRAME_SIZE:
        raise FrameTooShort(f"command frame is {n} bytes, need {FRAME_SIZE}")
    if n > FRAME_SIZE:
        raise FrameTooLong(f"command frame is {n} bytes, need {FRAME_SIZE}")
    cmd, count, total, loaded, seq = _CMD_HEADER_FMT.unpack_from(data, 0)
    word = _COMMAND_WORDS.get(cmd)
    if word is None:
        raise BadCommandWord(f"command word {cmd}")
    if count > SLOT_COUNT:
        raise RecordCountOutOfRange(f"record_count {count}")
    if loaded > total:
        raise DecodeError(f"loadedThrough {loaded} exceeds totalNo {total}")
    return _tuple_new(CommandHeader, (word, count, total, loaded, seq))


def decode_command_frame(data: bytes) -> CommandFrame:
    """The checked header of ``decode_command_header`` plus the five raw
    slots."""
    return _tuple_new(
        CommandFrame, (*decode_command_header(data), _SLOTS_FMT.unpack_from(data, HEADER_SIZE))
    )


class _FeedbackFields(NamedTuple):
    state: RobotState
    error_code: int
    cur_exec: int
    acked_seq: int
    pose: tuple[float, float, float, float, float, float]


class FeedbackFrame(_FeedbackFields):
    """Robot -> PLC process image (one 256-byte frame, 36 bytes used)."""

    __slots__ = ()

    def __new__(
        cls, state=RobotState.IDLE, error_code=0, cur_exec=0, acked_seq=0, pose=(0.0,) * 6
    ):
        if not isinstance(state, RobotState):
            state = RobotState(state)
        if not 0 <= error_code <= 0xFF:
            raise ValueError("error_code does not fit u8")
        if not 0 <= cur_exec <= 0xFFFFFFFF:
            raise ValueError("curExec does not fit u32")
        if not 0 <= acked_seq <= 0xFFFF:
            raise ValueError("acked_seq does not fit u16")
        pose = tuple(map(float, pose))
        if len(pose) != 6:
            raise ValueError("pose needs six components")
        return _tuple_new(cls, (state, error_code, cur_exec, acked_seq, pose))


def _pack_feedback(state, error_code, cur_exec, acked_seq, pose) -> bytes:
    """Encode feedback fields as a ``FeedbackFrame`` holds them, with a pose
    known to lie in the f32 range; nothing is checked here."""
    return _FEEDBACK_FMT.pack(state, error_code, cur_exec, acked_seq, *pose)


def encode_feedback_frame(frame: FeedbackFrame) -> bytes:
    """Pack a frame; a pose component beyond f32 raises UnencodableValue."""
    _check_f32(frame.pose, "pose component")
    return _pack_feedback(*frame)


def decode_feedback_frame(data: bytes) -> FeedbackFrame:
    if len(data) < FRAME_SIZE:
        raise FrameTooShort(f"feedback frame is {len(data)} bytes, need {FRAME_SIZE}")
    if len(data) > FRAME_SIZE:
        raise FrameTooLong(f"feedback frame is {len(data)} bytes, need {FRAME_SIZE}")
    state, err, cur, ack, x, y, z, a, b, c = _FEEDBACK_FMT.unpack(data)
    st = _ROBOT_STATES.get(state)
    if st is None:
        raise BadStateCode(f"state code {state}")
    if not math.isfinite(x + y + z + a + b + c):
        _check_finite((x, y, z, a, b, c), "pose component")
    return _tuple_new(FeedbackFrame, (st, err, cur, ack, (x, y, z, a, b, c)))


IDLE_COMMAND_BYTES = pack_command_frame(CommandWord.IDLE, 0, 0, 0, 0, ())
IDLE_FEEDBACK_BYTES = _pack_feedback(RobotState.IDLE, 0, 0, 0, (0.0,) * 6)

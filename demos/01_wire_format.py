"""
Encoding motions into 44-byte records and 256-byte frames
=========================================================

Everything that crosses the PLC/robot boundary is a fixed-size byte
image: motions become 44-byte records, and five of them at a time ride
inside the 256-byte cyclic command frame.
"""

from skillbench.core import MotionCommand, MotionType, Pose
from skillbench.wire import (
    CommandFrame,
    CommandWord,
    decode_command_frame,
    decode_record,
    encode_command_frame,
    encode_plan,
    encode_record,
    slot_for_record,
)

# one linear motion: go to (100, 0, 30) at 250 mm/s, blend radius 10 mm
motion = MotionCommand(
    motion_type=MotionType.LIN_CARTESIAN,
    target=Pose(100.0, 0.0, 30.0),
    velocity=250.0,
    acceleration=2000.0,
    approx_distance=10.0,
)

# encode_plan numbers records 1, 2, 3, ... and packs each into 44 bytes;
# floats are rounded to IEEE-754 single precision on the way
(blob,) = encode_plan([motion])
print(f"record bytes ({len(blob)}):", blob.hex())

# the layout is fixed: type, flags, sequence, 6 targets, dynamics, frames
for offset, size, name in [
    (0, 1, "motion_type"),
    (1, 1, "flags"),
    (2, 2, "record_seq"),
    (4, 24, "target x,y,z,a,b,c"),
    (28, 4, "velocity"),
    (32, 4, "acceleration"),
    (36, 4, "approx_distance"),
    (40, 1, "tool_frame"),
    (41, 1, "base_frame"),
    (42, 2, "force_setpoint"),
]:
    print(f"  bytes {offset:2d}..{offset + size - 1:2d}  {name:20s} {blob[offset:offset + size].hex()}")

# decoding gives the record the robot sees, and encoding that record again
# gives back the same 44 bytes
record = decode_record(blob)
print(f"\ndecoded: seq {record.record_seq}  target={record.target[:3]}  v={record.velocity}")
assert encode_record(record) == blob

# a circular motion needs its auxiliary point, so it becomes a
# continuation record (aux position, flag bit1) plus the target record
circ = MotionCommand(
    motion_type=MotionType.CIRCULAR,
    target=Pose(200.0, 0.0, 30.0),
    velocity=250.0,
    acceleration=2000.0,
    aux_point=(150.0, 50.0, 30.0),
)
images = encode_plan([motion, circ])
print("\ncircular pair:")
for rec in map(decode_record, images[1:]):
    print(f"  seq {rec.record_seq}  continuation={rec.continuation}  target={rec.target[:3]}")

# records go into the frame's five slots by (m - 1) mod 5, so any five
# consecutive records never collide
print("\nslot for records 1..8:", [slot_for_record(m) for m in range(1, 9)])

# the PLC copies the images into their slots as they are
slots = [bytes(44)] * 5
for m, image in enumerate(images, 1):
    slots[slot_for_record(m)] = image
frame = CommandFrame(
    command=CommandWord.START,
    record_count=len(images),
    total_no=len(images),
    loaded_through=len(images),
    frame_seq=1,
    slots=tuple(slots),
)
image = encode_command_frame(frame)
print(f"\nSTART frame ({len(image)} bytes), header:", image[:12].hex())
assert decode_command_frame(image) == frame
print("frame round trip: exact")

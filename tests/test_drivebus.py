import dataclasses
import itertools
import math
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.drivebus import (BRAKE_SCALE, CanBus, CanFrame, COMMAND_FRAME_ID,
                             DriveCommand, EBS_FEEDBACK_ID, FrameDecodeError,
                             Mode, ModeArbiter, SBWS_FEEDBACK_ID, SPEED_SCALE,
                             STEERING_SCALE, SubsystemFeedback,
                             TBWS_FEEDBACK_ID, ThrottleEcu, apply_feedback,
                             decode_command, ebs_step, encode_command,
                             encode_feedback, format_trace_row, sbws_step)
from helpers import (apply_feedback_oracle, assert_frozen_value,
                     decode_command_oracle, encode_command_oracle,
                     encode_feedback_oracle)

command_strategy = st.builds(
    DriveCommand,
    steering=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    speed=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    brake=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    mode=st.sampled_from(list(Mode)),
    kill=st.booleans(),
)


class TestCodec:
    def test_zero_command_zero_payload(self):
        frame = encode_command(DriveCommand())
        assert frame.can_id == COMMAND_FRAME_ID
        assert frame.payload[:6] == bytes(6)

    def test_full_lock_steering_wire_bytes(self):
        frame = encode_command(DriveCommand(steering=1.0))
        assert frame.payload[0:2] == bytes([0xE8, 0x03])  # 1000 mrad LE

    def test_decode_inverse(self):
        frame = encode_command(DriveCommand(steering=1.0))
        assert decode_command(frame).steering == pytest.approx(1.0)

    def test_zero_payload_decodes_neutral(self):
        cmd = decode_command(CanFrame(COMMAND_FRAME_ID, bytes(8)))
        assert cmd == DriveCommand()

    def test_wrong_id_rejected(self):
        with pytest.raises(FrameDecodeError, match="unexpected frame id"):
            decode_command(CanFrame(0x201, bytes(8)))

    @settings(max_examples=300, deadline=None)
    @given(command_strategy, st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_within_quantization(self, cmd, seq):
        frame = encode_command(cmd, seq)
        back = decode_command(frame)
        assert back.steering == pytest.approx(cmd.steering, abs=1e-3)
        assert back.speed == pytest.approx(cmd.speed, abs=1e-3)
        assert back.brake == pytest.approx(cmd.brake, abs=1e-4)
        assert back.mode == cmd.mode
        assert back.kill == cmd.kill
        assert frame.payload[7] == seq % 256

    def test_encoding_deterministic(self):
        cmd = DriveCommand(steering=0.3, speed=2.7, brake=0.15,
                           mode=Mode.AUTONOMOUS)
        assert encode_command(cmd, 9) == encode_command(cmd, 9)

    def test_saturation_never_wraps(self):
        # bypass DriveCommand validation with a raw object
        frame = encode_command(DriveCommand(steering=1.0, speed=8.0, brake=1.0))
        steering = int.from_bytes(frame.payload[0:2], "little", signed=True)
        brake = int.from_bytes(frame.payload[4:6], "little")
        assert steering == 1000
        assert brake == 10000

    @pytest.mark.parametrize("flags", [0x06, 0x07, 0xFE, 0xFF])
    def test_mode_bits_3_rejected(self, flags):
        payload = bytes([0, 0, 0, 0, 0, 0, flags, 0])
        with pytest.raises(FrameDecodeError, match="mode bits 3"):
            decode_command(CanFrame(COMMAND_FRAME_ID, payload))

    def test_frame_invariants(self):
        with pytest.raises(ValueError):
            CanFrame(0x900, bytes(8))
        with pytest.raises(ValueError):
            CanFrame(0x100, bytes(5))
        # eight items that are not bytes: they would fail later, in the
        # trace row, the feedback fold or hash()
        for payload in ("01234567", list(range(8)), bytearray(8)):
            with pytest.raises(ValueError, match="payload must be bytes"):
                CanFrame(0x100, payload)

    @pytest.mark.parametrize("can_id", [513.0, True, np.int64(513)])
    def test_id_must_be_an_int(self, can_id):
        with pytest.raises(ValueError, match="CAN id must be an int, not"):
            CanFrame(can_id, bytes(8))

    def test_float_feedback_id_rejected(self):
        # 513.0 finds the 0x201 entry; its frame used to fold in as the
        # speed feedback and fail later, in the trace row
        with pytest.raises(ValueError, match="CAN id must be an int, not "
                                             "513.0"):
            encode_feedback(513.0, 1.0)


class TestSequenceCounters:
    def test_increment_mod_256(self):
        frames = [encode_command(DriveCommand(), seq) for seq in range(300)]
        seqs = [f.payload[7] for f in frames]
        assert seqs[255] == 255 and seqs[256] == 0


# (record, a field to replace, its new value)
BY_WIRE_RECORDS = [
    (CanFrame(SBWS_FEEDBACK_ID, bytes(range(8))), "can_id", EBS_FEEDBACK_ID),
    (SubsystemFeedback(1.5, -0.25, 0.5), "brake_pressure", 0.75),
]


class TestFeedbackFrames:
    @pytest.mark.parametrize("record, name, value", BY_WIRE_RECORDS)
    def test_record_is_a_frozen_value(self, record, name, value):
        assert_frozen_value(record, name, value)

    def test_replace_checks_the_frame(self):
        frame = CanFrame(TBWS_FEEDBACK_ID, bytes(8))
        with pytest.raises(ValueError, match="11 bits"):
            dataclasses.replace(frame, can_id=0x900)
        with pytest.raises(ValueError, match="payload must be bytes"):
            dataclasses.replace(frame, payload=bytearray(8))

    def test_feedback_defaults_and_keywords(self):
        assert SubsystemFeedback() == SubsystemFeedback(0.0, 0.0, 0.0)
        assert [f.default for f in dataclasses.fields(SubsystemFeedback)] == [
            0.0, 0.0, 0.0]
        assert SubsystemFeedback(brake_pressure=0.5, measured_speed=2.0) == \
            SubsystemFeedback(2.0, 0.0, 0.5)

    def test_gather_roundtrip(self):
        fb = SubsystemFeedback()
        fb = apply_feedback(fb, encode_feedback(TBWS_FEEDBACK_ID, 3.217, 1))
        fb = apply_feedback(fb, encode_feedback(SBWS_FEEDBACK_ID, -0.412, 1))
        fb = apply_feedback(fb, encode_feedback(EBS_FEEDBACK_ID, 0.66, 1))
        assert fb.measured_speed == pytest.approx(3.217, abs=1e-3)
        assert fb.measured_steering == pytest.approx(-0.412, abs=1e-3)
        assert fb.brake_pressure == pytest.approx(0.66, abs=1e-4)

    def test_unknown_feedback_id(self):
        with pytest.raises(FrameDecodeError):
            apply_feedback(SubsystemFeedback(), CanFrame(0x300, bytes(8)))
        with pytest.raises(ValueError, match="not a feedback id"):
            encode_feedback(0x300, 1.0)

    @pytest.mark.parametrize("can_id, value, raw, decoded", [
        (TBWS_FEEDBACK_ID, 3.217, "910c", 3.217),
        (TBWS_FEEDBACK_ID, -40.0, "0080", -32.768),
        (SBWS_FEEDBACK_ID, 40.0, "ff7f", 32.767),
        (EBS_FEEDBACK_ID, 0.66, "c819", 0.66),
        (EBS_FEEDBACK_ID, 7.0, "ffff", 6.5535),
        (EBS_FEEDBACK_ID, -1.0, "0000", 0.0),
    ])
    def test_wire_bytes_and_saturation(self, can_id, value, raw, decoded):
        # value LE in bytes 0-1, five zero bytes, the sequence in byte 7
        frame = encode_feedback(can_id, value, 258)
        assert frame.payload.hex() == raw + "0000000000" + "02"
        fb = apply_feedback(SubsystemFeedback(), frame)
        field = {TBWS_FEEDBACK_ID: "measured_speed",
                 SBWS_FEEDBACK_ID: "measured_steering",
                 EBS_FEEDBACK_ID: "brake_pressure"}[can_id]
        assert getattr(fb, field) == decoded


FEEDBACK_FIELDS = {TBWS_FEEDBACK_ID: ("measured_speed", SPEED_SCALE, "<h",
                                     -32768, 32767),
                   SBWS_FEEDBACK_ID: ("measured_steering", STEERING_SCALE,
                                      "<h", -32768, 32767),
                   EBS_FEEDBACK_ID: ("brake_pressure", BRAKE_SCALE, "<H",
                                     0, 65535)}
# values within the wire range and far past it on both sides
wire_value = st.one_of(st.floats(min_value=-40.0, max_value=40.0),
                       st.floats(min_value=-1e9, max_value=1e9),
                       st.sampled_from([32.767, 32.7675, -32.768, 6.5535,
                                        6.55355, 0.0, -0.0]))


class TestFeedbackCodecOracle:
    """The precompiled feedback structs against the plain layout: the value
    struct, five zero bytes, the sequence byte; and the fold against
    dataclasses.replace."""

    @settings(max_examples=300, deadline=None)
    @given(can_id=st.sampled_from(sorted(FEEDBACK_FIELDS)), value=wire_value,
           seq=st.integers(min_value=0, max_value=600))
    def test_encode_matches_plain_pack(self, can_id, value, seq):
        _, scale, fmt, lo, hi = FEEDBACK_FIELDS[can_id]
        sat = int(min(max(round(value * scale), lo), hi))
        want = struct.pack(fmt, sat) + bytes(5) + bytes([seq % 256])
        frame = encode_feedback(can_id, value, seq)
        assert frame == CanFrame(can_id, want)

    @pytest.mark.parametrize("can_id", sorted(FEEDBACK_FIELDS))
    def test_every_sequence_byte(self, can_id):
        for seq in range(601):
            assert encode_feedback(can_id, 1.0, seq).payload[5:] == \
                bytes([0, 0, seq % 256])

    @settings(max_examples=300, deadline=None)
    @given(can_id=st.sampled_from(sorted(FEEDBACK_FIELDS)), value=wire_value,
           seq=st.integers(min_value=0, max_value=600),
           before=st.tuples(*[st.floats(-40.0, 40.0)] * 3))
    def test_apply_matches_replace(self, can_id, value, seq, before):
        name, scale, fmt, _, _ = FEEDBACK_FIELDS[can_id]
        fb = SubsystemFeedback(*before)
        frame = encode_feedback(can_id, value, seq)
        (raw,) = struct.unpack_from(fmt, frame.payload)
        got = apply_feedback(fb, frame)
        assert got == dataclasses.replace(fb, **{name: raw / scale})
        assert fb == SubsystemFeedback(*before)


class TestDriveCommandValidation:
    @pytest.mark.parametrize("steering", [math.nan, math.inf, -math.inf])
    def test_non_finite_steering_rejected(self, steering):
        with pytest.raises(ValueError, match="steering must be finite"):
            DriveCommand(steering=steering)

    @pytest.mark.parametrize("speed", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="speed must be finite"):
            DriveCommand(speed=speed)

    @pytest.mark.parametrize("kwargs, message", [
        ({"steering": 1.1}, "physical limit"),
        ({"steering": -1.1}, "physical limit"),
        ({"speed": -1e-9}, "speed must be >= 0"),
        ({"speed": -math.inf}, "speed must be >= 0"),
        ({"brake": math.nan}, "brake must be in"),
        ({"brake": math.inf}, "brake must be in")])
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DriveCommand(**kwargs)

    def test_limits_accepted(self):
        DriveCommand(steering=-1.0, speed=0.0, brake=0.0)
        DriveCommand(steering=1.0, speed=1e300, brake=1.0)

    @pytest.mark.parametrize("kill", [2, 3, -1, 256, 0.0, 1.0, 0.5, math.nan,
                                      None, "1", np.True_,
                                      pytest.param(0, id="int0"),
                                      pytest.param(1, id="int1")])
    def test_kill_other_than_a_flag_rejected(self, kill):
        # kill=2 would encode kill bit 0 while the arbiter reads it as set
        with pytest.raises(ValueError, match="kill must be True or False, "
                                             "not"):
            DriveCommand(speed=2.0, kill=kill)

    @pytest.mark.parametrize("mode", [3, -1, 4, 2.0, None, "AUTONOMOUS",
                                      0, 1, 2])
    def test_mode_outside_the_modes_rejected(self, mode):
        # mode=3 would encode mode bits that decode_command rejects
        with pytest.raises(ValueError, match="mode must be a Mode, not"):
            DriveCommand(mode=mode)

    @pytest.mark.parametrize("mode", [*Mode, 0, 1, 2])
    @pytest.mark.parametrize("kill", [False, True, 0, 1])
    def test_every_mode_and_kill_round_trips(self, mode, kill):
        # a Mode and a bool round-trip; the int spellings are rejected, not
        # coerced, so no second form of either value can be built
        if mode.__class__ is not Mode:
            with pytest.raises(ValueError, match="mode must be a Mode, not"):
                DriveCommand(speed=2.0, mode=mode, kill=kill)
            return
        if kill.__class__ is not bool:
            with pytest.raises(ValueError, match="kill must be True or "
                                                 "False, not"):
                DriveCommand(speed=2.0, mode=mode, kill=kill)
            return
        cmd = DriveCommand(steering=-0.25, speed=2.0, brake=0.5, mode=mode,
                           kill=kill)
        got = decode_command(encode_command(cmd, 7))
        assert got == cmd
        assert got.mode is mode and got.kill is kill
        # the arbiter reads the flag as the wire does
        forwarded = ModeArbiter().step(0.0, mode, manual=cmd,
                                       remote=cmd, autonomous=cmd)
        assert forwarded.kill == got.kill


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def scaled(scale):
    """Values whose scaled wire value lies at, near, halfway between and
    past the saturation limits, plus any float at all (nan and inf too)."""
    raw = st.one_of(st.integers(-70_000, 70_000),
                    st.sampled_from([-32769, -32768, -32767, -1, 0, 1, 32766,
                                     32767, 32768, 65534, 65535, 65536]))
    offset = st.sampled_from([0.0, 0.5, -0.5, 0.4999999999, -0.4999999999,
                              0.5000000001])
    return st.one_of(st.builds(lambda k, off: (k + off) / scale, raw, offset),
                     st.floats(), st.floats(-1e12, 1e12))


sequence = st.integers(-100_000, 100_000)


class TestCodecAgainstOracle:
    """The inlined codec against the plain one in tests/helpers.py: equal
    frames and commands, and the same exception types, for any input."""

    @settings(max_examples=500, deadline=None)
    @given(steering=scaled(STEERING_SCALE), speed=scaled(SPEED_SCALE),
           brake=scaled(BRAKE_SCALE),
           mode=st.sampled_from([*Mode, 0, 1, 2, 3]),
           kill=st.sampled_from([False, True, 0, 1, 2, 3]), seq=sequence)
    def test_encode_command(self, steering, speed, brake, mode, kill, seq):
        # a plain object, so values DriveCommand rejects reach the encoder
        cmd = types.SimpleNamespace(steering=steering, speed=speed,
                                    brake=brake, mode=mode, kill=kill)
        assert outcome(encode_command, cmd, seq) == \
            outcome(encode_command_oracle, cmd, seq)

    @settings(max_examples=500, deadline=None)
    @given(cmd=command_strategy, seq=sequence)
    def test_encode_valid_command(self, cmd, seq):
        assert encode_command(cmd, seq) == encode_command_oracle(cmd, seq)

    @settings(max_examples=500, deadline=None)
    @given(can_id=st.sampled_from([COMMAND_FRAME_ID, 0x000, 0x1FF, 0x7FF]),
           payload=st.binary(min_size=8, max_size=8))
    def test_decode_command(self, can_id, payload):
        frame = CanFrame(can_id, payload)
        got = outcome(decode_command, frame)
        want = outcome(decode_command_oracle, frame)
        if can_id == COMMAND_FRAME_ID and (payload[6] >> 1) & 0x3 == 3:
            # Mode(3) raised a bare ValueError; the table names the bits
            assert got is FrameDecodeError and want is ValueError
            return
        assert got == want
        if isinstance(want, DriveCommand):
            assert got.mode is want.mode and type(got.kill) is bool

    @settings(max_examples=500, deadline=None)
    @given(can_id=st.sampled_from(sorted(FEEDBACK_FIELDS)), value=st.data(),
           seq=sequence)
    def test_encode_feedback(self, can_id, value, seq):
        value = value.draw(scaled(FEEDBACK_FIELDS[can_id][1]))
        assert outcome(encode_feedback, can_id, value, seq) == \
            outcome(encode_feedback_oracle, can_id, value, seq)

    @pytest.mark.parametrize("value, error", [(math.nan, ValueError),
                                              (math.inf, OverflowError),
                                              (-math.inf, OverflowError)])
    def test_non_finite_feedback_raises_as_the_oracle(self, value, error):
        # round() raises before any saturation
        for can_id in FEEDBACK_FIELDS:
            assert outcome(encode_feedback, can_id, value, 0) is error
            assert outcome(encode_feedback_oracle, can_id, value, 0) is error

    @settings(max_examples=500, deadline=None)
    @given(can_id=st.sampled_from([*sorted(FEEDBACK_FIELDS), COMMAND_FRAME_ID,
                                   0x200, 0x204]),
           payload=st.binary(min_size=8, max_size=8),
           before=st.tuples(*[st.floats(allow_nan=False)] * 3))
    def test_apply_feedback(self, can_id, payload, before):
        fb = SubsystemFeedback(*before)
        frame = CanFrame(can_id, payload)
        assert outcome(apply_feedback, fb, frame) == \
            outcome(apply_feedback_oracle, fb, frame)
        assert fb == SubsystemFeedback(*before)


def field_bits(fb):
    """Each field's type and, for a float, its bits (nan and -0.0 too)."""
    return [(type(v), v.hex() if type(v) is float else v)
            for v in (getattr(fb, f.name)
                      for f in dataclasses.fields(SubsystemFeedback))]


def alike(value):
    """Fields that equal a decoded wire value or lie next to it: the value
    itself, one float either side, 1e-9 off, -0.0 for 0.0, its int and
    numpy forms, and any float at all."""
    return st.sampled_from([
        value, math.nextafter(value, math.inf),
        math.nextafter(value, -math.inf), value + 1e-9, value - 1e-9,
        -value, int(value), np.float64(value), math.nan]) | st.floats()


class TestConstructionPaths:
    """The codec builds its frames and records without calling their
    __init__; each must be the record the checked constructor builds."""

    @settings(max_examples=300, deadline=None)
    @given(frame=st.one_of(
        st.builds(encode_command, command_strategy, sequence),
        st.builds(encode_command, st.builds(
            # values past every saturation limit, both ways
            types.SimpleNamespace, steering=st.floats(-1e6, 1e6),
            speed=st.floats(-1e6, 1e6), brake=st.floats(-1e3, 1e3),
            mode=st.sampled_from(list(Mode)), kill=st.booleans()), sequence),
        st.builds(encode_feedback, st.sampled_from(sorted(FEEDBACK_FIELDS)),
                  st.floats(-1e9, 1e9), sequence)))
    def test_encoded_frames_are_checked_frames(self, frame):
        checked = CanFrame(frame.can_id, frame.payload)
        assert type(frame) is CanFrame
        assert vars(frame) == vars(checked) and frame == checked
        assert type(frame.can_id) is int and type(frame.payload) is bytes
        assert_frozen_value(frame, "can_id", 0x7FF)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), can_id=st.sampled_from(sorted(FEEDBACK_FIELDS)),
           before=st.tuples(*[st.floats()] * 3), seq=sequence)
    def test_fold_is_the_oracle_and_keeps_an_unchanged_record(
            self, data, can_id, before, seq):
        name, scale, fmt, lo, hi = FEEDBACK_FIELDS[can_id]
        raw = data.draw(st.integers(lo, hi) | st.sampled_from([lo, 0, hi]))
        frame = CanFrame(can_id, struct.pack(fmt, raw) + bytes(5)
                         + bytes([seq & 255]))
        fb = dataclasses.replace(SubsystemFeedback(*before),
                                 **{name: data.draw(alike(raw / scale))})
        kept = field_bits(fb)
        got, want = apply_feedback(fb, frame), apply_feedback_oracle(fb, frame)
        assert type(got) is SubsystemFeedback
        assert field_bits(got) == field_bits(want)
        assert (got is fb) == (field_bits(want) == kept)
        assert field_bits(fb) == kept
        if got is not fb:
            assert_frozen_value(got, name, 0.125)

    @settings(max_examples=500, deadline=None)
    @given(steering=st.integers(-1100, 1100), speed=st.integers(-100, 32767),
           brake=st.integers(0, 11000), flags=st.integers(0, 255))
    def test_decoded_commands_are_checked_commands(self, steering, speed,
                                                   brake, flags):
        # values inside and just past each of DriveCommand's limits
        frame = CanFrame(COMMAND_FRAME_ID, struct.pack(
            "<hhHBB", steering, speed, brake, flags, 0))
        if (flags >> 1) & 0x3 == 3:
            return
        args = (steering / STEERING_SCALE, speed / SPEED_SCALE,
                brake / BRAKE_SCALE, Mode((flags >> 1) & 0x3),
                bool(flags & 0x1))
        try:
            want = DriveCommand(*args)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                decode_command(frame)
            return
        got = decode_command(frame)
        assert type(got) is DriveCommand
        assert vars(got) == vars(want) and got == want
        assert_frozen_value(got, "brake", 0.25 if want.brake != 0.25 else 0.5)

    @pytest.mark.parametrize("can_id", sorted(FEEDBACK_FIELDS))
    def test_every_wire_value_once_more_is_the_same_record(self, can_id):
        name, scale, fmt, lo, hi = FEEDBACK_FIELDS[can_id]
        fb = SubsystemFeedback()
        for raw in range(lo, hi + 1, 7):
            frame = CanFrame(can_id, struct.pack(fmt, raw) + bytes(6))
            fb = apply_feedback(fb, frame)
            assert getattr(fb, name) == raw / scale
            assert apply_feedback(fb, frame) is fb

    @pytest.mark.parametrize("can_id, message", [
        (np.int64(513), "CAN id must be an int, not np.int64(513)"),
        (True, "not a feedback id: 0x001")])
    def test_ids_that_are_not_ints_raise(self, can_id, message):
        # 513.0: TestCodec.test_float_feedback_id_rejected
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_feedback(can_id, 1.0)


class TestArbitration:
    @pytest.mark.parametrize("source_mode", list(Mode))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_forwarded_and_held_commands_match_replace(self, mode,
                                                       source_mode):
        cmd = DriveCommand(steering=-0.4, speed=3.5, brake=0.25,
                           mode=source_mode)
        arb = ModeArbiter(timeout_s=0.5)
        out = arb.step(0.0, mode, **{mode.name.lower(): cmd})
        assert out == dataclasses.replace(cmd, mode=mode)
        assert out.mode is mode
        assert arb.step(0.4, mode) == out
        stale = arb.step(0.6, mode)
        assert stale == dataclasses.replace(cmd, speed=0.0, mode=mode)
        assert stale.mode is mode

    def test_silent_from_start_is_neutral(self):
        out = ModeArbiter().step(0.0, Mode.REMOTE)
        assert out == DriveCommand(mode=Mode.REMOTE)

    def test_selected_source_forwarded(self):
        arb = ModeArbiter()
        cmd = DriveCommand(steering=0.2, speed=3.0, mode=Mode.AUTONOMOUS)
        out = arb.step(0.0, Mode.AUTONOMOUS, autonomous=cmd)
        assert out.steering == 0.2 and out.speed == 3.0

    def test_kill_dominates_everything(self):
        arb = ModeArbiter()
        cmd = DriveCommand(steering=0.5, speed=5.0)
        for mode in Mode:
            out = arb.step(0.0, mode, manual=cmd, remote=cmd, autonomous=cmd,
                           kill=True)
            assert out.speed == 0.0
            assert out.brake == 1.0
            assert out.kill

    def test_kill_exhaustive_over_mode_and_presence(self):
        cmd = DriveCommand(steering=0.3, speed=4.0)
        for mode in Mode:
            for bits in itertools.product([None, cmd], repeat=3):
                arb = ModeArbiter()
                out = arb.step(0.0, mode, manual=bits[0], remote=bits[1],
                               autonomous=bits[2], kill=True)
                assert out.speed == 0.0 and out.brake == 1.0

    def test_hold_last_within_timeout(self):
        arb = ModeArbiter(timeout_s=0.5)
        cmd = DriveCommand(steering=0.1, speed=2.0)
        arb.step(0.0, Mode.REMOTE, remote=cmd)
        held = arb.step(0.3, Mode.REMOTE, remote=None)
        assert held.speed == 2.0 and held.steering == 0.1

    def test_silence_beyond_timeout_zeros_speed(self):
        arb = ModeArbiter(timeout_s=0.5)
        cmd = DriveCommand(steering=0.1, speed=2.0)
        arb.step(0.0, Mode.REMOTE, remote=cmd)
        out = arb.step(0.6, Mode.REMOTE, remote=None)
        assert out.speed == 0.0
        assert out.steering == 0.1  # steering held, propulsion cut

    def test_source_isolation(self):
        arb = ModeArbiter()
        manual = DriveCommand(speed=1.0)
        auto = DriveCommand(speed=4.0)
        out = arb.step(0.0, Mode.MANUAL, manual=manual, autonomous=auto)
        assert out.speed == 1.0

    def test_command_kill_flag_also_dominates(self):
        arb = ModeArbiter()
        cmd = DriveCommand(speed=4.0, kill=True)
        out = arb.step(0.0, Mode.AUTONOMOUS, autonomous=cmd)
        assert out.speed == 0.0 and out.brake == 1.0


class TestThrottleEcu:
    def test_zero_error_zero_state_zero_duty(self):
        assert ThrottleEcu().step(3.0, 3.0, 0.01) == 0.0

    def test_step_response_settles(self):
        # first-order plant dv/dt = (duty*k - v)/tau with tau = 1 s
        ecu = ThrottleEcu()
        v = 0.0
        dt = 0.01
        k_plant = 8.0
        target = 3.0
        history = []
        for i in range(800):
            duty = ecu.step(target, v, dt)
            v += dt * (duty * k_plant - v) / 1.0
            history.append(v)
        settle = 0.02 * target
        tail = history[500:]  # after 5 s
        assert all(abs(x - target) <= settle for x in tail)
        # settled earlier than 5 s as well
        assert abs(history[499] - target) <= settle

    def test_antiwindup_freezes_integrator(self):
        ecu = ThrottleEcu()
        for _ in range(100):
            duty = ecu.step(100.0, 0.0, 0.1)
            assert duty == 1.0
        # integrator must not have grown while saturated: a small error now
        # produces a proportional-dominated duty, not a windup plateau
        duty = ecu.step(0.5, 0.0, 0.1)
        assert duty < 1.0

    def test_duty_clamped(self):
        ecu = ThrottleEcu()
        assert ecu.step(-50.0, 0.0, 0.1) == 0.0
        assert ecu.step(50.0, 0.0, 0.1) == 1.0


class TestSteeringServo:
    def test_at_target_stays(self):
        assert sbws_step(0.4, 0.4, 0.01) == 0.4

    def test_rate_limit_bounds_progress(self):
        angle = 0.0
        t = 0.0
        while t < 0.25 - 1e-12:
            angle = sbws_step(1.0, angle, 0.01, rate_max=2.0)
            t += 0.01
        assert angle <= 0.5 + 1e-12

    def test_slew_bound_every_step(self):
        rng = np.random.default_rng(6)
        angle = 0.0
        for _ in range(500):
            target = rng.uniform(-1.0, 1.0)
            dt = rng.uniform(0.001, 0.05)
            new = sbws_step(target, angle, dt, rate_max=2.0)
            assert abs(new - angle) <= 2.0 * dt + 1e-12
            angle = new

    def test_converges_to_target(self):
        angle = 0.0
        for _ in range(300):
            angle = sbws_step(0.7, angle, 0.01)
        assert angle == pytest.approx(0.7, abs=1e-6)


class TestBrakeEcu:
    def test_zero_target_zero_state(self):
        assert ebs_step(0.0, 0.0, 0.01) == 0.0

    def test_first_order_response_at_tau(self):
        p = 0.0
        for _ in range(20):  # 0.2 s at dt = 0.01 with tau = 0.2
            p = ebs_step(1.0, p, 0.01)
        assert p == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    def test_output_clamped(self):
        rng = np.random.default_rng(7)
        p = 0.5
        for _ in range(500):
            p = ebs_step(rng.uniform(-2.0, 3.0), p, rng.uniform(0.001, 0.05))
            assert 0.0 <= p <= 1.0


class TestCanBus:
    def test_priority_order_lower_id_first(self):
        bus = CanBus()
        fb = encode_feedback(TBWS_FEEDBACK_ID, 1.0, 0)
        cmd = encode_command(DriveCommand(), 0)
        bus.send(fb)
        bus.send(cmd)
        delivered = bus.deliver()
        assert [f.can_id for f in delivered] == [COMMAND_FRAME_ID,
                                                 TBWS_FEEDBACK_ID]

    def test_fifo_within_id(self):
        bus = CanBus()
        first = encode_command(DriveCommand(speed=1.0), 0)
        second = encode_command(DriveCommand(speed=2.0), 1)
        bus.send(first)
        bus.send(second)
        assert bus.deliver() == [first, second]

    def test_deliver_clears_queue(self):
        bus = CanBus()
        bus.send(encode_command(DriveCommand(), 0))
        assert len(bus.deliver()) == 1
        assert bus.deliver() == []

    def test_trace_row_format(self):
        frame = encode_command(DriveCommand(steering=1.0), 3)
        line = format_trace_row("1.25", frame)
        assert line == f"1.25,100,{frame.payload.hex()}"
        t, id_hex, payload_hex = line.split(",")
        assert t == "1.25"
        assert id_hex == "100"
        assert len(payload_hex) == 16
        assert payload_hex.startswith("e803")
        # the time cell goes in as given, however the tick spelled it
        assert format_trace_row("0.11900000000000001", frame).startswith(
            "0.11900000000000001,100,")

    def test_trace_row_id_cells(self):
        for can_id in range(0x800):
            line = format_trace_row("0.5", CanFrame(can_id, bytes(8)))
            assert line == f"0.5,{can_id:03x},{'00' * 8}"

"""Simulated by-wire CAN drive bus.

Mirrors the vehicle mechatronics as message-level models: the main control
system arbitrates between manual/remote/autonomous command sources, commands
and feedback travel as 8-byte CAN frames, and each subsystem ECU (throttle
speed loop, steering servo, brake pressure loop) is a small discrete-time
controller. Frame layout:

    id 0x100 command:  bytes 0-1 int16 LE steering [mrad]
                       bytes 2-3 int16 LE speed [mm/s]
                       bytes 4-5 uint16 LE brake [0.01 %]
                       byte 6 flags (bit0 kill, bits1-2 mode)
                       byte 7 sequence counter (mod 256)
    id 0x201/0x202/0x203 feedback: value in bytes 0-1 (speed mm/s,
                       steering mrad, pressure 0.01 %), byte 7 sequence.

Values that overflow their wire scale saturate; they never wrap.
"""

from __future__ import annotations

import enum
import math
import operator
import struct
from dataclasses import dataclass

COMMAND_FRAME_ID = 0x100
TBWS_FEEDBACK_ID = 0x201
SBWS_FEEDBACK_ID = 0x202
EBS_FEEDBACK_ID = 0x203

STEERING_SCALE = 1000.0   # rad -> mrad
SPEED_SCALE = 1000.0      # m/s -> mm/s
BRAKE_SCALE = 10000.0     # fraction -> 0.01 %

STEERING_LIMIT = 1.0      # rad, physical steering stop

_COMMAND = struct.Struct("<hhHBB")  # whole payloads, the sequence byte last
_INT16, _UINT16 = struct.Struct("<h5xB"), struct.Struct("<H5xB")
# the encoders build frames from these without CanFrame's checks
assert _COMMAND.size == _INT16.size == _UINT16.size == 8


class FrameDecodeError(ValueError):
    """A CAN frame could not be decoded."""


class Mode(enum.IntEnum):
    MANUAL = 0
    REMOTE = 1
    AUTONOMOUS = 2


@dataclass(frozen=True)
class DriveCommand:
    steering: float = 0.0
    speed: float = 0.0
    brake: float = 0.0
    mode: Mode = Mode.MANUAL
    kill: bool = False

    def __post_init__(self):
        # one comparison per value on the valid path; nan fails them all
        if not abs(self.steering) <= STEERING_LIMIT + 1e-9:
            raise ValueError(
                f"steering exceeds the {STEERING_LIMIT} rad physical limit"
                if math.isfinite(self.steering) else "steering must be finite")
        if not 0.0 <= self.speed < math.inf:
            raise ValueError("speed must be >= 0" if self.speed < 0.0 else
                             "speed must be finite")
        if not 0.0 <= self.brake <= 1.0:
            raise ValueError("brake must be in [0, 1]")
        # the codec reads both bitwise, so only a Mode and a bool pass
        if self.mode.__class__ is not Mode:
            raise ValueError(f"mode must be a Mode, not {self.mode!r}")
        if self.kill.__class__ is not bool:
            raise ValueError(f"kill must be True or False, not {self.kill!r}")


# CanFrame and SubsystemFeedback check their arguments in their own __init__
# and store them through _set, so no __post_init__ runs. The codec builds
# its frames and records with _new and writes the instance __dict__
# directly, since the Python-level __init__ call is most of a record's cost.
_set, _new = object.__setattr__, object.__new__


@dataclass(frozen=True)
class CanFrame:
    can_id: int
    payload: bytes

    def __init__(self, can_id: int, payload: bytes):
        if can_id.__class__ is not int:
            raise ValueError(f"CAN id must be an int, not {can_id!r}")
        if not 0 <= can_id < 0x800:
            raise ValueError("CAN id must fit in 11 bits")
        if payload.__class__ is not bytes:
            raise ValueError(f"payload must be bytes, not {payload!r}")
        if len(payload) != 8:
            raise ValueError("payload must be exactly 8 bytes")
        _set(self, "can_id", can_id)
        _set(self, "payload", payload)


@dataclass(frozen=True)
class SubsystemFeedback:
    measured_speed: float = 0.0
    measured_steering: float = 0.0
    brake_pressure: float = 0.0

    def __init__(self, measured_speed: float = 0.0,
                 measured_steering: float = 0.0, brake_pressure: float = 0.0):
        _set(self, "measured_speed", measured_speed)
        _set(self, "measured_steering", measured_steering)
        _set(self, "brake_pressure", brake_pressure)


# Each encoder rounds half to even first, so nan and inf raise there
# (ValueError, OverflowError), and then saturates the integer inline.

def encode_command(cmd: DriveCommand, seq: int = 0) -> CanFrame:
    """Pack a command into its wire frame; scaled values saturate."""
    steering = round(cmd.steering * STEERING_SCALE)
    speed = round(cmd.speed * SPEED_SCALE)
    brake = round(cmd.brake * BRAKE_SCALE)
    frame = _new(CanFrame)
    fields = frame.__dict__
    fields["can_id"] = COMMAND_FRAME_ID
    fields["payload"] = _COMMAND.pack(
        -32768 if steering < -32768 else 32767 if steering > 32767
        else steering,
        -32768 if speed < -32768 else 32767 if speed > 32767 else speed,
        0 if brake < 0 else 65535 if brake > 65535 else brake,
        (cmd.kill & 0x1) | ((cmd.mode & 0x3) << 1),
        seq & 255,
    )
    return frame


# mode bits 1-2 of the flags byte -> Mode; the value 3 names no mode
_MODE_BITS = (Mode.MANUAL, Mode.REMOTE, Mode.AUTONOMOUS)


def decode_command(frame: CanFrame) -> DriveCommand:
    """Inverse of encode_command up to the wire quantization."""
    if frame.can_id != COMMAND_FRAME_ID:
        raise FrameDecodeError(f"unexpected frame id 0x{frame.can_id:03x}")
    steering, speed, brake, flags, _seq = _COMMAND.unpack(frame.payload)
    bits = (flags >> 1) & 0x3
    if bits == 3:
        raise FrameDecodeError(f"mode bits {bits} name no mode")
    cmd = _new(DriveCommand)
    fields = cmd.__dict__
    fields["steering"] = steering / STEERING_SCALE
    fields["speed"] = speed / SPEED_SCALE
    fields["brake"] = brake / BRAKE_SCALE
    fields["mode"] = _MODE_BITS[bits]
    fields["kill"] = bool(flags & 0x1)
    cmd.__post_init__()  # the constructor's checks, on the decoded values
    return cmd


# feedback id -> (SubsystemFeedback field, wire scale, payload struct
# (value, five pad bytes, sequence), saturation range of the raw value)
_FEEDBACK = {
    TBWS_FEEDBACK_ID: ("measured_speed", SPEED_SCALE, _INT16, -32768, 32767),
    SBWS_FEEDBACK_ID: ("measured_steering", STEERING_SCALE, _INT16,
                       -32768, 32767),
    EBS_FEEDBACK_ID: ("brake_pressure", BRAKE_SCALE, _UINT16, 0, 65535),
}
_copysign = math.copysign


def encode_feedback(can_id: int, value: float, seq: int = 0) -> CanFrame:
    spec = _FEEDBACK.get(can_id)
    if spec is None:
        raise ValueError(f"not a feedback id: 0x{can_id:03x}")
    _, scale, payload, lo, hi = spec
    raw = round(value * scale)
    # 513.0 and np.int64(513) find a key too; an exact int that does is one
    # of the three feedback ids
    if can_id.__class__ is not int:
        raise ValueError(f"CAN id must be an int, not {can_id!r}")
    frame = _new(CanFrame)
    fields = frame.__dict__
    fields["can_id"] = can_id
    fields["payload"] = payload.pack(
        lo if raw < lo else hi if raw > hi else raw, seq & 255)
    return frame


def apply_feedback(fb: SubsystemFeedback, frame: CanFrame) -> SubsystemFeedback:
    """Fold one feedback frame into the gathered subsystem state.

    Returns `fb` itself when the frame's value is the float the field
    already holds; otherwise a new record with that one field replaced.
    """
    spec = _FEEDBACK.get(frame.can_id)
    if spec is None:
        raise FrameDecodeError(f"unexpected frame id 0x{frame.can_id:03x}")
    name, scale, payload, _, _ = spec
    value = payload.unpack(frame.payload)[0] / scale
    fields = fb.__dict__
    old = fields[name]
    # an int over a scale is never -0.0 or nan, so an equal float field
    # holds the same bits unless it is -0.0
    if value == old and old.__class__ is float and (
            value or _copysign(1.0, old) > 0.0):
        return fb
    new = _new(SubsystemFeedback)
    record = new.__dict__
    record.update(fields)
    record[name] = value
    return new


class ModeArbiter:
    """Main-control-system arbitration between command sources.

    Forwards the source matching the active mode. A silent source is covered
    by the last command for `timeout_s`, after which speed is zeroed. A set
    kill flag dominates everything: zero speed, full brake.
    """

    def __init__(self, timeout_s: float = 0.5):
        self.timeout_s = timeout_s
        self._last: DriveCommand | None = None
        self._last_t: float = -math.inf

    def step(self, t: float, mode: Mode,
             manual: DriveCommand | None = None,
             remote: DriveCommand | None = None,
             autonomous: DriveCommand | None = None,
             kill: bool = False) -> DriveCommand:
        if mode == Mode.AUTONOMOUS:
            selected = autonomous
        elif mode == Mode.REMOTE:
            selected = remote
        elif mode == Mode.MANUAL:
            selected = manual
        else:
            raise KeyError(mode)
        if kill or (selected is not None and selected.kill):
            return DriveCommand(steering=0.0, speed=0.0, brake=1.0,
                                mode=mode, kill=True)
        if selected is not None:
            if selected.mode is not mode:
                selected = DriveCommand(selected.steering, selected.speed,
                                        selected.brake, mode, selected.kill)
            self._last, self._last_t = selected, t
            return selected
        if self._last is not None and t - self._last_t <= self.timeout_s:
            return self._last
        held = self._last or DriveCommand(mode=mode)
        return DriveCommand(held.steering, 0.0, held.brake, mode, held.kill)


class ThrottleEcu:
    """TBWS speed loop: PI on the speed error producing a throttle duty.

    The integrator freezes while the output is saturated (anti-windup).
    """

    def __init__(self, kp: float = 0.3, ki: float = 0.5):
        self.kp = kp
        self.ki = ki
        self._integral = 0.0

    def step(self, target_speed: float, measured_speed: float, dt: float) -> float:
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        error = target_speed - measured_speed
        candidate = self._integral + error * dt
        duty = self.kp * error + self.ki * candidate
        if 0.0 <= duty <= 1.0:
            self._integral = candidate
            return duty
        return min(max(duty, 0.0), 1.0)


def sbws_step(target_angle: float, measured: float, dt: float,
              rate_max: float = 2.0, tau: float = 0.1) -> float:
    """Steering servo: first-order response toward the target, slew-limited
    to rate_max."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    move = (target_angle - measured) * (1.0 - math.exp(-dt / tau))
    limit = rate_max * dt
    return measured + min(max(move, -limit), limit)


def ebs_step(target_brake: float, measured_pressure: float, dt: float,
             tau: float = 0.2) -> float:
    """Brake actuator: first-order pressure response, clamped to [0, 1]."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    p = measured_pressure + (target_brake - measured_pressure) * (1.0 - math.exp(-dt / tau))
    return min(max(p, 0.0), 1.0)


_CAN_ID = operator.attrgetter("can_id")


class CanBus:
    """Single-owner tick-driven queue.

    Producers enqueue frames at any time; `deliver` hands back everything
    queued since the previous tick in CAN arbitration order (lower id wins,
    FIFO within an id).
    """

    def __init__(self):
        self._pending: list[CanFrame] = []

    def send(self, frame: CanFrame) -> None:
        self._pending.append(frame)

    def deliver(self) -> list[CanFrame]:
        # sorted() is stable, so frames of one id keep their send order
        frames = sorted(self._pending, key=_CAN_ID)
        self._pending.clear()
        return frames


# the id_hex cell of every id a CanFrame can hold
_ID_CELLS = tuple(f"{can_id:03x}" for can_id in range(0x800))


def format_trace_row(t_cell: str, frame: CanFrame) -> str:
    """One frame-trace CSV line, t_s,id_hex,payload_hex, with the t_s cell
    given as formatted (the closed loop formats each tick's time once for
    all of that tick's rows)."""
    return f"{t_cell},{_ID_CELLS[frame.can_id]},{frame.payload.hex()}"

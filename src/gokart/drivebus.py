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
        if abs(self.steering) > STEERING_LIMIT + 1e-9:
            raise ValueError(
                f"steering exceeds the {STEERING_LIMIT} rad physical limit")
        if self.speed < 0.0:
            raise ValueError("speed must be >= 0")
        if not 0.0 <= self.brake <= 1.0:
            raise ValueError("brake must be in [0, 1]")


@dataclass(frozen=True)
class CanFrame:
    can_id: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.can_id < 0x800:
            raise ValueError("CAN id must fit in 11 bits")
        if len(self.payload) != 8:
            raise ValueError("payload must be exactly 8 bytes")


@dataclass(frozen=True)
class SubsystemFeedback:
    measured_speed: float = 0.0
    measured_steering: float = 0.0
    brake_pressure: float = 0.0


def _sat(value: float, lo: int, hi: int) -> int:
    return int(min(max(round(value), lo), hi))


def encode_command(cmd: DriveCommand, seq: int = 0) -> CanFrame:
    """Pack a command into its wire frame; scaled values saturate."""
    payload = _COMMAND.pack(
        _sat(cmd.steering * STEERING_SCALE, -32768, 32767),
        _sat(cmd.speed * SPEED_SCALE, -32768, 32767),
        _sat(cmd.brake * BRAKE_SCALE, 0, 65535),
        (int(cmd.kill) & 0x1) | ((int(cmd.mode) & 0x3) << 1),
        seq % 256,
    )
    return CanFrame(COMMAND_FRAME_ID, payload)


def decode_command(frame: CanFrame) -> DriveCommand:
    """Inverse of encode_command up to the wire quantization."""
    if frame.can_id != COMMAND_FRAME_ID:
        raise FrameDecodeError(f"unexpected frame id 0x{frame.can_id:03x}")
    steering, speed, brake, flags, _seq = _COMMAND.unpack(frame.payload)
    return DriveCommand(
        steering=steering / STEERING_SCALE,
        speed=speed / SPEED_SCALE,
        brake=brake / BRAKE_SCALE,
        mode=Mode((flags >> 1) & 0x3),
        kill=bool(flags & 0x1),
    )


# feedback id -> (SubsystemFeedback field, wire scale, payload struct
# (value, five pad bytes, sequence), saturation range of the raw value)
_FEEDBACK = {
    TBWS_FEEDBACK_ID: ("measured_speed", SPEED_SCALE, _INT16, (-32768, 32767)),
    SBWS_FEEDBACK_ID: ("measured_steering", STEERING_SCALE, _INT16,
                       (-32768, 32767)),
    EBS_FEEDBACK_ID: ("brake_pressure", BRAKE_SCALE, _UINT16, (0, 65535)),
}


def encode_feedback(can_id: int, value: float, seq: int = 0) -> CanFrame:
    if can_id not in _FEEDBACK:
        raise ValueError(f"not a feedback id: 0x{can_id:03x}")
    _, scale, payload, (lo, hi) = _FEEDBACK[can_id]
    return CanFrame(can_id, payload.pack(_sat(value * scale, lo, hi),
                                         seq % 256))


def apply_feedback(fb: SubsystemFeedback, frame: CanFrame) -> SubsystemFeedback:
    """Fold one feedback frame into the gathered subsystem state."""
    if frame.can_id not in _FEEDBACK:
        raise FrameDecodeError(f"unexpected frame id 0x{frame.can_id:03x}")
    name, scale, payload, _ = _FEEDBACK[frame.can_id]
    raw, _seq = payload.unpack(frame.payload)
    return SubsystemFeedback(**{**fb.__dict__, name: raw / scale})


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
        selected = {Mode.MANUAL: manual, Mode.REMOTE: remote,
                    Mode.AUTONOMOUS: autonomous}[mode]
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


class CanBus:
    """Single-owner tick-driven queue.

    Producers enqueue frames at any time; `deliver` hands back everything
    queued since the previous tick in CAN arbitration order (lower id wins,
    FIFO within an id).
    """

    def __init__(self):
        self._pending: list[tuple[int, int, CanFrame]] = []
        self._counter = 0

    def send(self, frame: CanFrame) -> None:
        self._pending.append((frame.can_id, self._counter, frame))
        self._counter += 1

    def deliver(self) -> list[CanFrame]:
        self._pending.sort(key=lambda item: (item[0], item[1]))
        frames = [frame for _, _, frame in self._pending]
        self._pending.clear()
        return frames


def format_trace_row(t: float, frame: CanFrame) -> list[str]:
    """One frame-trace CSV record: t_s, id_hex, payload_hex."""
    return [repr(float(t)), f"{frame.can_id:03x}", frame.payload.hex()]

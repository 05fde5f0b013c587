"""Deterministic 2.5-D intersection simulator with a grayscale pinhole renderer.

Two straight orthogonal roads cross at the origin. The sensor vehicle drives
north along the lane x = +lane_offset; the other vehicle approaches per one
of four scenarios:

    1  from the sensor's right, westbound through the crossing
    2  the exact mirror of scenario 1 across the sensor's travel plane
       (eastbound), so mirrored-camera renders match flipped pixel for pixel
    3  head-on in the opposite lane (always a miss)
    4  head-on in the sensor's own lane (always a collision)

Vehicles are oriented rectangles; collision is strict-overlap SAT, so
edge-touching does not count (frames too far apart to touch skip it). Cameras
are pinhole projections rendered by ray casting with the ray-box slab test.
Images are written straight in DPMD's 8-bit storage form, round(255 *
intensity): the other vehicle is a box of intensity 1.0 (byte 255), the
ground plane 0.25 (byte 64), the sky 0.0 (byte 0). Each camera's pixel grid
is built once and cached, with the z slab bounds of each pixel row, which no
frame changes.

An episode runs its physics first: each vehicle's `trajectory`, as per-frame
arrays, since its start state and the frames at which it is told to go fix
its whole motion. The event time (collision, or closest approach) then fixes
which frames are rendered. `run_scenario` alone decides that window: with a
horizon, only the frames within that many seconds up to the event are
rendered and kept, each camera's window in one `render_camera` call, in
blocks of frames small enough to stay in cache. An episode is arrays: one
FRAME_DTYPE record per kept frame, and each camera's window of images aligned
with those records.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

CAMERA_ORDER = ("left_mirror", "dashcam", "right_mirror")


@dataclass(frozen=True)
class WorldConfig:
    """Geometry and dynamics defaults; every value is a configurable substitute."""

    start_distance: float = 40.0
    lane_offset: float = 2.0
    vehicle_length: float = 4.5
    vehicle_width: float = 2.0
    vehicle_height: float = 1.5
    top_speed: float = 10.0
    max_accel: float = 5.0


@dataclass
class VehicleState:
    """A vehicle at one frame, or over frames when x, y, speed and accelerator are arrays."""

    x: float
    y: float
    heading: float          # radians, CCW from +x
    speed: float = 0.0
    torque_cmd: float = 1.0
    accelerator: int = 0    # 0 stop, 1 go
    length: float = 4.5
    width: float = 2.0


@dataclass(frozen=True)
class CameraSpec:
    """Vehicle-mounted pinhole camera.

    mount is (forward, left, up) meters in the vehicle frame; yaw_offset is
    clockwise-positive relative to the vehicle heading, so -pi/4 looks 45
    degrees to the left.
    """

    name: str
    mount: tuple
    yaw_offset: float
    fov: float = math.pi / 2
    rows: int = 32
    cols: int = 32

    def __post_init__(self):
        if not (0.0 < self.fov < math.pi):
            raise ValueError("horizontal FOV must lie in (0, pi)")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("camera resolution must be positive")


def default_cameras(rows=32, cols=32):
    return (
        CameraSpec("left_mirror", (-0.9, 0.7, 1.0), -math.pi / 4, rows=rows, cols=cols),
        CameraSpec("dashcam", (0.5, 0.0, 1.2), 0.0, rows=rows, cols=cols),
        CameraSpec("right_mirror", (-0.9, -0.7, 1.0), math.pi / 4, rows=rows, cols=cols),
    )


MAX_FRAMES = 1_000_000  # an episode's physics holds a few float64 arrays this long


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: int
    delay: float
    dt: float = 0.05
    max_duration: float = 12.0

    def __post_init__(self):
        if self.scenario_id not in (1, 2, 3, 4):
            raise ValueError("scenario_id must be 1..4")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 <= self.max_duration / self.dt <= MAX_FRAMES:
            raise ValueError(f"max_duration / dt must lie in [0, {MAX_FRAMES}] frames")


# One kept frame of an episode: its time and the sensor-side values the
# dataset records (the sensor vehicle's position, speed, torque command and
# accelerator, and the action).
FRAME_DTYPE = np.dtype([("t", "<f8"), ("x", "<f8"), ("y", "<f8"), ("speed", "<f8"),
                        ("torque_cmd", "<f8"), ("accelerator", "<i8"), ("action", "<i8")])


@dataclass
class Episode:
    frames: np.recarray     # one FRAME_DTYPE record per rendered frame
    images: dict            # camera name -> (F, rows, cols) uint8 window, one image per frame
    label: int              # 1 collision, 0 no collision
    event_time: float       # collision time, or time of closest approach


def _snap(v):
    for target in (0.0, 1.0, -1.0):
        if abs(v - target) < 1e-12:
            return target
    return v


def _unit(heading):
    """cos/sin with snapping so axis-aligned headings are exactly axis-aligned."""
    return _snap(math.cos(heading)), _snap(math.sin(heading))


def trajectory(v, go, dt, world=WorldConfig()):
    """v over len(go) frames dt apart from its start state; it speeds up out of frame k if go[k].

    Increments are never negative, so capping their running sum at top_speed
    equals capping each step (given v.speed <= top_speed). A step moves by
    the trapezoid of its old and new speed, exact for piecewise-constant
    acceleration.
    """
    inc = np.where(go[:-1], world.max_accel * v.torque_cmd * dt, 0.0)
    speed = np.minimum(np.add.accumulate(np.concatenate(([v.speed], inc))), world.top_speed)
    dist = 0.5 * (speed[:-1] + speed[1:]) * dt
    c, s = _unit(v.heading)
    return replace(v, x=np.add.accumulate(np.concatenate(([v.x], dist * c))),
                   y=np.add.accumulate(np.concatenate(([v.y], dist * s))),
                   speed=speed, accelerator=go.astype(np.int64))


def _corners(v):
    c, s = _unit(v.heading)
    hl, hw = v.length / 2.0, v.width / 2.0
    return [
        (v.x + dx * c - dy * s, v.y + dx * s + dy * c)
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


def detect_collision(a, b):
    """Strict-overlap separating-axis test on the two oriented rectangles."""
    pa, pb = _corners(a), _corners(b)
    for poly in (pa, pb):
        for i in range(4):
            ex = poly[(i + 1) % 4][0] - poly[i][0]
            ey = poly[(i + 1) % 4][1] - poly[i][1]
            ax, ay = -ey, ex
            d1 = [p[0] * ax + p[1] * ay for p in pa]
            d2 = [p[0] * ax + p[1] * ay for p in pb]
            if max(d1) <= min(d2) or max(d2) <= min(d1):
                return False
    return True


def first_collision(a, b):
    """First frame at which trajectories a and b collide, or None. Centres farther
    apart along x or y than the sum of the half-diagonals (plus 1e-6, far above
    the corners' rounding) cannot overlap; only the other frames run the SAT."""
    reach = 0.5 * (math.hypot(a.length, a.width) + math.hypot(b.length, b.width)) + 1e-6
    near = (np.abs(a.x - b.x) <= reach) & (np.abs(a.y - b.y) <= reach)
    return next((k for k in np.flatnonzero(near) if detect_collision(
        replace(a, x=a.x[k], y=a.y[k]), replace(b, x=b.x[k], y=b.y[k]))), None)


# Rendered pixel values in storage form (sky is 0): rint(255 * 0.25) and 255 * 1.0.
GROUND_BYTE = 64
VEHICLE_BYTE = 255

# Pixels per frame block in `render_camera`: a whole window's temporaries
# overflow a 2 MB L2 cache, 8 frames of 32x32 stay inside it.
RENDER_BLOCK_PIXELS = 8192


@functools.lru_cache(maxsize=64)
def _camera_rays(cam, height):
    """Per-camera constants of `render_camera`, built once per CameraSpec and box height.

    Returns the focal length in pixels, the (cols,) pixel-centre offsets u
    (left-positive), the (rows, 1) mask of rays below the horizon, and the
    (rows, 1) distances where each row's rays enter and leave the z slab
    [0, height], which no frame changes. The arrays are shared, so read-only.
    """
    focal = (cam.cols / 2.0) / math.tan(cam.fov / 2.0)
    u = cam.cols / 2.0 - (np.arange(cam.cols) + 0.5)                # left-positive
    v = (cam.rows / 2.0 - (np.arange(cam.rows) + 0.5))[:, None]     # up-positive
    d = np.where(v == 0.0, 1e-300, v)
    t1 = (0.0 - cam.mount[2]) / d
    t2 = (height - cam.mount[2]) / d
    rays = (u, v < 0, np.minimum(t1, t2), np.maximum(t1, t2))
    for arr in rays:
        arr.flags.writeable = False
    return (focal, *rays)


def render_camera(sensor, other, cam, world=WorldConfig()):
    """Ray-cast one camera over a window; returns (F, rows, cols) uint8 storage bytes.

    Frame i views other's box at its i-th x and y from sensor at its i-th x
    and y. Headings are constant, so a ray's ground-plane direction depends
    only on its pixel column; the x and y slabs are solved per (frame,
    column) and meet each row's cached z slab in blocks of
    RENDER_BLOCK_PIXELS pixels (at least one frame). min and max are exact,
    so no order of the slabs changes a pixel.
    """
    focal, u, below, z_near, z_far = _camera_rays(cam, world.vehicle_height)
    ch, sh = _unit(sensor.heading)
    cb, sb = _unit(other.heading)
    cc, sc = _unit(sensor.heading - cam.yaw_offset)
    px = sensor.x + cam.mount[0] * ch - cam.mount[1] * sh
    py = sensor.y + cam.mount[0] * sh + cam.mount[1] * ch
    # ray origin in the box frame (x along the vehicle), one per frame
    ox = np.reshape((px - other.x) * cb + (py - other.y) * sb, (-1, 1, 1))
    oy = np.reshape(-(px - other.x) * sb + (py - other.y) * cb, (-1, 1, 1))

    dx = focal * cc - u * sc                # (cols,)
    dy = focal * sc + u * cc
    bdx = dx * cb + dy * sb
    bdy = -dx * sb + dy * cb
    xy_near, xy_far = -np.inf, np.inf
    for o, d, half in ((ox, bdx, other.length / 2.0), (oy, bdy, other.width / 2.0)):
        d = np.where(d == 0.0, 1e-300, d)
        t1 = (-half - o) / d
        t2 = (half - o) / d
        xy_near = np.maximum(xy_near, np.minimum(t1, t2))
        xy_far = np.minimum(xy_far, np.maximum(t1, t2))

    img = np.empty((len(ox), cam.rows, cam.cols), np.uint8)
    img[:] = np.where(below, GROUND_BYTE, 0)
    step = max(1, RENDER_BLOCK_PIXELS // (cam.rows * cam.cols))
    for i in range(0, len(img), step):
        t_near = np.maximum(z_near, xy_near[i:i + step])
        t_far = np.minimum(z_far, xy_far[i:i + step])
        np.copyto(img[i:i + step], VEHICLE_BYTE,
                  where=(t_near <= t_far) & (t_near > 0.0))
    return img


def scenario_start_states(scenario_id, world=WorldConfig()):
    """Initial (sensor, other) pair for one of the four scenarios."""
    d, lane = world.start_distance, world.lane_offset
    others = {1: (d, lane, math.pi),
              2: (2.0 * lane - d, lane, 0.0),  # scenario 1 mirrored across x = lane_offset
              3: (-lane, d, -math.pi / 2),
              4: (lane, d, -math.pi / 2)}
    if scenario_id not in others:
        raise ValueError("scenario_id must be 1..4")
    dims = dict(length=world.vehicle_length, width=world.vehicle_width)
    return (VehicleState(lane, -d, math.pi / 2, **dims),
            VehicleState(*others[scenario_id], **dims))


def run_scenario(spec, cams=(), world=WorldConfig(), horizon=None):
    """Simulate one episode at 1/dt Hz until collision or max duration.

    Both vehicles start stationary; the other vehicle is commanded to go at
    t=0, the sensor vehicle at t=delay. Frames record only sensor-side data.
    The physics runs first, and no frame after the first collision is kept;
    the event time then fixes which frames are rendered. With `horizon` set,
    only the frames in [event - horizon, event] are rendered and returned,
    with 1e-9 s of slack at both ends since frame times are computed as
    k * dt; with None, every frame is.
    """
    sensor, other = scenario_start_states(spec.scenario_id, world)
    t = np.arange(math.floor(spec.max_duration / spec.dt + 1e-9) + 1) * spec.dt
    go = t + 1e-12 >= spec.delay
    sensor = trajectory(sensor, go, spec.dt, world)
    other = trajectory(other, np.ones_like(go), spec.dt, world)
    hit = first_collision(sensor, other)
    if hit is None:
        # math.hypot, not np.hypot: the two may differ in the last bit
        dist = list(map(math.hypot, (sensor.x - other.x).tolist(), (sensor.y - other.y).tolist()))
        label, event = 0, dist.index(min(dist))
    else:
        label, event = 1, hit
        t = t[:hit + 1]
    event_time = float(t[event])
    keep = slice(len(t))
    if horizon is not None:
        keep = np.flatnonzero((event_time - horizon - 1e-9 <= t) & (t <= event_time + 1e-9))
    sensor, other = (replace(v, x=v.x[keep], y=v.y[keep], speed=v.speed[keep],
                             accelerator=v.accelerator[keep]) for v in (sensor, other))
    frames = np.recarray(len(sensor.x), FRAME_DTYPE)
    frames.t, frames.x, frames.y, frames.speed = t[keep], sensor.x, sensor.y, sensor.speed
    frames.torque_cmd = sensor.torque_cmd
    frames.accelerator = frames.action = sensor.accelerator
    images = {cam.name: render_camera(sensor, other, cam, world) for cam in cams}
    return Episode(frames=frames, images=images, label=label, event_time=event_time)


def bisect_delay_threshold(scenario_id, world=WorldConfig(), dt=0.05,
                           max_duration=12.0, hi=8.0, tol=0.01):
    """Delay at which a scenario flips from collision to no-collision.

    Uses the simulator itself as the oracle; only meaningful for the
    delay-controlled scenarios (1 and 2).
    """

    def collides(delay):
        spec = ScenarioSpec(scenario_id, delay, dt=dt, max_duration=max_duration)
        return run_scenario(spec, cams=(), world=world).label == 1

    lo = 0.0
    if not collides(lo):
        raise ValueError(f"scenario {scenario_id} does not collide at zero delay")
    while collides(hi):
        hi *= 2.0
        if hi > 64.0:
            raise ValueError(f"scenario {scenario_id} still collides at delay {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if collides(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


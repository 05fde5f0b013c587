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
edge-touching does not count (pairs too far apart to touch skip it). Cameras
are pinhole projections rendered by ray casting with the ray-box slab test:
the other vehicle is a box of intensity 1.0, the ground plane 0.25, the sky
0.0. Each camera's pixel grid is built once and cached, with the z slab
bounds of each pixel row, which no frame changes.

An episode runs its physics first; the event time (collision, or closest
approach) then fixes which frames are rendered. `run_scenario` alone decides
that window: with a horizon, only the frames within that many seconds up to
the event are rendered and kept, each camera's window in one `render_camera`
call, in blocks of frames small enough to stay in cache. An episode is
arrays: one FRAME_DTYPE record per kept frame, and each camera's window of
images aligned with those records.
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
    ground_intensity: float = 0.25
    vehicle_intensity: float = 1.0


@dataclass
class VehicleState:
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


# One kept frame of an episode: its time and the sensor-side values the
# dataset records (the sensor vehicle's position, speed, torque command and
# accelerator, and the action).
FRAME_DTYPE = np.dtype([("t", "<f8"), ("x", "<f8"), ("y", "<f8"), ("speed", "<f8"),
                        ("torque_cmd", "<f8"), ("accelerator", "<i8"), ("action", "<i8")])


@dataclass
class Episode:
    frames: np.recarray     # one FRAME_DTYPE record per rendered frame
    images: dict            # camera name -> (F, rows, cols) window in [0, 1], one image per frame
    label: int              # 1 collision, 0 no collision
    event_time: float       # collision time, or time of closest approach


def _snap(v):
    for target in (0.0, 1.0, -1.0):
        if abs(v - target) < 1e-12:
            return target
    return v


@functools.lru_cache(maxsize=256)
def _unit(heading):
    """cos/sin with snapping so axis-aligned headings are exactly axis-aligned."""
    return _snap(math.cos(heading)), _snap(math.sin(heading))


def _step_vehicle(v, dt, world):
    if v.accelerator:
        new_speed = min(v.speed + world.max_accel * v.torque_cmd * dt, world.top_speed)
    else:
        new_speed = v.speed
    # trapezoid of old/new speed: exact for piecewise-constant acceleration
    dist = 0.5 * (v.speed + new_speed) * dt
    c, s = _unit(v.heading)
    return VehicleState(v.x + dist * c, v.y + dist * s, v.heading, new_speed, v.torque_cmd,
                        v.accelerator, v.length, v.width)


def step_world(state, dt, world=WorldConfig()):
    """Advance the (sensor, other) pair by one time step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    sensor, other = state
    return _step_vehicle(sensor, dt, world), _step_vehicle(other, dt, world)


def _corners(v):
    c, s = _unit(v.heading)
    hl, hw = v.length / 2.0, v.width / 2.0
    return [
        (v.x + dx * c - dy * s, v.y + dx * s + dy * c)
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


def detect_collision(a, b):
    """Strict-overlap separating-axis test on the two oriented rectangles.

    Centres farther apart along x or y than the sum of the half-diagonals
    (plus 1e-6, far above the corners' rounding) cannot overlap: no SAT.
    """
    reach = 0.5 * (math.hypot(a.length, a.width) + math.hypot(b.length, b.width)) + 1e-6
    if abs(a.x - b.x) > reach or abs(a.y - b.y) > reach:
        return False
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


def render_camera(sensors, others, cam, world=WorldConfig()):
    """Ray-cast one camera over a window; returns (F, rows, cols) images in [0, 1].

    Frame i views the box of others[i] from sensors[i]. A ray's ground-plane
    direction depends only on its pixel column, so the x and y slabs are
    solved per (frame, column) from per-frame Python-float scalars; they meet
    each row's cached z slab in blocks of RENDER_BLOCK_PIXELS pixels (at
    least one frame). min and max are exact, so no order of the slabs
    changes a pixel.
    """
    focal, u, below, z_near, z_far = _camera_rays(cam, world.vehicle_height)
    scalars = []
    for s, o in zip(sensors, others):
        ch, sh = _unit(s.heading)
        px = s.x + cam.mount[0] * ch - cam.mount[1] * sh
        py = s.y + cam.mount[0] * sh + cam.mount[1] * ch
        cb, sb = _unit(o.heading)
        # ray origin in the box frame (x along the vehicle)
        ox = (px - o.x) * cb + (py - o.y) * sb
        oy = -(px - o.x) * sb + (py - o.y) * cb
        scalars.append((*_unit(s.heading - cam.yaw_offset), cb, sb, ox, oy,
                        o.length / 2.0, o.width / 2.0))
    cc, sc, cb, sb, ox, oy, hl, hw = np.array(scalars).reshape(-1, 8).T[:, :, None, None]

    dx = focal * cc - u * sc                # (F, 1, cols)
    dy = focal * sc + u * cc
    bdx = dx * cb + dy * sb
    bdy = -dx * sb + dy * cb
    xy_near, xy_far = -np.inf, np.inf
    for o, d, half in ((ox, bdx, hl), (oy, bdy, hw)):
        d = np.where(d == 0.0, 1e-300, d)
        t1 = (-half - o) / d
        t2 = (half - o) / d
        xy_near = np.maximum(xy_near, np.minimum(t1, t2))
        xy_far = np.minimum(xy_far, np.maximum(t1, t2))

    img = np.empty((len(scalars), cam.rows, cam.cols))
    img[:] = np.where(below, world.ground_intensity, 0.0)
    step = max(1, RENDER_BLOCK_PIXELS // (cam.rows * cam.cols))
    for i in range(0, len(img), step):
        t_near = np.maximum(z_near, xy_near[i:i + step])
        t_far = np.minimum(z_far, xy_far[i:i + step])
        np.copyto(img[i:i + step], world.vehicle_intensity,
                  where=(t_near <= t_far) & (t_near > 0.0))
    return img


def scenario_start_states(scenario_id, world=WorldConfig()):
    """Initial (sensor, other) pair for one of the four scenarios."""
    dims = dict(length=world.vehicle_length, width=world.vehicle_width)
    sensor = VehicleState(world.lane_offset, -world.start_distance, math.pi / 2, **dims)
    if scenario_id == 1:
        other = VehicleState(world.start_distance, world.lane_offset, math.pi, **dims)
    elif scenario_id == 2:
        # exact mirror of scenario 1 across the plane x = lane_offset
        other = VehicleState(2.0 * world.lane_offset - world.start_distance,
                             world.lane_offset, 0.0, **dims)
    elif scenario_id == 3:
        other = VehicleState(-world.lane_offset, world.start_distance, -math.pi / 2, **dims)
    elif scenario_id == 4:
        other = VehicleState(world.lane_offset, world.start_distance, -math.pi / 2, **dims)
    else:
        raise ValueError("scenario_id must be 1..4")
    return sensor, other


def run_scenario(spec, cams=(), world=WorldConfig(), horizon=None):
    """Simulate one episode at 1/dt Hz until collision or max duration.

    Both vehicles start stationary; the other vehicle is commanded to go at
    t=0, the sensor vehicle at t=delay. Frames record only sensor-side data.
    The physics runs first; the event time then fixes which frames are
    rendered. With `horizon` set, only the frames in [event - horizon, event]
    are rendered and returned, with 1e-9 s of slack at both ends since frame
    times are computed as k * dt; with None, every frame is.
    """
    sensor, other = scenario_start_states(spec.scenario_id, world)
    other = replace(other, accelerator=1)
    n_steps = int(math.floor(spec.max_duration / spec.dt + 1e-9))
    states = []             # (t, sensor, other, action) per frame
    label = 0
    event_time = 0.0
    best_dist = math.inf
    for k in range(n_steps + 1):
        t = k * spec.dt
        go = 1 if t + 1e-12 >= spec.delay else 0
        if sensor.accelerator != go:
            sensor = replace(sensor, accelerator=go)
        states.append((t, sensor, other, go))
        if detect_collision(sensor, other):
            label = 1
            event_time = t
            break
        dist = math.hypot(sensor.x - other.x, sensor.y - other.y)
        if dist < best_dist:
            best_dist = dist
            event_time = t
        sensor, other = step_world((sensor, other), spec.dt, world)
    if horizon is not None:
        states = [s for s in states if event_time - horizon - 1e-9 <= s[0] <= event_time + 1e-9]
    # step_world returns new states, so a frame's sensor is never mutated later
    sensors = [s for _t, s, _o, _go in states]
    others = [o for _t, _s, o, _go in states]
    frames = np.array([(t, s.x, s.y, s.speed, s.torque_cmd, s.accelerator, go)
                       for t, s, _o, go in states], dtype=FRAME_DTYPE).view(np.recarray)
    images = {cam.name: render_camera(sensors, others, cam, world) for cam in cams}
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


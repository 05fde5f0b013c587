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
edge-touching does not count. Cameras are pinhole projections rendered by
ray casting: the other vehicle is a box of intensity 1.0, the ground plane
0.25, the sky 0.0. Each camera's pixel grid is built once and cached.

An episode runs its physics first; the event time (collision, or closest
approach) then fixes which frames are rendered. `gen-data` keeps only the
`data.horizon` seconds before the event, and renders only those frames.
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


@dataclass
class SimFrame:
    t: float
    images: dict            # camera name -> (rows, cols, 1) array in [0, 1]
    sensor: VehicleState
    action: int


@dataclass
class Episode:
    frames: list
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


def _step_vehicle(v, dt, world):
    if v.accelerator:
        new_speed = min(v.speed + world.max_accel * v.torque_cmd * dt, world.top_speed)
    else:
        new_speed = v.speed
    # trapezoid of old/new speed: exact for piecewise-constant acceleration
    dist = 0.5 * (v.speed + new_speed) * dt
    c, s = _unit(v.heading)
    return replace(v, x=v.x + dist * c, y=v.y + dist * s, speed=new_speed)


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


@functools.lru_cache(maxsize=64)
def _camera_rays(cam):
    """Per-camera constants of `render_camera`, built once per CameraSpec.

    Returns the focal length in pixels, the (rows, cols) pixel-centre offsets
    uu (left-positive) and vv (up-positive), and the mask of rays that point
    below the horizon. The arrays are shared by every call, so read-only.
    """
    focal = (cam.cols / 2.0) / math.tan(cam.fov / 2.0)
    u = cam.cols / 2.0 - (np.arange(cam.cols) + 0.5)        # left-positive
    v = cam.rows / 2.0 - (np.arange(cam.rows) + 0.5)        # up-positive
    uu, vv = np.meshgrid(u, v)
    below = vv < 0
    for arr in (uu, vv, below):
        arr.flags.writeable = False
    return focal, uu, vv, below


def render_camera(sensor, other, cam, world=WorldConfig()):
    """Ray-cast one camera view; returns a (rows, cols, 1) image in [0, 1]."""
    ch, sh = _unit(sensor.heading)
    px = sensor.x + cam.mount[0] * ch - cam.mount[1] * sh
    py = sensor.y + cam.mount[0] * sh + cam.mount[1] * ch
    pz = cam.mount[2]
    cc, sc = _unit(sensor.heading - cam.yaw_offset)

    focal, uu, dz, below = _camera_rays(cam)
    dx = focal * cc - uu * sc
    dy = focal * sc + uu * cc

    img = np.zeros((cam.rows, cam.cols))
    img[below] = world.ground_intensity

    if other is not None:
        cb, sb = _unit(other.heading)
        # ray origin and direction in the box frame (x along the vehicle)
        ox = (px - other.x) * cb + (py - other.y) * sb
        oy = -(px - other.x) * sb + (py - other.y) * cb
        oz = pz
        bdx = dx * cb + dy * sb
        bdy = -dx * sb + dy * cb
        bdz = dz
        t_near = np.full(dx.shape, -np.inf)
        t_far = np.full(dx.shape, np.inf)
        for o, d, lo, hi in (
            (ox, bdx, -other.length / 2.0, other.length / 2.0),
            (oy, bdy, -other.width / 2.0, other.width / 2.0),
            (oz, bdz, 0.0, world.vehicle_height),
        ):
            d = np.where(d == 0.0, 1e-300, d)
            t1 = (lo - o) / d
            t2 = (hi - o) / d
            t_near = np.maximum(t_near, np.minimum(t1, t2))
            t_far = np.minimum(t_far, np.maximum(t1, t2))
        hit = (t_near <= t_far) & (t_near > 0.0)
        img[hit] = world.vehicle_intensity
    return img[:, :, None]


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


def in_window(t, event_time, horizon):
    """Whether a frame at time t lies within `horizon` seconds up to the event.

    The window is [event - horizon, event] with 1e-9 s of slack at both ends,
    since frame times are computed as k * dt. `run_scenario` and
    `data.truncate_episode` both keep frames by this test.
    """
    return event_time - horizon - 1e-9 <= t <= event_time + 1e-9


def run_scenario(spec, cams=(), world=WorldConfig(), horizon=None):
    """Simulate one episode at 1/dt Hz until collision or max duration.

    Both vehicles start stationary; the other vehicle is commanded to go at
    t=0, the sensor vehicle at t=delay. Frames record only sensor-side data.
    The physics runs first; the event time then fixes which frames are
    rendered. With `horizon` set, only the frames `in_window` of the event
    are rendered and returned; with None, every frame is.
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
        states = [s for s in states if in_window(s[0], event_time, horizon)]
    # step_world returns new states, so a frame's sensor is never mutated later
    frames = [SimFrame(t=t, images={cam.name: render_camera(s, o, cam, world) for cam in cams},
                       sensor=s, action=go)
              for t, s, o, go in states]
    return Episode(frames=frames, label=label, event_time=event_time)


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


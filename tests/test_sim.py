"""Simulator tests: kinematics closed forms, SAT boundaries, rendering, labels."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    pack_frames,
    quantize_image,
    render_frame,
    step_world,
    tick_scenario,
    tick_states,
)

from crashcast.data import truncate_episode
from crashcast.sim import (
    MAX_FRAMES,
    RENDER_BLOCK_PIXELS,
    CameraSpec,
    Episode,
    ScenarioSpec,
    VehicleState,
    WorldConfig,
    _camera_rays,
    bisect_delay_threshold,
    default_cameras,
    detect_collision,
    first_collision,
    render_camera,
    run_scenario,
    scenario_start_states,
    trajectory,
)


def closed_form_distance(t, a=5.0, top=10.0):
    """Piecewise 0.5 a t^2 until the speed cap, then linear."""
    t_cap = top / a
    if t <= t_cap:
        return 0.5 * a * t * t
    return 0.5 * a * t_cap * t_cap + top * (t - t_cap)


def _per_tick(v, go, dt):
    """(x, y, speed) of v at each frame, stepped one tick at a time by the oracle."""
    out = []
    for g in go:
        v = replace(v, accelerator=int(g))
        out.append((v.x, v.y, v.speed))
        v, _ = step_world((v, v), dt)
    return out


def _run(v, go, dt):
    """trajectory of v, checked against the per-tick oracle bit for bit."""
    run = trajectory(v, np.asarray(go), dt)
    assert list(zip(run.x.tolist(), run.y.tolist(), run.speed.tolist())) == _per_tick(v, go, dt)
    assert run.accelerator.tolist() == [int(g) for g in go]
    return run


def test_step_world_stopped_vehicle_unchanged():
    run = _run(VehicleState(1.0, 2.0, 0.3), [False] * 20, 0.05)
    assert (run.x == 1.0).all() and (run.y == 2.0).all() and (run.speed == 0.0).all()


def test_step_world_reaches_top_speed_in_two_seconds():
    run = _run(VehicleState(0.0, 0.0, 0.0, torque_cmd=1.0), [True] * 45, 0.05)
    assert (run.speed[:40] < 10.0).all()
    assert run.speed[40] == pytest.approx(10.0, abs=1e-12)
    assert (run.speed[41:] == 10.0).all()


def test_step_world_position_matches_piecewise_kinematics():
    run = _run(VehicleState(0.0, 0.0, 0.0), [True] * 61, 0.05)
    for k in range(1, 61):
        assert run.x[k] == pytest.approx(closed_form_distance(k * 0.05), abs=1e-9)
    assert run.x[60] == pytest.approx(20.0, abs=1e-9)  # 10 m accelerating + 10 m cruising
    # a vehicle told to go late stands still until then
    late = _run(VehicleState(0.0, 0.0, 0.0), [False] * 10 + [True] * 51, 0.05)
    assert (late.x[:11] == 0.0).all()
    assert late.x[60] == pytest.approx(closed_form_distance(2.5), abs=1e-9)


def test_step_world_heading_respected():
    run = _run(VehicleState(0.0, 0.0, math.pi / 2, speed=4.0), [False] * 2, 0.5)
    assert run.x[1] == pytest.approx(0.0, abs=1e-12)
    assert run.y[1] == pytest.approx(2.0, abs=1e-12)


def test_detect_collision_basic():
    a = VehicleState(0.0, 0.0, 0.0)
    assert detect_collision(a, VehicleState(0.0, 0.0, 0.0))
    assert not detect_collision(a, VehicleState(100.0, 0.0, 0.0))


def test_detect_collision_touching_is_not_collision():
    a = VehicleState(0.0, 0.0, 0.0, length=4.5, width=2.0)
    touching = VehicleState(4.5, 0.0, 0.0, length=4.5, width=2.0)
    overlapping = VehicleState(4.4, 0.0, 0.0, length=4.5, width=2.0)
    assert not detect_collision(a, touching)
    assert detect_collision(a, overlapping)


def test_detect_collision_rotated():
    a = VehicleState(0.0, 0.0, 0.0, length=4.5, width=2.0)
    b = VehicleState(0.0, 3.0, math.pi / 2, length=4.5, width=2.0)  # crossing T
    assert detect_collision(a, b)
    c = VehicleState(4.0, 4.0, math.pi / 4, length=4.5, width=2.0)
    assert not detect_collision(a, c)


def _window(*states):
    """One vehicle over a window of its scalar states: x and y as per-frame arrays."""
    return replace(states[0], x=np.array([v.x for v in states]),
                   y=np.array([v.y for v in states]))


def test_render_empty_frustum_has_no_vehicle_pixels():
    cam = default_cameras()[1]
    sensor = VehicleState(0.0, 0.0, math.pi / 2)
    behind = VehicleState(0.0, -100.0, math.pi / 2)
    img = render_camera(_window(sensor), _window(behind), cam)[0]
    assert not (img == 255).any()
    # ground fills the lower half, sky the upper half
    assert (img[16:, :] == 64).all()
    assert (img[:16, :] == 0).all()


def test_render_dead_ahead_blob_is_centred():
    cam = default_cameras()[1]
    sensor = VehicleState(0.0, 0.0, math.pi / 2)
    other = VehicleState(0.0, 10.0, math.pi / 2)
    img = render_camera(_window(sensor), _window(other), cam)[0]
    rows, cols = np.nonzero(img == 255)
    assert len(cols) > 0
    assert abs(cols.mean() - (img.shape[1] - 1) / 2.0) <= 1.0


def test_render_values_and_determinism():
    cam = default_cameras()[0]
    sensor, other = scenario_start_states(1)
    a = render_camera(_window(sensor), _window(other), cam)[0]
    b = render_camera(_window(sensor), _window(other), cam)[0]
    assert (a == b).all()
    assert a.shape == (32, 32) and a.dtype == np.uint8
    assert set(np.unique(a).tolist()) <= {0, 64, 255}


def test_camera_spec_validation():
    with pytest.raises(ValueError):
        CameraSpec("bad", (0, 0, 1), 0.0, fov=math.pi)
    with pytest.raises(ValueError):
        CameraSpec("bad", (0, 0, 1), 0.0, rows=0)


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(5, 0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(1, -1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(1, 0.0, dt=0.0)
    # the frame budget: at most MAX_FRAMES steps, and none negative
    ScenarioSpec(1, 0.0, dt=1.0, max_duration=float(MAX_FRAMES))
    for dt, duration in ((1.0, MAX_FRAMES + 1.0), (1e-9, 12.0), (0.05, 1e12), (0.05, -1.0)):
        with pytest.raises(ValueError, match="frames"):
            ScenarioSpec(1, 0.0, dt=dt, max_duration=duration)


def test_scenario_timestamps_and_frame_budget():
    ep = run_scenario(ScenarioSpec(3, 0.7))
    assert len(ep.frames) <= 12.0 / 0.05 + 1
    for k, t in enumerate(ep.frames.t):
        assert t == k * 0.05
    assert ep.label == 0


def test_scenario_4_always_collides_and_3_never():
    rng = np.random.default_rng(71)
    for _ in range(12):
        delay = float(rng.uniform(0, 3))
        assert run_scenario(ScenarioSpec(4, delay)).label == 1
        assert run_scenario(ScenarioSpec(3, delay)).label == 0


def test_label_matches_collision_replay():
    """Episode.label agrees with a frame-by-frame collision re-simulation."""
    for sid, delay in ((1, 0.05), (1, 1.0), (4, 0.3), (3, 0.4)):
        spec = ScenarioSpec(sid, delay)
        ep = run_scenario(spec)
        sensor, other = scenario_start_states(sid)
        other = replace(other, accelerator=1)
        hit = False
        for k in range(len(ep.frames)):
            t = k * spec.dt
            sensor = replace(sensor, accelerator=1 if t + 1e-12 >= delay else 0)
            if detect_collision(sensor, other):
                hit = True
                assert ep.event_time == t
                break
            sensor, other = step_world((sensor, other), spec.dt)
        assert hit == (ep.label == 1)


def test_delay_threshold_monotone_labels():
    d_star = bisect_delay_threshold(1)
    assert 0.0 < d_star < 4.0
    below = max(0.0, d_star - 0.5)
    assert run_scenario(ScenarioSpec(1, below)).label == 1
    assert run_scenario(ScenarioSpec(1, d_star + 0.5)).label == 0
    # scenario 2 is the mirror image: same threshold
    d_star2 = bisect_delay_threshold(2)
    assert d_star2 == pytest.approx(d_star, abs=0.02)


def test_scenario_mirror_renders():
    """Scenario 2 is scenario 1 mirrored: swapped mirror cams render flipped."""
    cams = default_cameras()
    for delay in (0.15, 0.45):
        ep1 = run_scenario(ScenarioSpec(1, delay), cams)
        ep2 = run_scenario(ScenarioSpec(2, delay), cams)
        assert len(ep1.frames) == len(ep2.frames)
        assert ep1.label == ep2.label
        # frame by frame, flipped across the image columns
        assert np.array_equal(ep2.images["left_mirror"],
                              np.flip(ep1.images["right_mirror"], axis=2))
        assert np.array_equal(ep2.images["right_mirror"],
                              np.flip(ep1.images["left_mirror"], axis=2))
        assert np.array_equal(ep2.images["dashcam"],
                              np.flip(ep1.images["dashcam"], axis=2))


def test_no_collision_event_time_is_closest_approach():
    spec = ScenarioSpec(3, 0.5)
    ep = run_scenario(spec)
    sensor, other = scenario_start_states(3)
    other = replace(other, accelerator=1)
    best = (math.inf, None)
    for k in range(len(ep.frames)):
        t = k * spec.dt
        sensor = replace(sensor, accelerator=1 if t + 1e-12 >= spec.delay else 0)
        dist = math.hypot(sensor.x - other.x, sensor.y - other.y)
        if dist < best[0]:
            best = (dist, t)
        sensor, other = step_world((sensor, other), spec.dt)
    assert ep.event_time == best[1]


def test_render_is_pure():
    cam = default_cameras()[1]
    sensor, other = (_window(v) for v in scenario_start_states(1))
    sx, ox = sensor.x.copy(), other.x.copy()
    render_camera(sensor, other, cam)[0]
    assert (sensor.x == sx).all() and (other.x == ox).all()


def test_episode_records_sensor_side_only():
    ep = run_scenario(ScenarioSpec(1, 0.2), default_cameras(rows=4, cols=4))
    assert isinstance(ep, Episode)
    f = ep.frames[0]
    assert set(ep.images) == {"left_mirror", "dashcam", "right_mirror"}
    assert f.y == pytest.approx(-40.0)
    assert f.action in (0, 1)


def test_camera_rays_are_cached_read_only():
    cam = CameraSpec("dashcam", (0.5, 0.0, 1.2), 0.0, rows=5, cols=7)
    focal, u, below, z_near, z_far = _camera_rays(cam, 1.5)
    again = _camera_rays(CameraSpec("dashcam", (0.5, 0.0, 1.2), 0.0, rows=5, cols=7), 1.5)
    assert again[1] is u and again[2] is below and again[3] is z_near
    assert u.shape == (7,) and below.shape == z_near.shape == z_far.shape == (5, 1)
    for arr in (u, below, z_near, z_far):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def _assert_same_frames(got, want, keep):
    """got holds want's frames where keep holds: times, sensor fields, actions
    and image bytes."""
    assert got.frames.tobytes() == want.frames[keep].tobytes()
    assert got.images.keys() == want.images.keys()
    for name in want.images:
        assert got.images[name].tobytes() == want.images[name][keep].tobytes()


@pytest.fixture(scope="module")
def d_star():
    return bisect_delay_threshold(1)


@pytest.mark.parametrize("horizon", [5.0, 1.5, -1.0])
@pytest.mark.parametrize("side", [-1, 1], ids=["below_d_star", "above_d_star"])
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_horizon_bounded_run_renders_only_the_kept_window(sid, side, horizon, d_star):
    """The horizon window run_scenario renders, packed by truncate_episode, equals
    the per-frame oracle's packing of the full run byte for byte, for 3-camera
    6x6 and 5x7 sets and a 1-camera set. A window with no frame (horizon -1)
    gives zero records of the episode's own dtype."""
    spec = ScenarioSpec(sid, max(0.0, d_star + 0.15 * side))
    for cams in (default_cameras(6, 6), default_cameras(5, 7), default_cameras(6, 6)[:1]):
        full = run_scenario(spec, cams)
        bounded = run_scenario(spec, cams, horizon=horizon)
        if sid in (1, 2):
            assert full.label == (1 if side < 0 else 0)
        assert (bounded.label, bounded.event_time) == (full.label, full.event_time)
        t = full.frames.t
        _assert_same_frames(bounded, full, (full.event_time - horizon - 1e-9 <= t)
                            & (t <= full.event_time + 1e-9))
        kept, want = truncate_episode(bounded), pack_frames(full, horizon)
        assert len(kept) == len(bounded.frames) == len(want)
        assert (len(kept) == 0) == (horizon < 0)
        assert kept.dtype == want.dtype and kept.tobytes() == want.tobytes()


def test_horizon_bounded_run_clamps_at_episode_start():
    cams = default_cameras(rows=4, cols=4)
    spec = ScenarioSpec(3, 0.05)
    full = run_scenario(spec, cams)
    bounded = run_scenario(spec, cams, horizon=6.0)
    assert full.event_time < 6.0 < full.frames.t[-1]
    assert bounded.frames.t[0] == 0.0
    _assert_same_frames(bounded, full, full.frames.t <= full.event_time + 1e-9)
    # a window that holds no frame gives an empty episode, and nothing to keep
    empty = run_scenario(spec, cams, horizon=-1.0)
    assert len(empty.frames) == 0 and len(truncate_episode(empty)) == 0


@pytest.mark.parametrize("rows, cols", [(32, 32), (6, 6), (5, 7), (100, 100)])
@pytest.mark.parametrize("side", [-1, 1], ids=["below_d_star", "above_d_star"])
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_window_render_equals_per_frame_oracle(sid, side, rows, cols, d_star):
    """A window rendered in blocks equals its frames ray-cast one by one, byte
    for byte: windows of 1, block - 1, block, block + 1 and 101 frames from
    the start of a 12 s run, and the window gen-data keeps of the episode."""
    spec = ScenarioSpec(sid, max(0.0, d_star + 0.15 * side))
    states = tick_states(spec, to_collision=False)
    kept = run_scenario(spec, horizon=5.0).frames
    kept_states = [states[round(t / spec.dt)] for t in kept.t]
    assert ([(s.x, s.y, s.speed, s.torque_cmd, s.accelerator) for _t, s, _o in kept_states]
            == [(f.x, f.y, f.speed, f.torque_cmd, f.accelerator) for f in kept])
    block = max(1, RENDER_BLOCK_PIXELS // (rows * cols))
    windows = [states[:n] for n in sorted({1, block - 1, block, block + 1, 101} - {0})]
    assert max(map(len, windows)) == max(block + 1, 101)
    world = WorldConfig()
    for cam in default_cameras(rows, cols):
        want = {id(s): quantize_image(render_frame(s, o, cam, world)) for _t, s, o in states}
        for window in windows + [kept_states]:
            got = render_camera(_window(*[s for _t, s, _o in window]),
                                _window(*[o for _t, _s, o in window]), cam, world)
            assert got.shape == (len(window), rows, cols)
            assert got.tobytes() == np.stack([want[id(s)] for _t, s, _o in window]).tobytes()


def test_broad_phase_equals_full_sat_near_its_cut_off():
    """Pairs whose centre offset along x or y lies within 1e-3 of the early-exit
    distance, at random headings and with diagonals turned towards each other."""
    rng = np.random.default_rng(19)
    outcomes = []
    for i in range(4000):
        la, lb = rng.uniform(1.0, 6.0, 2)
        wa, wb = rng.uniform(0.5, 3.0, 2)
        reach = 0.5 * (math.hypot(la, wa) + math.hypot(lb, wb)) + 1e-6
        near = reach + rng.uniform(-1e-3, 1e-3)
        across = rng.uniform(-reach, reach) if i % 2 else rng.uniform(-1e-3, 1e-3)
        if i % 2:
            ha, hb = rng.uniform(-math.pi, math.pi, 2)
        else:  # a's diagonal points along +axis, b's along -axis: the corners meet
            ha, hb = -math.atan2(wa, la), -math.atan2(wb, lb)
        dx, dy = (near, across) if i % 4 < 2 else (across, near)
        turn = 0.0 if i % 4 < 2 else math.pi / 2
        a = VehicleState(0.0, 0.0, ha + turn, length=la, width=wa)
        b = VehicleState(dx, dy, hb + turn, length=lb, width=wb)
        for p, q in ((a, b), (b, a)):
            assert (first_collision(_window(p), _window(q)) == 0) == detect_collision(p, q)
        outcomes.append(detect_collision(a, b))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("a, b, hit", [
    (VehicleState(0.0, 0.0, 0.0), VehicleState(4.5, 0.0, 0.0), False),
    (VehicleState(0.0, 0.0, 0.0), VehicleState(4.4, 0.0, 0.0), True),
    (VehicleState(0.0, 0.0, 0.0), VehicleState(0.0, 2.0, 0.0), False),
    (VehicleState(0.0, 0.0, 0.0), VehicleState(4.5, 2.0, 0.0), False),
    (VehicleState(0.0, 0.0, 0.0), VehicleState(3.25, 0.0, math.pi / 2), False),
    (VehicleState(0.0, 0.0, 0.0), VehicleState(3.2, 0.0, math.pi / 2), True),
    (VehicleState(2.0, -40.0, math.pi / 2), VehicleState(2.0, -35.5, -math.pi / 2), False),
    (VehicleState(2.0, -40.0, math.pi / 2), VehicleState(-0.0, -40.0, math.pi / 2), False),
])
def test_broad_phase_equals_full_sat_on_touching_edges(a, b, hit):
    assert detect_collision(a, b) == detect_collision(b, a) == hit
    assert (first_collision(_window(a), _window(b)) == first_collision(_window(b), _window(a))
            == (0 if hit else None))


@pytest.mark.parametrize("side", [-1, 1], ids=["below_d_star", "above_d_star"])
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_broad_phase_equals_full_sat_on_episode_states(sid, side, d_star):
    """first_collision over a whole 12 s run, and over each of its frames alone,
    agrees with the SAT at every frame."""
    states = tick_states(ScenarioSpec(sid, max(0.0, d_star + 0.15 * side)), to_collision=False)
    hits = [detect_collision(s, o) for _t, s, o in states]
    assert [first_collision(_window(s), _window(o)) == 0 for _t, s, o in states] == hits
    assert (first_collision(_window(*[s for _t, s, _o in states]),
                            _window(*[o for _t, _s, o in states]))
            == (hits.index(True) if any(hits) else None))


@pytest.mark.parametrize("world, dt", [
    (WorldConfig(), 0.05),
    (WorldConfig(start_distance=37.3, lane_offset=1.9, top_speed=9.3, max_accel=4.7), 0.037),
], ids=["default", "unround"])
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_run_scenario_equals_per_tick_oracle(sid, world, dt):
    """Whole-episode trajectories give the per-tick run's frame records, label and
    event time byte for byte, with and without a horizon, at 41 delays over
    [0, 2 d* + 1], at d*, at 11 s and 5e-13 s after three frame times (inside
    the go test's 1e-12 s slack); every seventh delay at 4x4 cameras, images
    too. The second world's speeds and positions round in every step."""
    d_star = bisect_delay_threshold(1, world, dt=dt)
    delays = [*np.linspace(0.0, 2.0 * d_star + 1.0, 41).tolist(), d_star, 11.0,
              *(k * dt + 5e-13 for k in (0, 4, 43))]
    labels = set()
    for i, delay in enumerate(delays):
        spec = ScenarioSpec(sid, delay, dt=dt)
        cams = default_cameras(4, 4) if i % 7 == 0 else ()
        for horizon in (None, 5.0):
            label, event_time, frames, states = tick_scenario(spec, world, horizon)
            ep = run_scenario(spec, cams, world, horizon)
            assert (ep.label, ep.event_time) == (label, event_time)
            assert type(ep.event_time) is float
            assert ep.frames.dtype == frames.dtype and ep.frames.tobytes() == frames.tobytes()
            for cam in cams:
                want = quantize_image(np.stack([render_frame(s, o, cam, world)
                                                for _t, s, o in states]))
                assert ep.images[cam.name].tobytes() == want.tobytes()
            labels.add(label)
    assert labels == ({0, 1} if sid in (1, 2) else {int(sid == 4)})

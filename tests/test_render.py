import math

import pytest

from fleetsim.render import HUMAN_COLOR, ROOM_COLOR, render_trace
from fleetsim.trace import Trace

MAP_TEXT = (
    "map 8 8 0.5 0 0\n"
    "########\n"
    + "#......#\n" * 6
    + "########\n"
)
WALL_CELLS = 28


def make_header():
    return {
        "type": "header",
        "duration": 2.0,
        "map": {"text": MAP_TEXT},
        "params": {"r_human": 0.35, "n_rays": 4, "max_range": 2.0},
        "robots": [
            {"id": 0, "x": 1.0, "y": 1.0, "heading": 0.0,
             "r_robot": 0.3, "r_safe": 0.8},
            {"id": 1, "x": 3.0, "y": 1.0, "heading": 1.5,
             "r_robot": 0.3, "r_safe": 0.8},
        ],
        "humans": [{"x": 2.0, "y": 2.5}],
        "rooms": [{
            "location": 0,
            "polygon": [[0.5, 2.5], [1.5, 2.5], [1.5, 3.5], [0.5, 3.5]],
            "queue_slots": [[2.5, 3.0], [3.0, 3.0]],
        }],
    }


def make_trace():
    events = [
        {"type": "plan", "t": 0.5, "robot": 0, "status": "ok",
         "points": [[1.0, 1.0], [2.0, 1.5], [2.5, 2.0]]},
        {"type": "clusters", "t": 0.5, "clusters": [[0, [0, 1]]]},
        {"type": "queue", "t": 0.5, "event": "grant", "room": 0, "robot": 0,
         "holder": 0, "occupants": [1]},
        {"type": "state", "t": 1.0, "robots": [
            [0, 1.5, 1.5, 0.0, 0.5], [1, 3.0, 1.0, 1.5, 0.0]],
         "humans": [[2.0, 2.6, 0.0, 0.1]]},
        {"type": "fault", "t": 1.5, "robot": 1, "reason": "stuck"},
    ]
    return Trace(make_header(), events)


class TestFrameSampling:
    def test_frame_count_and_names(self, tmp_path):
        files = render_trace(make_trace(), tmp_path, every=1.0)
        assert [f.name for f in files] == [
            "frame_00000.svg", "frame_00001.svg", "frame_00002.svg",
        ]
        assert all(f.exists() for f in files)

    def test_half_second_sampling(self, tmp_path):
        assert len(render_trace(make_trace(), tmp_path, every=0.5)) == 5

    def test_interval_beyond_duration_gives_one_frame(self, tmp_path):
        files = render_trace(make_trace(), tmp_path, every=3.0)
        assert [f.name for f in files] == ["frame_00000.svg"]

    def test_infinite_interval_draws_the_first_frame(self, tmp_path):
        (inf_frame,) = render_trace(make_trace(), tmp_path / "inf", every=math.inf)
        (first,) = render_trace(make_trace(), tmp_path / "three", every=3.0)
        assert inf_frame.read_text() == first.read_text()
        assert "t = 0.00 s" in inf_frame.read_text()

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            render_trace(make_trace(), tmp_path, every=0.0)

    def test_nan_interval_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="every must be positive, got nan"):
            render_trace(make_trace(), tmp_path / "out", every=math.nan)
        assert not (tmp_path / "out").exists()

    def test_creates_output_directory(self, tmp_path):
        out = tmp_path / "a" / "b"
        render_trace(make_trace(), out, every=1.0)
        assert out.is_dir()

    def test_rendering_is_deterministic(self, tmp_path):
        first = render_trace(make_trace(), tmp_path / "one", every=1.0)
        second = render_trace(make_trace(), tmp_path / "two", every=1.0)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()


class TestFrameContent:
    def render_frames(self, tmp_path, **kwargs):
        files = render_trace(make_trace(), tmp_path, every=1.0, **kwargs)
        return [f.read_text() for f in files]

    def test_svg_envelope(self, tmp_path):
        frame = self.render_frames(tmp_path)[0]
        assert frame.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert frame.endswith("</svg>\n")
        # 4 m square at 0.05 m/px
        assert 'width="80.00" height="80.00"' in frame

    def test_wall_cells_drawn(self, tmp_path):
        frame = self.render_frames(tmp_path)[0]
        assert frame.count('fill="#222222"') == WALL_CELLS

    def test_time_label(self, tmp_path):
        frames = self.render_frames(tmp_path)
        assert "t = 0.00 s" in frames[0]
        assert "t = 2.00 s" in frames[2]

    def test_robot_positions_update_with_state(self, tmp_path):
        frames = self.render_frames(tmp_path)
        # header start (1, 1) -> px (20, 60); state moves robot 0 to (1.5, 1.5)
        assert 'cx="20.00" cy="60.00"' in frames[0]
        assert 'cx="30.00" cy="50.00"' in frames[1]

    def test_faulted_robot_grayed(self, tmp_path):
        frames = self.render_frames(tmp_path)
        assert 'fill="#888888"' not in frames[1]
        assert 'fill="#888888"' in frames[2]

    def test_plan_polyline_appears_after_event(self, tmp_path):
        frames = self.render_frames(tmp_path)
        assert "<polyline" not in frames[0]
        assert "<polyline" in frames[1]

    def test_cluster_link_drawn(self, tmp_path):
        frames = self.render_frames(tmp_path)
        assert 'stroke-dasharray="2 2"' in frames[1]

    def test_room_polygon_and_queue_slots(self, tmp_path):
        frame = self.render_frames(tmp_path)[0]
        assert 'stroke-dasharray="4 3"' in frame
        # two slot markers drawn, none filled before the queue event
        assert frame.count('stroke-width="1"/>') >= 2

    def test_filled_slot_after_queue_event(self, tmp_path):
        frames = self.render_frames(tmp_path)
        room_fill = f'fill="{ROOM_COLOR}"'
        assert room_fill not in frames[0]
        assert room_fill in frames[1]

    def test_human_circle(self, tmp_path):
        frame = self.render_frames(tmp_path)[0]
        assert f'fill="{HUMAN_COLOR}"' in frame

    def test_ray_hits_drawn(self, tmp_path):
        frame = self.render_frames(tmp_path)[0]
        assert 'r="1.5"' in frame

    def test_meters_per_pixel_scales_canvas(self, tmp_path):
        frame = self.render_frames(tmp_path, meters_per_pixel=0.1)[0]
        assert 'width="40.00" height="40.00"' in frame

"""Point cloud data model, file IO, normalization, sampling, transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpointhop import (
    CloudParseError,
    PointCloud,
    RigidTransform,
    align_inverse,
    apply_transform,
    load_cloud,
    load_transform,
    normalize_unit_sphere,
    parse_config,
    save_cloud,
    save_transform,
)
from rpointhop.bench import make_shape_cloud
from rpointhop.cloud import detect_format, sample_indices, seeded_rng

from conftest import random_rotation


def rz(deg: float) -> np.ndarray:
    t = np.radians(deg)
    return np.array(
        [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    )


# ---------------------------------------------------------------------------
# PointCloud / RigidTransform types
# ---------------------------------------------------------------------------


class TestPointCloud:
    def test_basic_construction(self):
        c = PointCloud(np.zeros((4, 3)))
        assert len(c) == 4
        assert c.coords.dtype == np.float64

    def test_single_point_promoted_to_2d(self):
        c = PointCloud(np.array([1.0, 2.0, 3.0]))
        assert c.coords.shape == (1, 3)

    def test_coords_are_read_only(self):
        c = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            c.coords[0, 0] = 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PointCloud(np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PointCloud(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_rejects_coordinates_whose_squares_overflow(self, scale):
        # KNN's squared distances overflow at 1e160 and normalization's norm
        # at 1e200; both must be refused where the coordinates enter
        with pytest.raises(ValueError, match="too large"):
            PointCloud(make_shape_cloud(1024, 7).coords * scale)

    def test_overflow_bound_grows_with_the_point_count(self):
        # (1e153)^2 times the point count: finite at 100 points, not at 1000
        for n, refused in ((100, False), (1000, True)):
            coords = np.zeros((n, 3))
            coords[0, 0] = 1e153
            if refused:
                with pytest.raises(ValueError, match="too large"):
                    PointCloud(coords)
            else:
                assert len(PointCloud(coords)) == n

    def test_take_subsets_coords(self):
        c = PointCloud(np.arange(12.0).reshape(4, 3))
        sub = c.take(np.array([2, 0]))
        assert np.array_equal(sub.coords, c.coords[[2, 0]])


class TestRigidTransform:
    def test_identity(self):
        tf = RigidTransform.identity()
        assert np.array_equal(tf.rotation, np.eye(3))
        assert np.array_equal(tf.translation, np.zeros(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.zeros(2))

    def test_every_produced_rotation_is_proper(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
            assert np.abs(tf.rotation.T @ tf.rotation - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(tf.rotation) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------


class TestOffFormat:
    def test_three_vertex_file(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
        c = load_cloud(p)
        assert len(c) == 3
        assert np.array_equal(c.coords[1], [1.0, 0.0, 0.0])

    def test_single_line_header_variant(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("OFF 2 0 0\n0 0 0\n1 2 3\n")
        assert len(load_cloud(p)) == 2

    @pytest.mark.parametrize("header", ["OFF3 0 0", "off3 0 0", "OFF3\t0 0", "OFF 3 0 0"])
    def test_counts_joined_to_the_keyword(self, tmp_path, header):
        # some ModelNet40 files write "OFF490 518 0"
        p = tmp_path / "c.off"
        p.write_text(f"{header}\n0 0 0\n1 0 0\n0 1 0\n")
        c = load_cloud(p)
        assert np.array_equal(c.coords, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("header", ["OFFx 3 0", "OFF3x 0 0", "OFF-3 0 0"])
    def test_keyword_with_other_suffix_names_line(self, tmp_path, header):
        p = tmp_path / "c.off"
        p.write_text(f"{header}\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(CloudParseError, match="line 1: expected OFF header"):
            load_cloud(p)

    def test_joined_count_is_still_checked(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("OFF0 0 0\n0 0 0\n")
        with pytest.raises(CloudParseError, match="line 1: vertex count must be >= 1, got 0"):
            load_cloud(p)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("# comment\nOFF\n\n1 0 0\n# mid\n5 6 7\n")
        c = load_cloud(p)
        assert np.array_equal(c.coords, [[5.0, 6.0, 7.0]])

    def test_bad_header_names_line(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("NOFF\n1 0 0\n0 0 0\n")
        with pytest.raises(CloudParseError, match="line 1"):
            load_cloud(p)

    def test_non_numeric_vertex_names_line(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("OFF\n2 0 0\n0 0 0\n1 x 0\n")
        with pytest.raises(CloudParseError, match="line 4"):
            load_cloud(p)

    def test_missing_vertices(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("OFF\n3 0 0\n0 0 0\n")
        with pytest.raises(CloudParseError, match="expected 3 vertex lines"):
            load_cloud(p)

    def test_fractional_vertex_count_names_line(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("OFF 2.7 0 0\n0 0 0\n1 2 3\n0 1 0\n")
        with pytest.raises(CloudParseError, match="line 1: vertex count must be an integer, got '2.7'"):
            load_cloud(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text("")
        with pytest.raises(CloudParseError, match="line 1"):
            load_cloud(p)


class TestXyzFormat:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0\n1 2 3\n")
        c = load_cloud(p)
        assert np.array_equal(c.coords, [[0, 0, 0], [1, 2, 3]])

    def test_extra_columns_are_read_past(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0 9 8\n1 2 3 7 6\n")
        c = load_cloud(p)
        assert np.array_equal(c.coords, [[0, 0, 0], [1, 2, 3]])

    def test_trailing_text_columns_load(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0 red\n1 2 3 blue\n")
        assert np.array_equal(load_cloud(p).coords, [[0, 0, 0], [1, 2, 3]])

    def test_non_numeric_coordinate_before_text_column_names_line(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0 red\n1 y 3 blue\n")
        with pytest.raises(CloudParseError, match="line 2.*non-numeric"):
            load_cloud(p)

    def test_ragged_text_columns_name_line(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0 red\n1 2 3 light blue\n")
        with pytest.raises(CloudParseError, match="line 2.*column count"):
            load_cloud(p)

    def test_short_row_names_line(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0\n1 2\n")
        with pytest.raises(CloudParseError, match="line 2"):
            load_cloud(p)

    def test_inconsistent_width_names_line(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 0 1\n1 2 3\n")
        with pytest.raises(CloudParseError, match="line 2.*column count"):
            load_cloud(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0 0 zero\n")
        with pytest.raises(CloudParseError, match="line 1.*non-numeric"):
            load_cloud(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("# only a comment\n")
        with pytest.raises(CloudParseError, match="no data rows"):
            load_cloud(p)


PLY_WITH_NORMALS = """\
ply
format ascii 1.0
comment hand-written fixture
element vertex 4
property double x
property double y
property double z
property double nx
property double ny
property double nz
end_header
0 0 0 0 0 1
1 0 0 0 0 1
0 1 0 0 1 0
0 0 1 1 0 0
"""


class TestPlyFormat:
    def test_vertices_with_normals(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text(PLY_WITH_NORMALS)
        c = load_cloud(p)
        # normals are read past like any other vertex property
        assert np.array_equal(c.coords, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_vertices_without_normals(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        c = load_cloud(p)
        assert np.array_equal(c.coords, [[0, 0, 0], [1, 1, 1]])

    def test_properties_in_any_order(self, tmp_path):
        # coordinates come from the x, y and z columns wherever they sit
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double nx\nproperty double z\nproperty uchar red\n"
            "property double x\nproperty double ny\nproperty double y\nproperty double nz\n"
            "end_header\n9 3 255 1 9 2 9\n8 6 0 4 8 5 8\n"
        )
        assert np.array_equal(load_cloud(p).coords, [[1, 2, 3], [4, 5, 6]])

    def test_obj_info_lines_skipped_like_comments(self, tmp_path):
        p = tmp_path / "c.ply"
        header = "ply\nformat ascii 1.0\n{}\nelement vertex 2\n"
        body = "property double x\nproperty double y\nproperty double z\nend_header\n0 0 0\n1 1 1\n"
        p.write_text(header.format("obj_info scanned 2024") + "obj_info num_cols 2\n" + body)
        assert np.array_equal(load_cloud(p).coords, [[0, 0, 0], [1, 1, 1]])
        p.write_text(header.format("obj_infos 1") + body)
        with pytest.raises(CloudParseError, match="line 3: unknown header keyword 'obj_infos'"):
            load_cloud(p)

    def test_missing_magic(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text("plyx\n")
        with pytest.raises(CloudParseError, match="line 1"):
            load_cloud(p)

    def test_binary_rejected(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(CloudParseError, match="ascii"):
            load_cloud(p)

    def test_truncated_vertex_data(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(CloudParseError, match="truncated"):
            load_cloud(p)

    def test_vertex_count_past_the_end(self, tmp_path):
        # refused before the coordinate array is allocated (2.18 TiB here)
        p = tmp_path / "c.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 100000000000\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(CloudParseError, match="line 8: truncated vertex data"):
            load_cloud(p)

    def test_no_vertex_element(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text("ply\nformat ascii 1.0\nend_header\n")
        with pytest.raises(CloudParseError, match="no vertex element"):
            load_cloud(p)

    @pytest.mark.parametrize(
        "vertices, faces, message",
        [
            ("-2", "0", "line 3: vertex count must be >= 1, got -2"),
            ("0", "0", "line 3: vertex count must be >= 1, got 0"),
            ("2.0", "0", "line 3: vertex count must be an integer, got '2.0'"),
            ("2", "-1", "line 7: face count must be >= 0, got -1"),
        ],
    )
    def test_bad_element_count_names_line(self, tmp_path, vertices, faces, message):
        p = tmp_path / "c.ply"
        p.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {vertices}\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"element face {faces}\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(CloudParseError, match=message):
            load_cloud(p)


NON_FINITE = ["nan", "inf", "-inf", "1e999"]


class TestNonFiniteCoordinates:
    # a non-finite x, y or z fails in the loader, which names the file and
    # the line, not in PointCloud
    @pytest.mark.parametrize("token", NON_FINITE)
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_xyz_names_file_and_line(self, tmp_path, token, column):
        p = tmp_path / "c.xyz"
        row = ["1", "2", "3"]
        row[column] = token
        p.write_text("# header\n0 0 0\n" + " ".join(row) + "\n")
        with pytest.raises(CloudParseError, match=f"^{p}: line 3: x, y and z must be finite"):
            load_cloud(p)

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_off_names_file_and_line(self, tmp_path, token):
        p = tmp_path / "c.off"
        p.write_text(f"OFF\n2 0 0\n0 0 0\n0 {token} 0\n")
        with pytest.raises(CloudParseError, match=f"^{p}: line 4: x, y and z must be finite"):
            load_cloud(p)

    @pytest.mark.parametrize("token", NON_FINITE)
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_ply_names_file_and_line(self, tmp_path, token, column):
        p = tmp_path / "c.ply"
        lines = PLY_WITH_NORMALS.splitlines()
        row = lines[13].split()
        row[column] = token
        lines[13] = " ".join(row)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CloudParseError, match=f"^{p}: line 14: x, y and z must be finite"):
            load_cloud(p)

    def test_values_past_the_coordinates_stay_unchecked(self, tmp_path):
        # neither a PLY normal nor an XYZ column past the third is read
        ply = tmp_path / "c.ply"
        ply.write_text(PLY_WITH_NORMALS.replace("0 0 0 0 0 1", "0 0 0 nan 0 1"))
        assert np.array_equal(load_cloud(ply).coords, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        xyz = tmp_path / "c.xyz"
        xyz.write_text("0 0 0 nan\n1 2 3 inf\n")
        assert np.array_equal(load_cloud(xyz).coords, [[0, 0, 0], [1, 2, 3]])


class TestRoundTrips:
    def test_two_point_round_trip_all_formats(self, tmp_path):
        c = PointCloud(np.array([[0.25, -1.5, 3.0], [2.0, 0.125, -9.0]]))
        for fmt in ("off", "ply", "xyz"):
            path = tmp_path / f"c.{fmt}"
            save_cloud(c, path)
            back = load_cloud(path)
            assert np.array_equal(back.coords, c.coords), fmt

    def test_large_random_round_trip_xyz(self, tmp_path):
        rng = np.random.default_rng(3)
        c = PointCloud(rng.normal(size=(1024, 3)))
        path = tmp_path / "c.xyz"
        save_cloud(c, path)
        assert np.abs(load_cloud(path).coords - c.coords).max() < 1e-6

    def test_xyz_and_ply_hold_three_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        c = PointCloud(rng.normal(size=(5, 3)))
        for fmt in ("xyz", "ply"):
            path = tmp_path / f"c.{fmt}"
            save_cloud(c, path)
            assert np.array_equal(load_cloud(path).coords, c.coords), fmt
            rows = path.read_text().splitlines()[-5:]
            assert [len(row.split()) for row in rows] == [3] * 5, fmt
        header = (tmp_path / "c.ply").read_text().split("end_header")[0]
        assert header.count("property") == 3

    def test_save_to_unwritable_path_raises(self, tmp_path):
        c = PointCloud(np.zeros((1, 3)))
        with pytest.raises(OSError):
            save_cloud(c, tmp_path / "no" / "such" / "dir" / "c.xyz")

    def test_detect_format(self):
        assert detect_format("a/b/c.OFF") == "off"
        assert detect_format("c.ply") == "ply"
        with pytest.raises(ValueError, match="format"):
            detect_format("c.txt")

    def test_load_unknown_suffix(self, tmp_path):
        p = tmp_path / "c.obj"
        p.write_text("0 0 0\n")
        with pytest.raises(ValueError, match="format"):
            load_cloud(p)


class TestTransformFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        path = tmp_path / "tf.txt"
        save_transform(tf, path)
        back = load_transform(path)
        assert np.abs(back.rotation - tf.rotation).max() < 1e-15
        assert np.abs(back.translation - tf.translation).max() < 1e-15

    def test_comments_and_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "tf.txt"
        path.write_text(
            "# a comment\nrotation 1 0 0 0 1 0 0 0 1\nresidual 0.5\ntranslation 1 2 3\n"
        )
        tf = load_transform(path)
        assert np.array_equal(tf.translation, [1.0, 2.0, 3.0])

    def test_wrong_count_names_line(self, tmp_path):
        path = tmp_path / "tf.txt"
        path.write_text("rotation 1 0 0 0 1 0 0 0\ntranslation 0 0 0\n")
        with pytest.raises(CloudParseError, match="line 1.*9 numbers"):
            load_transform(path)

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_number_names_file_and_line(self, tmp_path, token):
        path = tmp_path / "tf.txt"
        path.write_text(f"rotation 1 0 0 0 1 0 0 0 1\ntranslation 0 {token} 0\n")
        with pytest.raises(CloudParseError, match=f"^{path}: line 2: translation must be finite"):
            load_transform(path)
        path.write_text(f"# motion\nrotation 1 0 0 0 {token} 0 0 0 1\ntranslation 0 0 0\n")
        with pytest.raises(CloudParseError, match=f"^{path}: line 2: rotation must be finite"):
            load_transform(path)

    @pytest.mark.parametrize(
        "rotation, refusal",
        [
            ("1 0 0 0 1 0 0 0 2", "rotation is not orthonormal within 1e-9"),
            ("1 0 0 0 1 0 0 0 -1", r"rotation determinant is not \+1 within 1e-9 \(improper rotation\)"),
        ],
        ids=["not_orthonormal", "improper"],
    )
    def test_bad_rotation_names_file_and_line(self, tmp_path, rotation, refusal):
        path = tmp_path / "tf.txt"
        path.write_text(f"# motion\ntranslation 0 0 0\nrotation {rotation}\n")
        with pytest.raises(CloudParseError, match=f"^{path}: line 3: {refusal}$"):
            load_transform(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "tf.txt"
        path.write_text("rotation 1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(CloudParseError, match="missing"):
            load_transform(path)

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("rotation 1 0 0 0 1 0 0 0 1\n", "'translation'"),
            ("# motion\ntranslation 1 2 3\n", "'rotation'"),
            ("# nothing but a comment\n", "'rotation' and 'translation'"),
        ],
    )
    def test_missing_key_is_named(self, tmp_path, text, missing):
        path = tmp_path / "tf.txt"
        path.write_text(text)
        with pytest.raises(CloudParseError, match=f"^{path}: missing key {missing}$"):
            load_transform(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = tmp_path / "tf.txt"
        path.write_text("rotation 1 0 0 0 1 0 0 0 1\ntranslation 1 2 3\ntranslation 9 9 9\n")
        with pytest.raises(
            CloudParseError, match=f"^{path}: line 3: duplicate key 'translation' \\(first set on line 2\\)$"
        ):
            load_transform(path)


class TestCommentLines:
    # blank, whitespace-only, comment and indented comment lines
    FILLER = ["", "   ", "# a comment", "   # an indented comment", "\t"]

    @staticmethod
    def _read(reader, text, tmp_path):
        """What ``reader`` reads from ``text``, as plain comparable values."""
        if reader == "config":
            return parse_config(text)
        path = tmp_path / f"input.{reader}"
        path.write_text(text)
        if reader == "transform":
            tf = load_transform(path)
            return tf.rotation.tolist(), tf.translation.tolist()
        return load_cloud(path).coords.tolist()

    @pytest.mark.parametrize(
        "reader, good, bad, message",
        [
            ("off", ["OFF", "2 0 0", "1 2 3", "4 5 6"], "4 5 x", "non-numeric token"),
            ("xyz", ["1 2 3", "4 5 6"], "4 5 x", "non-numeric token"),
            ("transform", ["rotation 0 -1 0 1 0 0 0 0 1", "translation 1 2 3"], "translation 1 2", "translation needs 3"),
            ("config", ["k_lrf = 12", "seed = 3"], "seed = x", "seed expects an integer"),
        ],
    )
    def test_skipped_but_counted(self, tmp_path, reader, good, bad, message):
        # every text reader but PLY's shares one comment rule: such lines
        # are skipped, yet count toward the line an error names
        def filled(lines):
            return "".join(f"{line}\n" for content in lines for line in [*self.FILLER, content])

        assert self._read(reader, filled(good), tmp_path) == self._read(reader, "\n".join(good), tmp_path)
        lineno = (len(self.FILLER) + 1) * len(good)
        with pytest.raises(ValueError, match=f"line {lineno}: {message}"):
            self._read(reader, filled(good[:-1] + [bad]), tmp_path)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


class TestNormalizeUnitSphere:
    def test_two_point_example(self):
        c = PointCloud(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        out = normalize_unit_sphere(c)
        assert np.array_equal(out.coords, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_output_centered_and_unit_radius(self):
        rng = np.random.default_rng(6)
        out = normalize_unit_sphere(PointCloud(rng.normal(size=(50, 3)) * 7 + 3))
        assert np.abs(out.coords.mean(axis=0)).max() < 1e-9
        assert abs(np.linalg.norm(out.coords, axis=1).max() - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        once = normalize_unit_sphere(PointCloud(rng.normal(size=(20, 3))))
        twice = normalize_unit_sphere(once)
        assert np.abs(twice.coords - once.coords).max() < 1e-9

    def test_single_point_warns_and_uses_scale_one(self):
        with pytest.warns(UserWarning, match="coincident"):
            out = normalize_unit_sphere(PointCloud(np.array([[5.0, 5.0, 5.0]])))
        assert np.array_equal(out.coords, [[0.0, 0.0, 0.0]])

    def test_coincident_points_warn(self):
        c = PointCloud(np.ones((3, 3)))
        with pytest.warns(UserWarning, match="coincident"):
            out = normalize_unit_sphere(c)
        assert np.abs(out.coords).max() == 0.0


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------


def fisher_yates_oracle(n: int, m: int, seed: int) -> np.ndarray:
    """Complete forward shuffle on the same PRNG stream; first m entries."""
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = list(range(n))
    for i in range(n - 1):
        j = i + int(rng.integers(n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.asarray(idx[:m], dtype=np.intp)


class TestRandomSample:
    def test_full_sample_is_a_permutation(self):
        assert sorted(sample_indices(10, 10, seed=1)) == list(range(10))

    def test_same_seed_same_sample(self):
        assert np.array_equal(sample_indices(100, 40, seed=9), sample_indices(100, 40, seed=9))

    def test_different_seed_differs(self):
        assert not np.array_equal(sample_indices(100, 40, seed=9), sample_indices(100, 40, seed=10))

    def test_matches_fisher_yates_oracle(self):
        got = sample_indices(2048, 1024, seed=7)
        expected = fisher_yates_oracle(2048, 1024, seed=7)
        assert np.array_equal(got, expected)
        assert len(set(got.tolist())) == 1024  # distinct

    def test_small_cases_match_oracle(self):
        for n, m, seed in [(1, 1, 0), (5, 3, 2), (17, 17, 3), (64, 1, 4)]:
            assert np.array_equal(sample_indices(n, m, seed), fisher_yates_oracle(n, m, seed))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 3000), seed=st.integers(0, 2**63 - 1))
    def test_matches_oracle_property(self, data, n, seed):
        # one array-bounded draw reads the stream as n - i scalar draws do
        m = data.draw(st.integers(1, n), label="m")
        got = sample_indices(n, m, seed)
        assert got.dtype == np.intp
        assert np.array_equal(got, fisher_yates_oracle(n, m, seed))

    def test_oversample_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            sample_indices(4, 5, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            sample_indices(4, 0, seed=0)

    def test_negative_seed_is_refused_by_name(self):
        # PCG64's own refusal names no argument
        with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
            sample_indices(10, 5, -1)
        with pytest.raises(ValueError, match=re.escape("trial_seed must be non-negative, got -2")):
            seeded_rng(-2, "trial_seed")

    def test_seeded_rng_is_the_pcg64_stream(self):
        for seed in (0, 7, 2**63 - 1):
            want = np.random.Generator(np.random.PCG64(seed)).integers(2**63, size=4)
            assert np.array_equal(seeded_rng(seed).integers(2**63, size=4), want)


# ---------------------------------------------------------------------------
# transform application
# ---------------------------------------------------------------------------


class TestApplyTransform:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(10)
        c = PointCloud(rng.normal(size=(12, 3)))
        out = apply_transform(c, RigidTransform.identity())
        assert np.array_equal(out.coords, c.coords)

    def test_rz90_hand_example(self):
        tf = RigidTransform(rz(90.0), np.zeros(3))
        out = apply_transform(PointCloud(np.array([[1.0, 0.0, 0.0]])), tf)
        assert np.abs(out.coords[0] - [0.0, 1.0, 0.0]).max() < 1e-12

    def test_align_inverse_hand_example(self):
        # R = Rz(90), t = (1,2,3): input (1,3,3) -> R.T @ ((1,3,3)-(1,2,3)) = (1,0,0)
        tf = RigidTransform(rz(90.0), np.array([1.0, 2.0, 3.0]))
        out = align_inverse(PointCloud(np.array([[1.0, 3.0, 3.0]])), tf)
        assert np.abs(out.coords[0] - [1.0, 0.0, 0.0]).max() < 1e-12

    def test_align_inverse_identity(self):
        rng = np.random.default_rng(11)
        c = PointCloud(rng.normal(size=(9, 3)))
        assert np.array_equal(align_inverse(c, RigidTransform.identity()).coords, c.coords)

    def test_apply_then_align_inverse_round_trip(self):
        rng = np.random.default_rng(12)
        c = PointCloud(rng.normal(size=(40, 3)))
        tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        back = align_inverse(apply_transform(c, tf), tf)
        assert np.abs(back.coords - c.coords).max() < 1e-9

    def test_rigidity_preserves_pairwise_distances(self):
        rng = np.random.default_rng(13)
        c = PointCloud(rng.normal(size=(25, 3)))
        tf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        moved = apply_transform(c, tf)
        d0 = np.linalg.norm(c.coords[:, None] - c.coords[None, :], axis=2)
        d1 = np.linalg.norm(moved.coords[:, None] - moved.coords[None, :], axis=2)
        assert np.abs(d0 - d1).max() < 1e-9

import numpy as np
import pytest

from sklpdm import (
    DataError,
    NumericalError,
    SilhouetteImage,
    load_pgm,
    r_transform,
    radon,
    sequence_features,
)
from sklpdm.silhouette_features import _bin_table

from oracles import radon_oracle, r_transform_oracle


def write_p2(path, pixels, maxval=255):
    H, W = pixels.shape
    body = "\n".join(" ".join(str(v) for v in row) for row in pixels)
    path.write_text(f"P2\n{W} {H}\n{maxval}\n{body}\n")
    return path


def write_p5(path, pixels, maxval=255):
    H, W = pixels.shape
    header = f"P5\n{W} {H}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(int(v) for v in pixels.ravel()))
    return path


def random_silhouette(rng, lo=6, hi=14):
    H = int(rng.integers(lo, hi))
    W = int(rng.integers(lo, hi))
    pixels = (rng.random((H, W)) < 0.3).astype(np.uint8)
    if pixels.sum() == 0:
        pixels[H // 2, W // 2] = 1
    return pixels


class TestLoadPgm:
    def test_p2_parse(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 2\n255\n0 255\n255 0\n")
        image = load_pgm(path)
        np.testing.assert_array_equal(image.pixels, [[0, 1], [1, 0]])

    def test_p5_parse(self, tmp_path):
        pixels = np.array([[0, 200], [1, 0]], dtype=np.uint8)
        image = load_pgm(write_p5(tmp_path / "b.pgm", pixels))
        np.testing.assert_array_equal(image.pixels, [[0, 1], [1, 0]])

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2 # magic\n# a comment line\n 2 1 # dims\n255\n7 0\n")
        image = load_pgm(path)
        np.testing.assert_array_equal(image.pixels, [[1, 0]])

    def test_all_zero_loads_but_profile_errors(self, tmp_path):
        path = write_p2(tmp_path / "z.pgm", np.zeros((3, 3), dtype=int))
        image = load_pgm(path)
        assert image.pixels.sum() == 0
        with pytest.raises(NumericalError, match="all-zero"):
            r_transform(radon(image, 4))

    def test_truncated_p5_names_byte_offset(self, tmp_path):
        pixels = np.ones((3, 3), dtype=np.uint8)
        path = write_p5(tmp_path / "t.pgm", pixels)
        data = path.read_bytes()[:-4]
        path.write_bytes(data)
        with pytest.raises(DataError, match=rf"byte {len(data)}"):
            load_pgm(path)

    def test_truncated_p2(self, tmp_path):
        path = tmp_path / "t2.pgm"
        path.write_text("P2\n2 2\n255\n0 255 255\n")
        with pytest.raises(DataError, match="truncated"):
            load_pgm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n1 1\n65535\n0\n")
        with pytest.raises(DataError, match="maxval"):
            load_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P6\n1 1\n255\n0\n")
        with pytest.raises(DataError, match="magic"):
            load_pgm(path)


    @pytest.mark.parametrize("data, pixels", [
        (b"P2#c\n2 1\n255\n7 0\n", [[1, 0]]),  # a comment right after the magic
        (b"P2\n# a # b 9 9\n2 1\n255\n0 3\n", [[0, 1]]),  # '#' inside a comment
        (b"P2\r# c\r2 1\r255\r5 0\r", [[1, 0]]),  # CR-only line ends
        (b"P5\x0b2\x0c1\x0b255\x0c\x00\x09", [[0, 1]]),  # VT and FF separate, FF ends the header
        (b"P2 2#width\n1 # height\n255 1 0", [[1, 0]]),  # comments between tokens
    ])
    def test_header_lexing(self, tmp_path, data, pixels):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        np.testing.assert_array_equal(load_pgm(path).pixels, pixels)

    @pytest.mark.parametrize("data, message", [
        (b"P2 x 1", "malformed PGM header: non-numeric width b'x'"),  # reported ahead of the truncation
        (b"P2 2#c", "malformed PGM header (truncated at byte 6)"),
        (b"# only\r\n", "malformed PGM header (truncated at byte 8)"),
        (b"P2#c\n1 1 +255 x", "malformed P2 payload: non-numeric pixel value"),
        (b"P5 3 0 255\n", "malformed PGM header: bad dimensions 3x0"),
        (b"P2 -2 1 1 1 1", "malformed PGM header: bad dimensions -2x1"),
    ])
    def test_header_errors(self, tmp_path, data, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(DataError) as excinfo:
            load_pgm(path)
        assert str(excinfo.value) == f"{path}: {message}"


class TestRadon:
    def test_single_centered_pixel(self):
        pixels = np.zeros((7, 9), dtype=np.uint8)
        pixels[3, 4] = 1
        sinogram = radon(SilhouetteImage(pixels), 8)
        bins = sinogram.shape[0]
        assert bins % 2 == 1
        for a in range(8):
            column = sinogram[:, a]
            assert column.sum() == 1.0
            assert column[(bins - 1) // 2] == 1.0

    def test_two_pixels_theta_zero(self):
        # symmetric about the image center, so the centroid shift is zero
        pixels = np.zeros((5, 1), dtype=np.uint8)
        pixels[1, 0] = 1
        pixels[3, 0] = 1
        sinogram = radon(SilhouetteImage(pixels), 1)
        assert sinogram.shape == (7, 1)  # ceil(hypot(5, 1)) = 6, forced odd
        diag = np.hypot(5, 1)
        step = diag / 6
        expected_bins = sorted(
            int(np.floor((rho + diag / 2) / step + 0.5)) for rho in (-1.0, 1.0)
        )
        assert sorted(np.flatnonzero(sinogram[:, 0]).tolist()) == expected_bins

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pixels = random_silhouette(rng, 8, 9)
            sinogram = radon(SilhouetteImage(pixels), 12)
            count = float(pixels.sum())
            np.testing.assert_array_equal(sinogram.sum(axis=0), np.full(12, count))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            pixels = random_silhouette(rng)
            ours = radon(SilhouetteImage(pixels), 9)
            np.testing.assert_array_equal(ours, radon_oracle(pixels, 9))

    @pytest.mark.parametrize("shape", [(9, 7), (9, 8), (10, 7), (12, 10), (1, 6), (5, 1)])
    # ids read "<angle_bins>-None": None stands for the one displacement-bin rule, ceil(diagonal) | 1
    @pytest.mark.parametrize("angle_bins", [1, 7, 180], ids=lambda a: f"{a}-None")
    def test_bit_equal_to_scalar_oracle(self, shape, angle_bins):
        rng = np.random.default_rng([*shape, angle_bins, 0])
        for density in (0.05, 0.4, 1.0):
            pixels = (rng.random(shape) < density).astype(np.uint8)
            pixels[0, -1] = 1  # a corner pixel pins the centroid shift against the clamp
            ours = radon(SilhouetteImage(pixels), angle_bins)
            assert ours.dtype == np.float64 and ours.flags.c_contiguous
            np.testing.assert_array_equal(ours, radon_oracle(pixels, angle_bins))

    def test_returned_sinogram_is_private(self):
        pixels = np.zeros((8, 6), dtype=np.uint8)
        pixels[2:5, 1:4] = 1
        first = radon(SilhouetteImage(pixels), 5)
        expected = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(radon(SilhouetteImage(pixels), 5), expected)

    def test_bin_table_cache_is_bounded_and_read_only(self):
        limit = _bin_table.cache_info().maxsize
        assert limit is not None
        for H in range(3, 3 + limit + 3):
            pixels = np.ones((H, 4), dtype=np.uint8)
            radon(SilhouetteImage(pixels), 3)
            assert _bin_table.cache_info().currsize <= limit
        table = _bin_table(H, 4, 3)
        assert table.shape == (H * 4, 3) and table.dtype == np.int32
        with pytest.raises(ValueError):
            table[0, 0] = 0


class TestRTransform:
    def test_single_pixel_uniform(self):
        pixels = np.zeros((5, 5), dtype=np.uint8)
        pixels[2, 2] = 1
        profile = r_transform(radon(SilhouetteImage(pixels), 6))
        assert np.all(profile == 1.0 / 6.0)

    def test_unit_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pixels = random_silhouette(rng)
            profile = r_transform(radon(SilhouetteImage(pixels), 15))
            assert abs(profile.sum() - 1.0) <= 1e-12
            assert np.all(profile >= 0)

    def test_l_shape_frozen_values(self):
        # computed with the scalar double-loop oracle: [5, 3, 5, 5] / 18
        pixels = np.zeros((7, 7), dtype=np.uint8)
        pixels[3, 3] = 1
        pixels[4, 3] = 1
        pixels[4, 4] = 1
        profile = r_transform(radon(SilhouetteImage(pixels), 4))
        frozen = np.array([5.0, 3.0, 5.0, 5.0]) / 18.0
        np.testing.assert_allclose(profile, frozen, atol=1e-12)
        oracle = r_transform_oracle(radon_oracle(pixels, 4))
        np.testing.assert_allclose(profile, oracle, atol=1e-12)

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = np.zeros((12, 12), dtype=np.uint8)
            base[3:7, 4:8] = (rng.random((4, 4)) < 0.6).astype(np.uint8)
            if base.sum() == 0:
                base[4, 5] = 1
            angle_bins = 10
            reference = r_transform(radon(SilhouetteImage(base), angle_bins))
            for di, dj in ((1, 0), (0, 1), (2, 3), (-3, 2), (5, -4)):
                shifted = np.roll(np.roll(base, di, axis=0), dj, axis=1)
                moved = r_transform(radon(SilhouetteImage(shifted), angle_bins))
                np.testing.assert_array_equal(moved, reference)


class TestSequenceFeatures:
    def test_single_frame(self, tmp_path):
        pixels = np.zeros((5, 5), dtype=np.uint8)
        pixels[2, 2] = 1
        path = write_p2(tmp_path / "f.pgm", pixels)
        matrix = sequence_features([path], 4)
        assert matrix.shape == (4, 1)

    def test_duplicate_frames_duplicate_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        path = write_p2(tmp_path / "f.pgm", random_silhouette(rng, 6, 8))
        matrix = sequence_features([path, path], 6)
        assert matrix.shape == (6, 2)
        np.testing.assert_array_equal(matrix[:, 0], matrix[:, 1])

    def test_translating_square_constant_features(self, tmp_path):
        angle_bins = 12
        paths = []
        for f in range(5):
            pixels = np.zeros((16, 16), dtype=np.uint8)
            pixels[2 + f : 6 + f, 3 + f : 7 + f] = 1
            paths.append(write_p2(tmp_path / f"sq{f}.pgm", pixels))
        matrix = sequence_features(paths, angle_bins)
        assert matrix.shape == (12, 5)
        for f in range(1, 5):
            assert np.max(np.abs(matrix[:, f] - matrix[:, 0])) <= 1e-12

    def test_two_frame_shapes(self, tmp_path):
        rng = np.random.default_rng(6)
        angle_bins = 8
        frames = [(rng.random(shape) < 0.3).astype(np.uint8) for shape in ((7, 8), (11, 12), (7, 8))]
        for pixels in frames:
            pixels[3, 4] = 1
        paths = [write_p2(tmp_path / f"f{f}.pgm", pixels) for f, pixels in enumerate(frames)]
        matrix = sequence_features(paths, angle_bins)
        assert matrix.shape == (8, 3)
        for f, pixels in enumerate(frames):
            expected = r_transform(radon_oracle(pixels, 8))
            np.testing.assert_array_equal(matrix[:, f], expected)

    def test_error_names_frame_index(self, tmp_path):
        good = write_p2(tmp_path / "g.pgm", np.ones((3, 3), dtype=int))
        with pytest.raises(DataError, match="frame 1"):
            sequence_features([good, tmp_path / "missing.pgm"], 4)

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            sequence_features([], 4)

import json
import math
import tracemalloc

import numpy as np
import pytest

import fractalhull as fh


class TestOperatorNorm:
    def test_scaled_identity(self):
        assert fh.operator_norm(np.diag([0.5, 0.5])) == pytest.approx(0.5)

    def test_single_singular_value(self):
        assert fh.operator_norm([[0.0, 0.9], [0.0, 0.0]]) == pytest.approx(0.9)

    def test_complex_reciprocal_similarity(self):
        # multiplication by 1/(1+i) scales by 1/sqrt(2)
        w = 1.0 / (1.0 + 1.0j)
        a = [[w.real, -w.imag], [w.imag, w.real]]
        assert fh.operator_norm(a) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(fh.ValidationError):
            fh.operator_norm([[np.nan, 0.0], [0.0, 0.5]])

    def test_rejects_nonsquare(self):
        with pytest.raises(fh.ValidationError):
            fh.operator_norm(np.zeros((2, 3)))

    def test_randomized_unit_vector_audit(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(2, 2))
            norm = fh.operator_norm(a)
            ang = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
            u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            sampled = np.max(np.linalg.norm(u @ a.T, axis=1))
            assert sampled <= norm + 1e-12
            assert sampled >= norm - 1e-6 * max(norm, 1.0)

    def test_large_matrices_match_gram_eigenvalue_and_unit_vectors(self):
        # oracles independent of the singular values operator_norm reads:
        # the top eigenvalue of A^T A, its eigenvector x with |Ax| = |A|,
        # and |Ax| <= |A| on sampled unit vectors
        rng = np.random.default_rng(5)
        for m in (3, 4, 7):
            a = rng.normal(size=(m, m))
            norm = fh.operator_norm(a)
            eigvals, eigvecs = np.linalg.eigh(a.T @ a)
            assert norm == pytest.approx(math.sqrt(eigvals[-1]), rel=1e-12)
            assert np.linalg.norm(a @ eigvecs[:, -1]) == pytest.approx(norm, rel=1e-12)
            u = rng.normal(size=(10_000, m))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert np.max(np.linalg.norm(u @ a.T, axis=1)) <= norm * (1.0 + 1e-12)

    def test_one_by_one(self):
        assert fh.operator_norm([[-0.25]]) == 0.25

    def test_unit_norm_with_close_second_singular_value_rejected(self):
        # norm exactly 1 with a second singular value close behind
        with pytest.raises(fh.NotContractingError):
            fh.affine_map(np.diag([1.0, 1.0 - 1e-4, 0.3]), np.zeros(3))

    def test_close_singular_values_not_underestimated(self):
        a = np.diag([0.9, 0.9 - 1e-5, 0.3])
        assert fh.operator_norm(a) == pytest.approx(0.9, abs=1e-15)


class TestValidateIfs:
    def test_single_contraction(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        assert ifs.dim == 2
        assert ifs.c == pytest.approx(0.5)

    def test_identity_rejected_with_index(self):
        with pytest.raises(fh.NotContractingError, match=r"c_1=1"):
            fh.validate_ifs([(np.eye(2), (0.0, 0.0))])

    def test_second_map_reported(self):
        good = (0.5 * np.eye(2), (0.0, 0.0))
        bad = (1.5 * np.eye(2), (1.0, 0.0))
        with pytest.raises(fh.NotContractingError, match=r"map 2"):
            fh.validate_ifs([good, bad])

    def test_empty_rejected(self):
        with pytest.raises(fh.ValidationError):
            fh.validate_ifs([])

    def test_dimension_mismatch(self):
        with pytest.raises(fh.ValidationError, match="dimension"):
            fh.validate_ifs([
                (0.5 * np.eye(2), (0.0, 0.0)),
                (0.5 * np.eye(3), (0.0, 0.0, 0.0)),
            ])

    def test_twindragon_contraction_factor(self, twindragon_ifs):
        assert twindragon_ifs.c == pytest.approx(1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("items,index", [
        ([fh.affine_map(0.5 * np.eye(2), (0.0, 0.0))], 1),
        ([(0.5 * np.eye(2),)], 1),
        ([(0.5 * np.eye(2), (0.0, 0.0), 1.0)], 1),
        ([5], 1),
        ([(0.5 * np.eye(2), (0.0, 0.0)), None], 2),
    ])
    def test_rejects_items_that_are_not_pairs(self, items, index):
        # an AffineMap raised a raw TypeError, a 1-tuple a raw ValueError
        with pytest.raises(fh.ValidationError, match=rf"map {index} must be an \(A, t\) pair"):
            fh.validate_ifs(items)


class TestAffineMap:
    @pytest.mark.parametrize("t", [(0.0, 0.0, 0.0), (0.0,), [[0.0, 0.0]],
                                   (math.nan, 0.0), (0.0, -math.inf), ("0.1", "0"),
                                   [0.0, [1.0]], None])
    def test_rejects_malformed_translation(self, t):
        with pytest.raises(fh.ValidationError, match="translation"):
            fh.affine_map(0.5 * np.eye(2), t)

    @pytest.mark.parametrize("a", [[["0.5", "0"], ["0", "0.5"]], [[0.5, 0.0], [0.0]],
                                   np.zeros((2, 3)), [[math.nan, 0.0], [0.0, 0.5]]])
    def test_rejects_malformed_matrix(self, a):
        with pytest.raises(fh.ValidationError):
            fh.affine_map(a, (0.0, 0.0))

    def test_caller_arrays_stay_writeable(self):
        a, t = 0.5 * np.eye(2), np.array([0.1, 0.2])
        m = fh.affine_map(a, t)
        assert a.flags.writeable and t.flags.writeable
        assert not m.a.flags.writeable and not m.t.flags.writeable


class TestMapFixedPoint:
    def test_pure_translation(self):
        m = fh.affine_map(np.zeros((2, 2)), (1.0, 2.0))
        assert fh.map_fixed_point(m) == pytest.approx([1.0, 2.0])

    def test_half_identity(self):
        m = fh.affine_map(0.5 * np.eye(2), (1.0, 0.0))
        assert fh.map_fixed_point(m) == pytest.approx([2.0, 0.0])

    def test_twindragon_second_map(self, twindragon_ifs):
        # x = (x + 1)/z with z = 1+i fixes x = 1/(z-1) = -i
        assert fh.map_fixed_point(twindragon_ifs.maps[1]) == pytest.approx(
            [0.0, -1.0], abs=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            a *= rng.uniform(0.1, 0.95) / fh.operator_norm(a)
            m = fh.affine_map(a, rng.uniform(-5.0, 5.0, size=2))
            x = fh.map_fixed_point(m)
            res = np.linalg.norm(m.a @ x + m.t - x)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(x))


def reference_chaos_game(ifs, count, seed):
    """The chaos game one step at a time, gathering the maps per step."""
    chains = max(1, min(1024, count // 64))
    steps = 64 + -(-count // chains)
    idx = np.random.default_rng(seed).integers(0, len(ifs.maps), size=(steps, chains))
    a = np.stack([m.a for m in ifs.maps])
    t = np.stack([m.t for m in ifs.maps])
    x = np.tile(fh.map_fixed_point(ifs.maps[0]), (chains, 1))
    pts = np.empty((steps - 64, chains, ifs.dim))
    for step, i in enumerate(idx):
        x = np.einsum("cij,cj->ci", a[i], x) + t[i]
        if step >= 64:
            pts[step - 64] = x
    return pts.reshape(-1, ifs.dim)[:count]


class TestChaosGame:
    def test_single_map_collapses_to_origin(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        cloud = fh.chaos_game_sample(ifs, 100, seed=1)
        assert np.max(np.abs(cloud.points)) <= 1e-10

    def test_square_stays_in_unit_box(self, square_ifs):
        cloud = fh.chaos_game_sample(square_ifs, 5000, seed=2)
        assert np.all(cloud.points >= -1e-9)
        assert np.all(cloud.points <= 1.0 + 1e-9)

    def test_deterministic_bit_for_bit(self, twindragon_ifs):
        a = fh.chaos_game_sample(twindragon_ifs, 1000, seed=42)
        b = fh.chaos_game_sample(twindragon_ifs, 1000, seed=42)
        assert np.array_equal(a.points, b.points)
        c = fh.chaos_game_sample(twindragon_ifs, 1000, seed=43)
        assert not np.array_equal(a.points, c.points)

    def test_dimension_generic(self):
        ifs = fh.validate_ifs([
            (0.5 * np.eye(3), (0.0, 0.0, 0.0)),
            (0.5 * np.eye(3), (0.5, 0.5, 0.5)),
        ])
        cloud = fh.chaos_game_sample(ifs, 500, seed=3)
        assert cloud.points.shape == (500, 3)
        assert np.all(cloud.points >= -1e-9) and np.all(cloud.points <= 1 + 1e-9)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("count", [700, 1500, 70000])
    def test_chain_count_remainder(self, dim, count):
        # the burn-in of 64 gives min(1024, count // 64) chains: 700 points
        # fill 70 steps of 10 chains, 1500 leave a partial last step of 23
        # chains, and 70000 a partial last step of the 1024-chain cap
        ifs = fh.validate_ifs([
            (0.5 * np.eye(dim), np.zeros(dim)),
            (0.5 * np.eye(dim), np.full(dim, 0.5)),
        ])
        cloud = fh.chaos_game_sample(ifs, count, seed=4)
        assert cloud.points.shape == (count, dim)
        assert np.all(cloud.points >= -1e-9) and np.all(cloud.points <= 1 + 1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 700, 5000, 70000])
    def test_same_bits_as_per_step_reference(self, dim, count):
        # 70000 points run 133 steps of 1024 chains: several gather blocks
        rng = np.random.default_rng(dim)
        ifs = fh.validate_ifs([(0.4 * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim)),
                                rng.normal(size=dim)) for _ in range(3)])
        cloud = fh.chaos_game_sample(ifs, count, seed=6)
        assert cloud.points.tobytes() == reference_chaos_game(ifs, count, 6).tobytes()

    def test_count_validation(self, twindragon_ifs):
        with pytest.raises(fh.ValidationError):
            fh.chaos_game_sample(twindragon_ifs, 0, seed=1)

    @pytest.mark.parametrize("count,seed", [(10, 1.5), (2.5, 0), (10, -1),
                                            (10, "1"), (10, None), ("10", 0),
                                            (True, 0), (10, math.inf)])
    def test_count_and_seed_must_be_integers(self, twindragon_ifs, count, seed):
        with pytest.raises(fh.ValidationError, match="count must be|seed must be"):
            fh.chaos_game_sample(twindragon_ifs, count, seed)

    # 2**22 + 1 planar points are one point over the cap of 2**23
    # coordinates; their cloud alone would take 64 MiB and their map indices
    # as much again, and tracemalloc sees numpy's buffers
    @pytest.mark.parametrize("count", [2**22 + 1, 10**9])
    def test_count_above_cap_refused_before_allocation(self, twindragon_ifs, count):
        tracemalloc.start()
        try:
            with pytest.raises(fh.ValidationError, match="at most 8388608"):
                fh.chaos_game_sample(twindragon_ifs, count, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_cap_counts_coordinates(self, monkeypatch):
        # with a cap of 12 coordinates: 6 planar or 4 spatial points pass,
        # one more of either is refused
        monkeypatch.setattr(fh.ifs, "_MAX_CLOUD_ENTRIES", 12)
        for dim, most in [(2, 6), (3, 4)]:
            ifs = fh.validate_ifs([(0.5 * np.eye(dim), np.zeros(dim))])
            assert fh.chaos_game_sample(ifs, most, 1).points.shape == (most, dim)
            with pytest.raises(fh.ValidationError, match="at most 12"):
                fh.chaos_game_sample(ifs, most + 1, 1)

    def test_numpy_integers_accepted(self, twindragon_ifs):
        a = fh.chaos_game_sample(twindragon_ifs, np.int64(100), np.uint32(5))
        b = fh.chaos_game_sample(twindragon_ifs, 100, 5)
        assert np.array_equal(a.points, b.points)

    def test_integral_floats_accepted(self, twindragon_ifs):
        a = fh.chaos_game_sample(twindragon_ifs, 10.0, 0.0)
        b = fh.chaos_game_sample(twindragon_ifs, 10, 0)
        assert np.array_equal(a.points, b.points)


class TestComplexBaseIfs:
    def test_twindragon_maps(self):
        ifs = fh.complex_base_ifs(1 + 1j, 2)
        assert ifs.maps[0].a == pytest.approx(np.array([[0.5, 0.5], [-0.5, 0.5]]))
        assert ifs.maps[0].t == pytest.approx([0.0, 0.0])
        assert ifs.maps[1].t == pytest.approx([0.5, -0.5])

    def test_real_base_two(self):
        ifs = fh.complex_base_ifs(2, 2)
        assert ifs.maps[0].a == pytest.approx(0.5 * np.eye(2))
        assert ifs.maps[1].t == pytest.approx([0.5, 0.0])
        cloud = fh.chaos_game_sample(ifs, 2000, seed=5)
        assert np.max(np.abs(cloud.points[:, 1])) <= 1e-9
        assert np.all(cloud.points[:, 0] >= -1e-9)
        assert np.all(cloud.points[:, 0] <= 1.0 + 1e-9)

    def test_contraction_is_reciprocal_modulus(self):
        assert fh.complex_base_ifs(1 + 1j, 2).c == pytest.approx(1 / math.sqrt(2))

    @pytest.mark.parametrize("z", [1.0, 0.5 + 0.5j, -1.0, complex(math.inf, 0.0),
                                   complex(0.0, math.nan), 1e308 + 1e308j])
    def test_small_base_rejected(self, z):
        with pytest.raises(fh.ValidationError):
            fh.complex_base_ifs(z, 2)

    def test_digit_count_rejected(self):
        with pytest.raises(fh.ValidationError):
            fh.complex_base_ifs(2 + 0j, 1)

    @pytest.mark.parametrize("z", ["2", "1+1j", b"2", None, [2.0, 0.0], {2.0}])
    def test_base_must_be_a_number(self, z):
        # complex("2") parsed the string
        with pytest.raises(fh.ValidationError, match="must be a number"):
            fh.complex_base_ifs(z, 2)

    # 2**12 + 2 digits: the cap is the only rule it breaks; building the
    # maps first would allocate thousands of arrays, which tracemalloc sees
    @pytest.mark.parametrize("make", [
        lambda n: fh.complex_base_ifs(1 + 1j, n),
        lambda n: fh.complex_base_system(1 + 1j, n),
        lambda n: fh.parse_ifs_document(json.dumps({"complex_base": {"z": [1, 1], "n": n}})),
    ])
    def test_digit_count_above_cap_refused_before_allocation(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(fh.ValidationError, match="at most 4096"):
                make(2**12 + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_digit_count_at_cap_accepted(self):
        assert fh.complex_base_system(1 + 1j, 2**12).n == 2**12

    @pytest.mark.parametrize("z", [np.complex128(1 + 1j), np.float64(2.0), 2])
    def test_numpy_and_real_bases_accepted(self, z):
        ref = fh.complex_base_ifs(complex(z), 2)
        got = fh.complex_base_ifs(z, 2)
        assert all(np.array_equal(m.a, r.a) and np.array_equal(m.t, r.t)
                   for m, r in zip(got.maps, ref.maps))


class TestIfsDocuments:
    def test_raw_roundtrip(self, square_ifs):
        text = """{"dim": 2, "maps": [
            {"A": [[0.5, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]},
            {"A": [[0.5, 0.0], [0.0, 0.5]], "t": [0.5, 0.0]},
            {"A": [[0.5, 0.0], [0.0, 0.5]], "t": [0.0, 0.5]},
            {"A": [[0.5, 0.0], [0.0, 0.5]], "t": [0.5, 0.5]}]}"""
        doc = fh.parse_ifs_document(text)
        assert doc.complex_base is None
        assert doc.ifs.dim == 2
        assert len(doc.ifs.maps) == 4
        for m0, m1 in zip(square_ifs.maps, doc.ifs.maps):
            assert np.array_equal(m0.a, m1.a)
            assert np.array_equal(m0.t, m1.t)

    def test_complex_base_document(self):
        doc = fh.parse_ifs_document('{"complex_base": {"z": [1, 1], "n": 2}}')
        assert doc.complex_base == (1 + 1j, 2)
        assert doc.ifs.c == pytest.approx(1 / math.sqrt(2))

    def test_rejects_bad_json(self):
        with pytest.raises(fh.ValidationError):
            fh.parse_ifs_document("not json")

    def test_rejects_noncontracting(self):
        text = json.dumps(
            {"dim": 2, "maps": [{"A": [[1.0, 0.0], [0.0, 1.0]], "t": [0.0, 0.0]}]})
        with pytest.raises(fh.NotContractingError):
            fh.parse_ifs_document(text)

    def test_rejects_dim_mismatch(self):
        text = json.dumps(
            {"dim": 3, "maps": [{"A": [[0.5, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]}]})
        with pytest.raises(fh.ValidationError):
            fh.parse_ifs_document(text)

    @pytest.mark.parametrize("text", [
        '{"dim": "x", "maps": [{"A": [[0.5, 0], [0, 0.5]], "t": [0, 0]}]}',
        '{"dim": 2.5, "maps": [{"A": [[0.5, 0], [0, 0.5]], "t": [0, 0]}]}',
        '{"complex_base": {"z": ["a", 1], "n": 2}}',
        '{"complex_base": {"z": ["2", 0], "n": 2}}',
        '{"complex_base": {"z": [1, 1], "n": 2.5}}',
        '{"maps": [{"A": [[0.5, "x"], [0, 0.5]], "t": [0, 0]}]}',
        '{"maps": [{"A": [["0.5", 0], [0, 0.5]], "t": [0, 0]}]}',
        '{"maps": 5}',
        '[{"A": [[0.5]], "t": [0]}]',
        '{"maps": [{"A": [[0.5]]}]}',
        '{"maps": [{"t": [0]}]}',
        '{"maps": [[0.5]]}',
    ])
    def test_rejects_malformed_values(self, text):
        with pytest.raises(fh.ValidationError):
            fh.parse_ifs_document(text)

    def test_rejects_missing_keys(self):
        with pytest.raises(fh.ValidationError):
            fh.parse_ifs_document('{"dim": 2}')
        with pytest.raises(fh.ValidationError):
            fh.parse_ifs_document('{"complex_base": {"z": [2, 0]}}')

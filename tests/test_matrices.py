import numpy as np
import pytest

from geopolsar.matrices import (
    CoherencyMatrix,
    KennaughMatrix,
    PauliVector,
    SinclairMatrix,
    coherency_from_pauli,
    coherency_from_pauli_array,
    kennaugh_from_coherency,
    kennaugh_from_coherency_array,
    kennaugh_from_sinclair,
    kennaugh_from_sinclair_array,
    pack_coherency_array,
    packed_rows,
    pauli_from_sinclair,
    pauli_from_sinclair_array,
    span,
    span_array,
    unpack_coherency_array,
)
from geopolsar.preprocess import deorient_array, orientation_angle
from geopolsar.raster import KIND_COHERENCY, PolsarRaster

from conftest import kennaugh_expansion_oracle, random_psd_stack, random_sinclair_stack

SQRT2 = np.sqrt(2.0)

# kernels that take coherency stacks (..., 3, 3); the span and the Kennaugh map
# also read packed rows (..., 9)
PACKED_READERS = {
    "kennaugh": kennaugh_from_coherency_array,
    "span": lambda t: span_array(t, "coherency"),
}
STACK_KERNELS = {
    "kennaugh": kennaugh_from_coherency_array,
    "pack": pack_coherency_array,
    "deorient": deorient_array,
    "orientation_angle": orientation_angle,
    "span": PACKED_READERS["span"],
}


class TestPauli:
    def test_odd_bounce_maps_to_first_component(self):
        k = pauli_from_sinclair(SinclairMatrix(1, 0, 1))
        assert k.vector == pytest.approx([SQRT2, 0, 0])

    def test_even_bounce_maps_to_second_component(self):
        k = pauli_from_sinclair(SinclairMatrix(1, 0, -1))
        assert k.vector == pytest.approx([0, SQRT2, 0])

    def test_cross_pol_maps_to_third_component(self):
        k = pauli_from_sinclair(SinclairMatrix(0, 1, 0))
        assert k.vector == pytest.approx([0, 0, SQRT2])

    def test_norm_equals_span(self):
        rng = np.random.default_rng(11)
        s = random_sinclair_stack(rng, 500)
        k = pauli_from_sinclair_array(s)
        norms = np.einsum("na,na->n", k, k.conj()).real
        spans = span_array(s, "sinclair")
        assert np.abs(norms - spans).max() <= 1e-12 * spans.max()

    def test_vh_accessor_mirrors_hv(self):
        s = SinclairMatrix(1, 2 + 1j, 3)
        assert s.s_vh == s.s_hv
        assert s.matrix[1, 0] == s.matrix[0, 1]


class TestCoherency:
    def test_mean_outer_product(self):
        rng = np.random.default_rng(12)
        k = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        t = coherency_from_pauli_array(k)
        manual = sum(np.outer(k[i], k[i].conj()) for i in range(7)) / 7
        assert np.abs(t - manual).max() <= 1e-12 * np.abs(manual).max()

    def test_result_is_exactly_hermitian(self):
        rng = np.random.default_rng(13)
        k = rng.standard_normal((50, 9, 3)) + 1j * rng.standard_normal((50, 9, 3))
        t = coherency_from_pauli_array(k)
        assert np.array_equal(t, np.conj(np.swapaxes(t, -2, -1)))

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            coherency_from_pauli([])
        with pytest.raises(ValueError, match="no samples"):
            coherency_from_pauli_array(np.empty((0, 3)))

    def test_single_look_rank_one(self):
        p = PauliVector(1 + 1j, 2, -1j)
        t = coherency_from_pauli([p])
        eigs = np.linalg.eigvalsh(t.matrix)
        assert eigs[:2] == pytest.approx([0, 0], abs=1e-12)
        assert eigs[2] == pytest.approx(p.norm_squared())

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            CoherencyMatrix(1.0, -0.5, 1.0)

    def test_indefinite_matrix_rejected(self):
        # off-diagonal magnitude exceeding the geometric mean of the
        # diagonal forces a negative eigenvalue
        with pytest.raises(ValueError, match="positive semidefinite"):
            CoherencyMatrix(1.0, 1.0, 1.0, t12=1.5)

    def test_from_matrix_requires_hermitian(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = 1j
        with pytest.raises(ValueError, match="Hermitian"):
            CoherencyMatrix.from_matrix(m)

    @pytest.mark.parametrize(
        "entries", [(np.nan, 1, 1), (np.inf, 1, 1), (1, 1, 1, np.nan)], ids=["nan", "inf", "nan-t12"]
    )
    def test_non_finite_entries_rejected(self, entries):
        # these used to construct: NaN and inf slipped past every comparison
        with pytest.raises(ValueError, match="coherency matrix entries must be finite"):
            CoherencyMatrix(*entries)

    def test_tiny_negative_eigenvalue_tolerated(self):
        # eigenvalues dip ~1e-14 below zero; well inside the tolerance
        t = CoherencyMatrix(1.0, 1.0, 0.0, t12=1.0 + 1e-14)
        assert span(t) == pytest.approx(2.0)


class TestKennaugh:
    def test_symmetry_enforced_exactly(self):
        rng = np.random.default_rng(14)
        t = random_psd_stack(rng, 20)
        k = kennaugh_from_coherency_array(t)
        assert np.array_equal(k, np.swapaxes(k, -2, -1))

    def test_asymmetric_input_rejected(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            KennaughMatrix(m)

    def test_non_finite_entries_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            m = np.eye(4)
            m[0, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                KennaughMatrix(m)
        with pytest.raises(ValueError, match="finite"):
            KennaughMatrix(np.full((4, 4), np.nan))

    def test_backing_array_read_only(self):
        k = KennaughMatrix(np.eye(4))
        with pytest.raises(ValueError):
            k.matrix[0, 0] = 2.0

    def test_coherent_matches_expansion_matrix_construction(self):
        rng = np.random.default_rng(15)
        s = random_sinclair_stack(rng, 300)
        ours = kennaugh_from_sinclair_array(s)
        reference = kennaugh_expansion_oracle(s)
        scale = np.abs(reference).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(ours - reference) / scale).max() <= 1e-12

    def test_map_anchors(self):
        assert np.allclose(
            kennaugh_from_coherency_array(np.diag([2.0, 0, 0]).astype(complex)),
            np.diag([1.0, 1.0, 1.0, -1.0]),
            atol=1e-15,
        )
        assert np.allclose(
            kennaugh_from_coherency_array(np.diag([0, 2.0, 0]).astype(complex)),
            np.diag([1.0, 1.0, -1.0, 1.0]),
            atol=1e-15,
        )
        lam = 3.0
        t = (lam / 2.0) * np.diag([2.0, 1.0, 1.0]).astype(complex)
        assert np.allclose(
            kennaugh_from_coherency_array(t),
            lam * np.diag([1.0, 0.5, 0.5, 0.0]),
            atol=1e-15,
        )

    def test_statistical_convergence_to_population_matrix(self):
        """With many looks the sample matrices approach the population ones
        at the usual root-n rate."""
        rng = np.random.default_rng(17)
        c = np.array(
            [
                [2.0, 0.5 + 0.3j, 0.1j],
                [0.5 - 0.3j, 1.0, 0.2],
                [-0.1j, 0.2, 0.5],
            ]
        )
        chol = np.linalg.cholesky(c)
        n = 1000
        z = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * np.sqrt(0.5)
        k = z @ chol.T
        t_hat = coherency_from_pauli_array(k[None, :, :])[0]
        sigma = np.sqrt(np.outer(np.diag(c).real, np.diag(c).real) / n)
        assert (np.abs(t_hat - c) / sigma).max() <= 6.0
        k_hat = kennaugh_from_coherency_array(t_hat)
        k_pop = kennaugh_from_coherency_array(c)
        assert np.abs(k_hat - k_pop).max() <= 6.0 * np.sqrt(np.trace(c).real ** 2 / n)

    def test_single_pixel_wrappers(self):
        s = SinclairMatrix(1 + 2j, 0.5j, -1)
        k_coh = kennaugh_from_sinclair(s)
        assert k_coh.matrix == pytest.approx(kennaugh_expansion_oracle(s.matrix))
        t = CoherencyMatrix(2.0, 1.0, 0.5, t12=0.3 + 0.1j)
        k_inc = kennaugh_from_coherency(t)
        assert k_inc.k11 == pytest.approx(span(t) / 2.0)


class TestSpan:
    def test_all_representations_agree(self):
        rng = np.random.default_rng(18)
        s = random_sinclair_stack(rng, 100)
        pauli = pauli_from_sinclair_array(s)
        t = coherency_from_pauli_array(pauli[:, None, :])
        k = kennaugh_from_sinclair_array(s)
        s_span = span_array(s, "sinclair")
        t_span = span_array(t, "coherency")
        k_span = span_array(k, "kennaugh")
        assert np.abs(s_span - t_span).max() <= 1e-12 * s_span.max()
        assert np.abs(s_span - k_span).max() <= 1e-12 * s_span.max()

    def test_scalar_dispatch(self):
        s = SinclairMatrix(3, 4j, 1 - 1j)
        expected = 9.0 + 2 * 16.0 + 2.0
        assert span(s) == pytest.approx(expected)
        assert span(pauli_from_sinclair(s)) == pytest.approx(expected)
        k = kennaugh_from_sinclair(s)
        assert span(k) == pytest.approx(expected)
        assert span(CoherencyMatrix(1, 2, 3)) == pytest.approx(6.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix kind"):
            span_array(np.eye(3), "mueller")
        with pytest.raises(TypeError):
            span(np.eye(3))


class TestPackedLayout:
    def test_round_trips_bitwise(self):
        rng = np.random.default_rng(70)
        p = rng.standard_normal((200, 9))
        p[rng.random(p.shape) < 0.1] = -0.0
        p[rng.random(p.shape) < 0.1] = 0.0
        t = unpack_coherency_array(p)
        assert pack_coherency_array(t).tobytes() == np.ascontiguousarray(p).tobytes()
        assert unpack_coherency_array(pack_coherency_array(t)).tobytes() == t.tobytes()
        # exactly Hermitian, with a real diagonal
        assert np.array_equal(t, np.swapaxes(t, 1, 2).conj())
        assert not np.diagonal(t, axis1=1, axis2=2).imag.any()

    def test_layout_is_the_t3_component_order(self):
        t = np.array(
            [[1.0, 4 + 7j, 5 + 8j], [4 - 7j, 2.0, 6 + 9j], [5 - 8j, 6 - 9j, 3.0]]
        )
        assert pack_coherency_array(t).tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert pack_coherency_array(t[None]).shape == (1, 9)

    def test_trace_of_a_product_is_a_weighted_dot(self):
        rng = np.random.default_rng(71)
        weights = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        x = rng.standard_normal((2, 500, 3, 3)) + 1j * rng.standard_normal((2, 500, 3, 3))
        a, b = x + np.swapaxes(x, -1, -2).conj()
        trace = np.einsum("nij,nji->n", a, b)
        dot = np.einsum("nc,nc->n", pack_coherency_array(a), weights * pack_coherency_array(b))
        assert np.abs(trace.imag).max() <= 1e-13 * np.abs(trace).max()
        assert dot == pytest.approx(trace.real, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize(
        "kernel, shape",
        [
            pytest.param(kernel, shape, id=f"shape{i}-{name}")
            for i, shape in enumerate([(5, 7, 9), (9,), (4, 4), (3, 3, 2), (5, 7, 8)])
            for name, kernel in STACK_KERNELS.items()
            # the span and the Kennaugh map read packed rows (..., 9)
            if shape[-1] != 9 or name not in PACKED_READERS
        ],
    )
    def test_coherency_kernels_reject_other_shapes(self, kernel, shape):
        # packed rows passed by mistake used to be misread without an error
        with pytest.raises(ValueError, match=r"\(\.\.\., 3, 3\)"):
            kernel(np.ones(shape))

    @pytest.mark.parametrize("kernel", list(PACKED_READERS.values()), ids=list(PACKED_READERS))
    @pytest.mark.parametrize("shape", [(5, 7, 9), (9,)])
    def test_coherency_kernels_read_packed_rows(self, kernel, shape):
        p = np.random.default_rng(72).standard_normal(shape)
        assert kernel(p).tobytes() == kernel(unpack_coherency_array(p)).tobytes()

    def test_packed_rows_pass_through_and_pack(self):
        p = np.random.default_rng(73).standard_normal((4, 9))
        assert packed_rows(p) is p
        assert packed_rows(p.astype(np.float32)).dtype == np.float64
        t = unpack_coherency_array(p)
        assert packed_rows(t).tobytes() == pack_coherency_array(t).tobytes()

    def test_span_and_kennaugh_agree_bitwise_across_layouts_and_scales(self):
        rng = np.random.default_rng(74)
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            t = random_psd_stack(rng, 2000) * scale
            p = pack_coherency_array(t)
            mask = rng.random((40, 50)) < 0.9
            for kernel in PACKED_READERS.values():
                assert kernel(p).tobytes() == kernel(t).tobytes()
            planes = PolsarRaster(KIND_COHERENCY, p.reshape(40, 50, 9), mask).span()
            stack = PolsarRaster(KIND_COHERENCY, t.reshape(40, 50, 3, 3), mask).span()
            assert planes.tobytes() == stack.tobytes()
            assert planes[mask].tobytes() == span_array(t, "coherency")[mask.ravel()].tobytes()
            assert span_array(t, "coherency").tobytes() == np.trace(t, axis1=1, axis2=2).real.tobytes()

import numpy as np
import pytest

from geopolsar.matrices import (
    PSD_TOLERANCE,
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
    packed_ldl,
    packed_rows,
    pauli_from_sinclair,
    pauli_from_sinclair_array,
    span,
    span_array,
    unpack_coherency_array,
)
from geopolsar.preprocess import deorient_array, multilook, orientation_angle
from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster

from conftest import kennaugh_expansion_oracle, random_psd_stack, random_sinclair_stack

SQRT2 = np.sqrt(2.0)

# kernels that take coherency stacks (..., 3, 3); the span and the Kennaugh map
# also read packed rows (..., 9)
PACKED_READERS = {
    "kennaugh": kennaugh_from_coherency_array,
    "span": span_array,
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

    def test_cross_pol_channel_is_the_mean_of_hv_and_vh(self):
        # a non-reciprocal matrix reads as HV' = (HV + VH) / 2, not as HV alone
        k = pauli_from_sinclair_array(np.array([[0, 1], [0, 0]], dtype=complex))
        assert k.tobytes() == np.array([0, 0, 1 / SQRT2], dtype=complex).tobytes()

    def test_non_reciprocal_stacks_read_as_their_averaged_copy(self):
        rng = np.random.default_rng(21)
        s = random_sinclair_stack(rng, 500, scale=3.0)
        s[:, 1, 0] += rng.standard_normal(500) + 1j * rng.standard_normal(500)
        averaged = s.copy()
        averaged[:, 0, 1] = averaged[:, 1, 0] = 0.5 * (s[:, 0, 1] + s[:, 1, 0])
        for kernel in (pauli_from_sinclair_array, kennaugh_from_sinclair_array):
            assert kernel(s).tobytes() == kernel(averaged).tobytes()

    def test_norm_equals_span(self):
        rng = np.random.default_rng(11)
        s = random_sinclair_stack(rng, 500)
        k = pauli_from_sinclair_array(s)
        norms = np.einsum("na,na->n", k, k.conj()).real
        spans = span_array(s)
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
        # a zero trace with a nonzero off-diagonal: eigenvalues -1, 0 and 1
        with pytest.raises(ValueError, match="positive semidefinite"):
            CoherencyMatrix(0.0, 0.0, 0.0, t12=1.0)

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


def random_unitary(rng, n):
    """(n, 3, 3) unitary matrices, the Q factors of complex Gaussian matrices."""
    z = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    return np.linalg.qr(z)[0]


def skewed_wishart_stack(rng, n):
    """(n, 3, 3) sample coherency matrices of 3 to 5 looks of CN(0, I), each
    pixel's Pauli amplitudes scaled by factors spread over 3 decades, so the
    condition number reaches 1e9 or more in 20,000 of them."""
    looks = rng.integers(3, 6, n)
    z = rng.standard_normal((n, 5, 3)) + 1j * rng.standard_normal((n, 5, 3))
    z *= (np.arange(5) < looks[:, None])[..., None]  # only the first L looks count
    z *= 10.0 ** rng.uniform(0.0, 3.0, (n, 1, 3))
    return np.einsum("nla,nlb->nab", z, z.conj()) / looks[:, None, None]


def long_double_logdet_and_inverse(t):
    """ln|T| and p(T^-1) of (n, 3, 3) Hermitian stacks, by cofactors in np.clongdouble."""
    t = np.asarray(t).astype(np.clongdouble)
    a, b, c, x, y, z = (t[:, i, j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
    adj = [b * c - z * z.conj(), a * c - y * y.conj(), a * b - x * x.conj(),
           y * z.conj() - x * c, x * z - y * b, x.conj() * y - a * z]
    det = (a * adj[0] + x * adj[3].conj() + y * adj[4].conj()).real
    packed = np.stack([e.real for e in adj] + [e.imag for e in adj[3:]], axis=-1)
    return np.log(det), packed / det[:, None]


class TestPackedLdl:
    def test_logdet_and_inverse_against_long_double(self):
        # errors in units of cond(T) * eps; over 600,000 such matrices the
        # largest seen were 15.9 for ln|T| and 0.68 for the inverse (LAPACK's
        # slogdet and inv: 10.9 and 0.56), and each bound is 2x that
        assert np.finfo(np.longdouble).eps < 1e-18  # the reference has 3 more digits
        t = skewed_wishart_stack(np.random.default_rng(2004), 20000)
        eigs = np.linalg.eigvalsh(t)
        unit = eigs[:, -1] / eigs[:, 0] * np.finfo(float).eps
        assert unit.max() > 1e8 * np.finfo(float).eps
        d, adj, tr = packed_ldl(pack_coherency_array(t))
        assert (d > 0.0).all()
        logdet = 3.0 * np.log(tr) + np.log(d).sum(axis=-1)
        inverse = adj / (d.prod(axis=-1) * tr)[:, None]
        ref_logdet, ref_inverse = long_double_logdet_and_inverse(t)
        assert (np.abs(logdet - ref_logdet) <= 32.0 * unit).all()
        largest = np.abs(ref_inverse).max(axis=-1)
        assert (np.abs(inverse - ref_inverse).max(axis=-1) <= 1.4 * unit * largest).all()

    def test_pivots_are_scale_free(self):
        p = pack_coherency_array(skewed_wishart_stack(np.random.default_rng(2006), 20))
        d, adj, tr = packed_ldl(p)
        for scale in (2.0**-1000, 2.0**900):
            ds, adjs, trs = packed_ldl(p * scale)
            assert np.array_equal(ds, d) and np.array_equal(adjs, adj)
            assert np.array_equal(trs, tr * scale)


class TestPsdTraps:
    """Rules a closed-form PSD test can break, checked on ``CoherencyMatrix``."""

    @pytest.mark.parametrize("looks", [1, 2])
    def test_low_rank_matrices_construct(self, looks):
        # a determinant of T + tol tr I is ~1e-18 tr^3 here, below its own rounding
        rng = np.random.default_rng(150 + looks)
        scales = 10.0 ** rng.uniform(-100, 100, 1000)
        t = random_psd_stack(rng, 1000, looks=looks) * scales[:, None, None]
        for matrix in t:
            CoherencyMatrix.from_matrix(matrix)

    def test_psd_rule_agrees_with_the_smallest_eigenvalue(self):
        # eigmin / (tol tr) spans [-3, 3]: the rule is eigmin >= -tol tr
        rng = np.random.default_rng(152)
        n = 4000
        ratio = rng.uniform(-3.0, 3.0, n)
        top = 10.0 ** rng.uniform(-2.0, 2.0, (n, 2))
        low = ratio * PSD_TOLERANCE * top.sum(axis=1) / (1.0 - ratio * PSD_TOLERANCE)
        u = random_unitary(rng, n)
        t = np.einsum("nij,nj,nkj->nik", u, np.column_stack([top, low]), u.conj())
        t = unpack_coherency_array(pack_coherency_array(t))  # exactly Hermitian
        expected = np.linalg.eigvalsh(t)[:, 0] >= -PSD_TOLERANCE * np.trace(t, axis1=1, axis2=2).real
        accepted = []
        for matrix in t:
            try:
                CoherencyMatrix.from_matrix(matrix)
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert 0.3 * n < np.count_nonzero(expected) < 0.9 * n
        assert np.array_equal(accepted, expected)


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
        s_span = span_array(s)
        t_span = span_array(t)
        k_span = span_array(k)
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
        # the Pauli vector's span is its single-look coherency's, to the bit
        rng = np.random.default_rng(22)
        for hh, hv, vv in random_sinclair_stack(rng, 2000)[:, [0, 0, 1], [0, 1, 1]]:
            s = SinclairMatrix(hh, hv, vv)
            assert span(pauli_from_sinclair(s)) == span(s)

    def test_sinclair_span_is_the_trace_of_its_single_look_multilook(self):
        rng = np.random.default_rng(23)
        s = random_sinclair_stack(rng, 12 * 9, scale=3.0).reshape(12, 9, 2, 2)
        s[..., 1, 0] += rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
        anchor = np.array([[[[1, 1], [0, 1]]]], dtype=complex)
        for stack in (s, anchor):
            raster = PolsarRaster(KIND_SINCLAIR, stack)
            trace = span_array(multilook(raster, 1, 1).data)
            assert raster.span().tobytes() == trace.tobytes()
        # |HH|^2 + 2 |HV'|^2 + |VV|^2 with HV' = 1/2, where HV alone gave 4
        assert PolsarRaster(KIND_SINCLAIR, anchor).span()[0, 0] == pytest.approx(2.5, rel=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            span(np.eye(3))

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "stack"])
    @pytest.mark.parametrize("kind", ["sinclair", "kennaugh", "coherency", "packed"])
    def test_trailing_shape_names_the_kind(self, kind, lead):
        # one matrix or a stack of them, each kind read from its trailing shape
        s = random_sinclair_stack(np.random.default_rng(19), 5)
        t = coherency_from_pauli_array(pauli_from_sinclair_array(s)[:, None, :])
        data = {
            "sinclair": s,
            "kennaugh": kennaugh_from_sinclair_array(s),
            "coherency": t,
            "packed": pack_coherency_array(t),
        }[kind]
        expected = (np.abs(s) ** 2).sum(axis=(1, 2))
        got = span_array(data[0] if lead == () else data)
        assert got.shape == lead
        assert np.abs(got - (expected[0] if lead == () else expected)).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("kind", ["sinclair", "kennaugh", "coherency", "packed"])
    def test_rows_select_the_matrices_summed(self, kind):
        # seeding takes each category's spans from its members' entries alone
        s = random_sinclair_stack(np.random.default_rng(20), 12)
        t = coherency_from_pauli_array(pauli_from_sinclair_array(s)[:, None, :])
        data = {
            "sinclair": s,
            "kennaugh": kennaugh_from_sinclair_array(s),
            "coherency": t,
            "packed": pack_coherency_array(t),
        }[kind]
        members = np.arange(12) % 3 == 1
        grid = data.reshape((3, 4) + data.shape[1:])  # a 2-D stack and a 2-D mask
        for stack, rows in ((data, members), (data, [7, 0, 7]), (data, slice(2, 9, 3)),
                            (grid, members.reshape(3, 4))):
            assert span_array(stack, rows).tobytes() == span_array(stack)[rows].tobytes()

    @pytest.mark.parametrize("shape", [(5, 2, 4), (5, 4, 2), (4,), (2,)])
    def test_shapes_of_no_kind_rejected(self, shape):
        # near misses of a Sinclair or Kennaugh stack fall through to packed_rows
        with pytest.raises(ValueError, match=r"\(\.\.\., 3, 3\)"):
            span_array(np.ones(shape))


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
            # the span and the Kennaugh map read packed rows (..., 9), and the
            # span reads a (4, 4) stack as a Kennaugh matrix
            if (shape[-1] != 9 or name not in PACKED_READERS) and (shape, name) != ((4, 4), "span")
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

    @pytest.mark.parametrize(
        "kernel, trailing",
        [
            pytest.param(pauli_from_sinclair_array, "2, 2", id="pauli"),
            pytest.param(kennaugh_from_sinclair_array, "2, 2", id="kennaugh-sinclair"),
        ],
    )
    @pytest.mark.parametrize("shape", [(5, 3, 3), (5, 2, 4), (4,)])
    def test_sinclair_and_kennaugh_kernels_reject_other_shapes(self, kernel, trailing, shape):
        # a (5, 3, 3) stack used to read as Sinclair spans of 4 and Kennaugh spans of 2
        with pytest.raises(ValueError, match=rf"\(\.\.\., {trailing}\), got shape"):
            kernel(np.ones(shape))

    def test_complex_packed_rows_rejected(self):
        # the imaginary parts used to be dropped with only a ComplexWarning
        rows = np.ones((4, 4, 9), dtype=complex)
        with pytest.raises(ValueError, match="packed coherency rows must be real"):
            packed_rows(rows)
        with pytest.raises(ValueError, match="packed coherency rows must be real"):
            PolsarRaster(KIND_COHERENCY, rows)

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
            assert planes[mask].tobytes() == span_array(t)[mask.ravel()].tobytes()
            assert span_array(t).tobytes() == np.trace(t, axis1=1, axis2=2).real.tobytes()


# symmetric within the tolerance: the lower (1, 0) entry is 1e-12 off the upper one
NEAR_SYMMETRIC = [[1.0, 0.1, 0.2, 0.3], [0.1 * (1 + 1e-12), 0.5, 0.0, 0.0],
                  [0.2, 0.0, 0.5, 0.0], [0.3, 0.0, 0.0, -0.5]]


@pytest.mark.parametrize("build, fields", [
    pytest.param(lambda: SinclairMatrix(1, np.float32(2), 3j),
                 dict.fromkeys(("s_hh", "s_hv", "s_vv"), complex), id="sinclair"),
    pytest.param(lambda: PauliVector(np.int64(1), 2.0, np.complex64(3j)),
                 dict.fromkeys(("k1", "k2", "k3"), complex), id="pauli"),
    pytest.param(lambda: CoherencyMatrix(np.int64(2), np.float32(1), 1, 1, 0.0, 0j),
                 {**dict.fromkeys(("t11", "t22", "t33"), float),
                  **dict.fromkeys(("t12", "t13", "t23"), complex)}, id="coherency"),
    pytest.param(lambda: KennaughMatrix(NEAR_SYMMETRIC), {"matrix": np.ndarray}, id="kennaugh"),
])
def test_value_types_coerce_freeze_and_compare(build, fields):
    a, b = build(), build()
    for name, kind in fields.items():
        assert type(getattr(a, name)) is kind
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    if isinstance(a, KennaughMatrix):
        # by identity, which the target registry's equality relies on
        assert a != b and a == a
        assert a in {a} and len({a, b}) == 2
        # the upper triangle is mirrored onto the lower one, bit for bit
        assert a.matrix[1, 0] == NEAR_SYMMETRIC[0][1]
        assert np.array_equal(a.matrix, a.matrix.T)
    else:
        assert a == b and hash(a) == hash(b)


# the raster's checks are here too: its payload is a stack of these matrices
@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: CoherencyMatrix.from_matrix(np.eye(2)),
                 r"expected a 3x3 matrix, got shape \(2, 2\)", id="coherency-shape"),
    pytest.param(lambda: KennaughMatrix(np.eye(3)),
                 r"expected a 4x4 matrix, got shape \(3, 3\)", id="kennaugh-shape"),
    pytest.param(lambda: coherency_from_pauli_array(np.ones((4, 2))),
                 r"expected shape \(\.\.\., L, 3\), got \(4, 2\)", id="pauli-shape"),
    pytest.param(lambda: PolsarRaster(KIND_SINCLAIR, np.zeros((2, 2, 3))),
                 r"sinclair raster needs shape \(rows, cols, 2, 2\), got \(2, 2, 3\)",
                 id="raster-payload"),
    pytest.param(lambda: PolsarRaster(KIND_COHERENCY, np.zeros((2, 2, 9)), np.ones((3, 2))),
                 r"mask shape \(3, 2\) does not match raster shape \(2, 2\)", id="raster-mask"),
    pytest.param(lambda: PolsarRaster(KIND_SINCLAIR, np.zeros((1, 1, 2, 2)), looks=0),
                 "looks must be positive", id="raster-looks"),
])
def test_rejected_inputs(build, match):
    with pytest.raises(ValueError, match=match):
        build()

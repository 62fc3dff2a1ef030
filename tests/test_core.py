import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from egsolve.core import (
    DimensionMismatch,
    InvalidAlpha,
    MonotoneClass,
    MonotonicityParams,
    NonFiniteEvaluation,
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
    TRACE_CHUNK,
    finite_diff_jacobian,
    norm,
    read_csv,
    spectral_norm,
    vec,
    write_csv,
)
from egsolve.analysis import read_fit_csv, read_scatter_csv
from egsolve.solver import read_trace_csv, solve
from egsolve.stepsize import parse_policy


class TestVec:
    def test_freezes_and_casts(self):
        v = vec([1, 2, 3])
        assert v.dtype == np.float64
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            vec([1.0, 2.0], dim=3)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteEvaluation):
            vec([1.0, math.nan])
        with pytest.raises(NonFiniteEvaluation):
            vec([math.inf, 0.0])

    def test_norm(self):
        assert norm([3.0, 4.0]) == 5.0

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                      elements=st.one_of(st.floats(width=64),
                                         st.floats(1e153, 1e155),
                                         st.floats(-1e155, -1e153))))
    def test_norm_is_bit_identical_to_numpy(self, x):
        # entries near 1e154 square to near the float64 maximum; inf and nan
        # come from st.floats. Both sides warn alike on overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = norm(x), float(np.linalg.norm(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm([[-3.0]]) == 3.0

    def test_2x2_closed_form_matches_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = rng.standard_normal((2, 2))
            assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), abs=1e-12)

    def test_rotation_like(self):
        M = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert spectral_norm(M) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_matches_numpy_norm_exactly(self):
        rng = np.random.default_rng(0)
        shapes = [(1, 1), (2, 2)] + [(n, n) for n in range(3, 9)] + [(20, 20), (2, 3), (5, 2), (1, 4)]
        mats = [rng.standard_normal(shape) for shape in shapes for _ in range(20)]

        def with_singular_values(sigma, seed):
            r = np.random.default_rng(seed)
            n = len(sigma)
            U, _ = np.linalg.qr(r.standard_normal((n, n)))
            V, _ = np.linalg.qr(r.standard_normal((n, n)))
            return U @ np.diag(sigma) @ V.T

        # close top singular values: a 1e-5 gap, and the top pair of a
        # cubicRd d=10 Jacobian that `verify` meets. Seeded power iteration
        # does not converge on the first and stops 8e-8 short on the second.
        mats.append(with_singular_values([1.0, 0.99999, 0.5, 0.1], 2))
        mats.append(with_singular_values(np.r_[93.7527, 93.7388, np.linspace(50.0, 1.0, 18)], 11))
        for M in mats:
            assert spectral_norm(M) == float(np.linalg.norm(M, 2))
        assert spectral_norm(mats[-1]) == pytest.approx(93.7527, rel=1e-12)

    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(0)
        for n in (3, 5, 8):
            M = rng.standard_normal((n, n))
            assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-7)

    def test_power_iteration_deterministic(self):
        M = np.random.default_rng(3).standard_normal((6, 6))
        assert spectral_norm(M) == spectral_norm(M)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_rejects_nonmatrix(self):
        with pytest.raises(DimensionMismatch):
            spectral_norm(np.ones(3))
        with pytest.raises(NonFiniteEvaluation):
            spectral_norm(np.array([[math.nan, 0.0], [0.0, 1.0]]))


class TestFiniteDiffJacobian:
    def test_quadratic_field_exact_to_roundoff(self):
        def fn(x):
            return np.array([x[0] * x[0] + x[1], x[1] * x[1] - x[0]])

        x = np.array([1.5, -0.5])
        J = finite_diff_jacobian(fn, x)
        exact = np.array([[3.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(J, exact, atol=1e-9)

    def test_nonfinite_propagates(self):
        def fn(x):
            with np.errstate(divide="ignore"):
                return np.array([1.0 / x[0]])

        with pytest.raises(NonFiniteEvaluation):
            finite_diff_jacobian(fn, np.array([0.0]), h=0.0)


class TestParams:
    def test_smoothness_validation(self):
        s = SmoothnessParams(0.5, 1.0, 2.0)
        assert (s.alpha, s.L0, s.L1) == (0.5, 1.0, 2.0)
        with pytest.raises(Exception):
            SmoothnessParams(0.0, 1.0, 1.0)
        with pytest.raises(Exception):
            SmoothnessParams(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            SmoothnessParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            SmoothnessParams(1.0, 1.0, -0.5)
        for L0, L1 in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                SmoothnessParams(1.0, L0, L1)
        with pytest.raises(InvalidAlpha):
            SmoothnessParams(math.nan, 1.0, 1.0)

    def test_monotonicity_validation(self):
        MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=2.0)
        MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=0.1)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=0.0)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.MONOTONE, mu=1.0)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.MONOTONE, rho=0.3)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=-0.1)
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError):
                MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=v)
            with pytest.raises(ValueError):
                MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=v)
            with pytest.raises(ValueError):
                MonotonicityParams(MonotoneClass.MONOTONE, mu=v)
            with pytest.raises(ValueError):
                MonotonicityParams(MonotoneClass.MONOTONE, rho=v)


TRACE_HEADER = "k,gamma,omega,norm_F_x,norm_F_xhat,dist_sq"


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308])
_FLOAT = st.one_of(_SPECIAL, st.floats())   # st.floats() also draws subnormals


_NAN_PAYLOAD = float(np.array([0x7FF8000000000001]).view(np.float64)[0])   # a second NaN
_RUN_VALUE = st.one_of(st.sampled_from([0.0, -0.0, math.nan, _NAN_PAYLOAD]), _FLOAT)


@st.composite
def _csv_columns(draw):
    """1 to 6 equal-length columns of each kind write_csv takes: a float64 ndarray,
    a list mixing Python and numpy numbers with None, a range, or None; at least one
    is not None. Each is a drawn run of cells repeated to a length that may cross a
    TRACE_CHUNK boundary. A "runs" array repeats each drawn value up to a chunk and
    more (0.0 beside -0.0, NaN beside NaN); an "alias" column is an earlier array
    column again: the same object, an equal copy, or its np.abs."""
    n = draw(st.one_of(st.integers(1, 5), st.integers(TRACE_CHUNK - 2, 2 * TRACE_CHUNK + 2)))
    cell = st.one_of(st.none(), st.integers(-10 ** 20, 10 ** 20), _FLOAT, _FLOAT.map(np.float64),
                     st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
    cols = []
    kinds = st.sampled_from(["array", "runs", "alias", "list", "range", "none"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6).filter(lambda k: set(k) != {"none"})):
        arrays = [c for c in cols if isinstance(c, np.ndarray)]
        if kind == "alias" and arrays:
            a = draw(st.sampled_from(arrays))
            cols.append(draw(st.sampled_from([a, a.copy(), np.abs(a)])))
        elif kind in ("runs", "alias"):
            values = draw(st.lists(_RUN_VALUE, min_size=1, max_size=6))
            sizes = draw(st.lists(st.integers(1, TRACE_CHUNK + 2),
                                  min_size=len(values), max_size=len(values)))
            cols.append(np.resize(np.repeat(values, sizes), n))
        elif kind == "array":
            cols.append(np.resize(np.array(draw(st.lists(_FLOAT, min_size=1, max_size=8))), n))
        elif kind == "list":
            run = draw(st.lists(cell, min_size=1, max_size=8))
            cols.append([run[i % len(run)] for i in range(n)])
        elif kind == "range":
            a = draw(st.integers(-10 ** 6, 10 ** 6))
            cols.append(range(a, a + n))
        else:
            cols.append(None)
    return n, cols


# runs of 0.0, -0.0 and two NaNs across a chunk boundary, as one array twice and a
# copy; and zeros beside their abs, which compares equal but is not the same bits
_RUNS = np.repeat([0.0, -0.0, math.nan, _NAN_PAYLOAD, -0.0], [TRACE_CHUNK - 1, 2, 1, 1, 3])
_ZEROS = np.repeat([-0.0, 0.0, 2.0, -0.0], [3, TRACE_CHUNK, 2, 1])


class TestCsv:
    @given(_csv_columns())
    @example((2, [[None, 1.0]]))   # a one-column row whose cell is empty
    @example((len(_RUNS), [_RUNS, _RUNS, range(len(_RUNS)), _RUNS.copy(), None]))
    @example((len(_ZEROS), [_ZEROS, np.abs(_ZEROS)]))
    @settings(max_examples=100, deadline=None)
    def test_writes_the_bytes_of_csv_writer(self, drawn):
        # csv.writer is the reference: it also quotes a lone empty cell as ""
        n, cols = drawn
        header = [f"c{i}" for i in range(len(cols))]
        want = io.StringIO()
        ref = csv.writer(want, lineterminator="\n")
        ref.writerow(header)
        ref.writerows([None if c is None else c[i] for c in cols] for i in range(n))
        got = io.StringIO()
        write_csv(got, header, cols, footer="# end\n")
        assert got.getvalue() == want.getvalue() + "# end\n"

    def test_cells_are_plain_numbers(self, tmp_path):
        p = str(tmp_path / "t.csv")
        write_csv(p, ["a", "b", "c"],
                  [[1, np.float64(-0.0)], [np.float64(0.1), math.inf], [None, 5e-324]],
                  footer="# done\n")
        with open(p, newline="") as fh:
            assert fh.read() == "a,b,c\n1,0.1,\n-0.0,inf,5e-324\n# done\n"
        footers = []
        assert list(read_csv(p, ["a", "b", "c"], "test", (str,) * 3, footer=footers.append)) == [
            ["1", "0.1", ""], ["-0.0", "inf", "5e-324"]]
        assert footers == [["# done"]]
        with pytest.raises(ValueError, match="not a fit CSV"):
            list(read_csv(p, ["a", "b"], "fit", (str,) * 2))
        # an ndarray column spanning three bounded runs writes each cell as str() does
        v = np.random.default_rng(0).standard_normal(2 * TRACE_CHUNK + 1)
        v[[0, TRACE_CHUNK, 2 * TRACE_CHUNK]] = [-0.0, math.inf, 5e-324]
        write_csv(p, ["k", "v", "d"], [range(len(v)), v, None])
        with open(p, newline="") as fh:
            assert fh.read() == "k,v,d\n" + "".join(f"{k},{x},\n" for k, x in enumerate(v))

    @pytest.mark.parametrize("reader, header, good", [
        (read_trace_csv, "k,gamma,omega,norm_F_x,norm_F_xhat,dist_sq", "0,1,1,1,1,1"),
        (read_scatter_csv, "norm_F,norm_J,k", "1,2,0"),
        (read_fit_csv, "alpha,L0,L1,max_violation", "1,2,3,0"),
    ], ids=["trace", "scatter", "fit"])
    @pytest.mark.parametrize("bad", ["1,2", "1,2,3,4,5,6,7", ""], ids=["short", "long", "empty"])
    def test_row_of_the_wrong_width_names_file_and_line(self, reader, header, good, bad,
                                                        tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f"{header}\n{good}\n{bad}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}, line 3: "):
            reader(str(p))
        p.write_text(f"{header}\n{good}\n")
        reader(str(p))

    @pytest.mark.parametrize("reader, header, good, bad", [
        (read_scatter_csv, "norm_F,norm_J,k", "1,2,0", "# note"),
        (read_fit_csv, "alpha,L0,L1,max_violation", "1,2,3,0", "# note"),
        (read_trace_csv, TRACE_HEADER, "0,1,1,1,1,1", "# note"),
        (read_trace_csv, TRACE_HEADER, "0,1,1,1,1,1", "# iters=1,min_normF=0.5"),
        (read_trace_csv, TRACE_HEADER, "0,1,1,1,1,1", "# iters=x,min_normF=0.5,reason=y"),
        (read_trace_csv, TRACE_HEADER, "0,1,1,1,1,1", "1,abc,1,1,1,1"),
        (read_scatter_csv, "norm_F,norm_J,k", "1,2,0", "1,2,1.0"),
        (read_fit_csv, "alpha,L0,L1,max_violation", "1,2,3,0", "x,2,3,0"),
    ], ids=["scatter-comment", "fit-comment", "trace-comment", "trace-footer-no-reason",
            "trace-footer-bad-iters", "trace-cell", "scatter-k", "fit-cell"])
    def test_bad_row_names_file_and_line(self, reader, header, good, bad, tmp_path):
        # one ValueError naming the file and the line of the first bad row;
        # only a trace CSV has a # row, its summary footer
        p = tmp_path / "t.csv"
        p.write_text(f"{header}\n{good}\n{bad}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}, line 3: "):
            reader(str(p))


class TestOperatorInstance:
    def _op(self, solution=None):
        return OperatorInstance(
            dim=2,
            fn=lambda x: np.array([x[0] + x[1], x[1] - x[0]]),
            solution=solution,
            label="toy",
        )

    def test_root_declaration_checked(self):
        self._op(solution=[0.0, 0.0])
        with pytest.raises(ValueError):
            self._op(solution=[1.0, 0.0])

    def test_call_validates_output_dim(self):
        op = OperatorInstance(dim=2, fn=lambda x: np.array([x[0]]), label="bad")
        with pytest.raises(DimensionMismatch):
            op(np.zeros(2))

    def test_call_passes_float64_vectors_through(self):
        seen = []
        out = np.array([1.0, 2.0])
        op = OperatorInstance(dim=2, fn=lambda x: seen.append(x) or out)
        x = np.array([0.5, -0.5])
        assert op(x) is out and seen[0] is x
        op([1, 2])                                    # a list or an int array is converted
        assert seen[1].dtype == np.float64 and np.array_equal(seen[1], [1.0, 2.0])

    @pytest.mark.parametrize("make", [
        lambda v: [float(a) for a in v],              # a list
        lambda v: v.reshape(-1, 1),                   # a (dim, 1) column
        lambda v: v.astype(np.float32),               # float32
    ], ids=["list", "column", "float32"])
    def test_call_converts_other_outputs(self, make):
        v = np.array([0.25, -1.5, 3.0])
        got = OperatorInstance(dim=3, fn=lambda x: make(v))(np.zeros(3))
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (3,)
        assert np.array_equal(got, np.asarray(make(v), dtype=np.float64).reshape(-1))

    def test_call_returns_a_strided_output_whose_solve_norms_equal_norm(self):
        # F(x) = M x written to every other entry of a buffer: a strided view,
        # whose dot sums in another order than the contiguous copy norm() takes
        rng = np.random.default_rng(3)
        n = 20
        K = rng.standard_normal((n, n))
        M = 3.0 * np.eye(n) + K - K.T

        def fn(x):
            buf = np.zeros(2 * n)
            buf[::2] = M @ x
            return buf[::2]
        op = OperatorInstance(dim=n, fn=fn, solution=np.zeros(n), label="strided")
        x = rng.standard_normal(n)
        assert op(x).strides == (16,) and np.array_equal(op(x), M @ x)
        tr = solve(op, parse_policy("const:0.01"),
                   SolveConfig(max_iters=200, x0=rng.standard_normal(n) * 100.0, stop_tol=0.0))
        h = float.hex
        rows = tr.rows
        assert [(h(a), h(b)) for a, b in zip(rows.norm_F_x, rows.norm_F_xhat)] == [
            (h(norm(op(x))), h(norm(op(xhat)))) for x, xhat in zip(rows.x_k, rows.xhat_k)]

    @pytest.mark.parametrize("out", [np.zeros(3), [0.0], np.zeros((2, 2))],
                             ids=["long-vector", "short-list", "square"])
    def test_call_wrong_length_raises_one_message(self, out):
        op = OperatorInstance(dim=2, fn=lambda x: out, label="bad")
        n = np.asarray(out).size
        with pytest.raises(DimensionMismatch,
                           match=rf"^bad returned dimension {n}, expected 2$"):
            op(np.zeros(2))

    def test_jacobian_fallback_is_finite_difference(self):
        op = self._op()
        J = op.jacobian_at(np.array([0.3, -0.7]))
        assert np.allclose(J, [[1.0, 1.0], [-1.0, 1.0]], atol=1e-9)

    def test_batch_fallback_loops_over_rows(self):
        op = self._op()
        X = np.array([[0.3, -0.7], [2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(op.call_batch(X), np.stack([op(x) for x in X]))
        assert np.array_equal(op.jacobian_batch_at(X), np.stack([op.jacobian_at(x) for x in X]))

    def test_batch_output_shape_checked(self):
        X = np.zeros((3, 2))
        op = OperatorInstance(dim=2, fn=lambda x: x, fn_batch=lambda X: X[:, :1],
                              jacobian_batch=lambda X: np.zeros((3, 2, 3)), label="bad")
        with pytest.raises(DimensionMismatch):
            op.call_batch(X)
        with pytest.raises(DimensionMismatch):
            op.jacobian_batch_at(X)
        with pytest.raises(DimensionMismatch):
            op.call_batch(np.zeros((3, 3)))
        scalar_jac = OperatorInstance(dim=1, fn=lambda x: x, jacobian=lambda x: 1.0)
        with pytest.raises(DimensionMismatch):
            scalar_jac.jacobian_batch_at(np.zeros((2, 1)))


class TestSolveStructures:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iters=0, x0=[1.0])
        with pytest.raises(ValueError):
            SolveConfig(max_iters=5, x0=[1.0], stop_tol=-1.0)
        with pytest.raises(ValueError):
            SolveConfig(max_iters=5, x0=[1.0], stop_tol=math.inf)
        cfg = SolveConfig(max_iters=5, x0=[1.0, 2.0], stop_tol=0.0)
        assert not cfg.x0.flags.writeable

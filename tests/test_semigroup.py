import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dst
from scipy.linalg import eigh_tridiagonal

import oscillab
from oscillab.corpus import CORPUS, corpus_grid, member_by_name
from oscillab.errors import ConfigError, GridMismatchError, LadderError
from oscillab.grid import Grid, GridFunction
from oscillab.potential import constant_potential, power_potential
from oscillab.semigroup import (
    _LADDER_BLOCK_BYTES,
    TLadder,
    _ddx,
    apply_spectral,
    default_ladder,
    discretize,
    dst1,
    interior_index_window,
    log_weights_for,
    poisson_extension,
    square_function_field,
)
from oracles import constant, heat, poisson, poisson_subordinated


@pytest.fixture(scope="module")
def small_op():
    g = Grid(halfwidth=4.0, spacing=0.125)
    return discretize(constant_potential(1.0, 1), g)


def _mode(op, k: int) -> GridFunction:
    """The operator's k-th eigenvector (0-based), embedded with zero walls."""
    return GridFunction(op.grid, op.synthesize(np.eye(op.interior_count)[k]))


def _interior_zeroed(f: GridFunction) -> np.ndarray:
    v = f.values.copy()
    v[0] = v[-1] = 0.0
    return v


def test_dirichlet_eigenvalues_constant_potential():
    # -Laplacian_h + c on N interior points has
    # lambda_k = (4/h^2) sin^2(k pi / (2(N+1))) + c
    g = Grid(halfwidth=2.0, spacing=0.25)
    op = discretize(constant_potential(3.0, 1), g)
    N = op.interior_count
    assert N == g.size - 2
    k = np.arange(1, N + 1)
    want = 4.0 / 0.25**2 * np.sin(k * math.pi / (2 * (N + 1))) ** 2 + 3.0
    assert np.allclose(np.sort(op.eigenvalues), np.sort(want), rtol=1e-12)


def test_eigenvectors_orthonormal(small_op):
    e = np.stack([_mode(small_op, k).values[1:-1] for k in range(small_op.interior_count)], axis=1)
    assert np.allclose(e.T @ e, np.eye(small_op.interior_count), atol=1e-12)


def test_discretize_cap():
    g = Grid(halfwidth=4.0, spacing=0.125)
    with pytest.raises(ConfigError):
        discretize(constant_potential(1.0, 1), g, cap=16)


def test_discretize_cap_message_names_the_compared_count():
    # 4097 samples against a cap of 4096: the message quotes the sample
    # count that was compared, not the 4095 interior unknowns
    g = Grid(halfwidth=16.0, spacing=2.0**-7)
    with pytest.raises(ConfigError, match=r"operator size 4097 exceeds the cap 4096"):
        discretize(constant_potential(1.0, 1), g)


def test_discretize_rejects_potentials_without_a_sine_basis():
    g = Grid(halfwidth=4.0, spacing=0.125)
    with pytest.raises(ConfigError, match="power"):
        discretize(power_potential(1.5, 1), g)


@pytest.mark.parametrize("grid", [corpus_grid(), Grid(halfwidth=4.0, spacing=0.125)], ids=["corpus", "small"])
def test_sine_backend_matches_dense_oracle(grid):
    # the dense eigendecomposition of the same tridiagonal matrix is the
    # oracle for the closed-form eigenvalues and the DST-I basis
    op = discretize(constant_potential(1.0, 1), grid)
    m, h = op.interior_count, grid.spacing
    lam, E = eigh_tridiagonal(np.full(m, 2.0 / h**2 + 1.0), np.full(m - 1, -1.0 / h**2))
    assert np.max(np.abs(op.eigenvalues - lam) / lam) <= 1e-12

    s = np.sqrt(lam)
    lad = TLadder.geometric(h, grid.halfwidth / 4.0, per_decade=4)
    t = lad.values[:, None]

    def dense(weights):
        out = np.zeros(weights.shape[:-1] + grid.shape)
        out[..., 1:-1] = weights @ E.T
        return out

    for member in CORPUS:
        f = member.build(grid)
        c = E.T @ f.values[1:-1]
        for tt in (0.1, 1.0):
            assert np.max(np.abs(heat(op, f, tt).values - dense(np.exp(-tt * lam) * c))) <= 1e-12
            assert np.max(np.abs(poisson(op, f, tt).values - dense(np.exp(-tt * s) * c))) <= 1e-12
        F = square_function_field(op, f, lad)
        assert np.max(np.abs(F.values - dense(t * s * np.exp(-t * s) * c))) <= 1e-12
        G = poisson_extension(op, f, lad)
        u = dense(np.exp(-t * s) * c)
        gx = np.stack([tj * _ddx(u[j], h) for j, tj in enumerate(lad.values)])
        want = np.sqrt(dense(-t * s * np.exp(-t * s) * c) ** 2 + gx**2)
        assert np.max(np.abs(G.values - want)) <= 1e-12

    # the eigenvector member is the dense fourth eigenvector, L2-normalised
    got = member_by_name("eigenvector").build(grid).values
    want = np.zeros(grid.shape)
    want[1:-1] = E[:, 3] / math.sqrt(h)
    assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-12


def test_dst1_matches_pocketfft_dst_bit_for_bit():
    # scipy.fft.dst is the oracle; the long-double scale is what makes the
    # two agree to the last bit
    rng = np.random.default_rng(12)
    for n in (*range(1, 301), 1023, 2047, 4094):
        x = rng.standard_normal((3, n))
        assert np.array_equal(dst1(x[0]), dst(x[0], type=1, norm="ortho")), n
        assert np.array_equal(dst1(x), dst(x, type=1, norm="ortho", axis=-1)), n


def test_field_blocks_match_one_transform_of_the_whole_ladder(op16):
    # ladder lengths around the block size, and 50 with a partial last block
    s = np.sqrt(op16.eigenvalues)
    step = _LADDER_BLOCK_BYTES // (16 * (s.size + 1))
    assert step == 8
    f = member_by_name("bump-narrow").build(op16.grid)
    coef = op16.coefficients(f)

    def psi(t, s):
        return t * s * np.exp(-t * s)

    for count in (1, step - 1, step, step + 1, 50):
        lad = TLadder(np.geomspace(op16.grid.spacing, 4.0, count))
        want = np.zeros((count,) + op16.grid.shape)
        want[:, 1:-1] = dst(psi(lad.values[:, None], s) * coef, type=1, norm="ortho", axis=-1)
        assert np.array_equal(square_function_field(op16, f, lad).values, want), count
        # the extension's magnitude, from u, t du/dt and t du/dx over the
        # whole ladder, t du/dx slice by slice
        t = lad.values[:, None]
        u, dt = np.zeros((2, count) + op16.grid.shape)
        u[:, 1:-1] = dst(np.exp(-t * s) * coef, type=1, norm="ortho", axis=-1)
        dt[:, 1:-1] = dst(-t * s * np.exp(-t * s) * coef, type=1, norm="ortho", axis=-1)
        gx = np.array([tj * _ddx(uj, op16.grid.spacing) for tj, uj in zip(lad.values, u)])
        assert np.array_equal(poisson_extension(op16, f, lad).values, np.sqrt(dt**2 + gx**2)), count


def test_heat_semigroup_law(small_op):
    g = small_op.grid
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.normal(size=g.shape))
    lhs = heat(small_op, heat(small_op, f, 0.3), 0.7)
    rhs = heat(small_op, f, 1.0)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10


def test_heat_at_zero_is_interior_identity(small_op):
    g = small_op.grid
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.normal(size=g.shape))
    got = heat(small_op, f, 0.0)
    assert np.allclose(got.values, _interior_zeroed(f), atol=1e-10)


def test_subordination_matches_direct_exponential(small_op):
    g = small_op.grid
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = GridFunction(g, rng.normal(size=g.shape))
        for t in (0.1, 1.0):
            direct = poisson(small_op, f, t)
            sub = poisson_subordinated(small_op, f, t)
            assert np.max(np.abs(direct.values - sub.values)) <= 1e-8


def test_subordination_at_zero(small_op):
    f = constant(small_op.grid, 2.0)
    got = poisson_subordinated(small_op, f, 0.0)
    assert np.allclose(got.values, _interior_zeroed(f))


def test_apply_spectral_validates_psi(small_op):
    f = constant(small_op.grid, 1.0)
    with pytest.raises(ConfigError):
        apply_spectral(small_op, lambda s: s[:-1], f)
    with pytest.raises(ConfigError):
        apply_spectral(small_op, lambda s: np.full_like(s, np.nan), f)


def test_apply_spectral_rejects_other_grid(small_op):
    other = Grid(halfwidth=4.0, spacing=0.25)
    with pytest.raises(GridMismatchError):
        heat(small_op, constant(other, 1.0), 0.1)


def test_ladder_construction():
    lad = TLadder.geometric(0.01, 1.0, per_decade=8)
    assert lad.values[0] == 0.01
    assert lad.values[-1] == 1.0
    assert np.all(np.diff(lad.values) > 0)
    # trapezoid weights in log t telescope to log(t_max / t_min)
    assert np.sum(lad.log_weights) == pytest.approx(math.log(100.0))
    with pytest.raises(ConfigError):
        TLadder(np.array([0.2, 0.1]))
    with pytest.raises(ConfigError):
        TLadder.geometric(1.0, 0.5)


@pytest.mark.parametrize("scales", [[math.nan, 0.5, 1.0], [0.1, math.nan, 1.0], [0.1, 0.5, math.nan],
                                    [0.1, 0.5, math.inf], [math.nan]])
def test_ladder_refuses_scales_that_are_not_finite(scales):
    # a NaN compares false both ways, so it passed the order checks, and
    # made NaN log weights and a box of one slice at any radius
    with pytest.raises(ConfigError, match="finite"):
        TLadder(np.array(scales))


def test_box_weights_take_the_slices_at_or_below_the_radius():
    # the ladder of a 2,049-sample box, from h at 16 per decade
    lad = default_ladder(Grid(halfwidth=16.0, spacing=2.0**-6))
    t, m = lad.values, len(lad)
    for j in range(2, m + 1):
        # a radius at a scale, or a hair below it, takes that scale's slice
        for r in (t[j - 1], t[j - 1] * (1 - 1e-13)):
            w = lad.box_weights(r)
            assert w.size == j
            assert np.array_equal(w.view(np.uint64), log_weights_for(t[:j]).view(np.uint64))
    assert np.array_equal(lad.box_weights(t[-1] * (1 + 5e-10)), lad.log_weights)
    with pytest.raises(LadderError, match="top scale"):
        lad.box_weights(t[-1] * (1 + 2e-9))
    # a dt/t trapezoid needs two slices
    for r in (t[0] / 2, t[0], t[1] * (1 - 1e-9)):
        with pytest.raises(LadderError, match="needs two"):
            lad.box_weights(r)


def test_default_ladder_spans_h_to_quarter_box():
    g = Grid(halfwidth=4.0, spacing=0.125)
    lad = default_ladder(g)
    assert lad.values[0] == pytest.approx(0.125)
    assert lad.values[-1] == pytest.approx(1.0)


def test_only_semigroup_touches_the_sine_basis():
    # every function of L is made in semigroup.py (SpectralOperator.scale_rows
    # or apply_spectral): no other module transforms or synthesizes
    # coefficients, or reads the spectrum
    package = Path(oscillab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            if (call and node.func.attr in ("coefficients", "synthesize")) or (
                isinstance(node, ast.Attribute) and node.attr == "eigenvalues"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_square_function_field_on_eigenvector(small_op):
    f = _mode(small_op, 2)
    lad = TLadder(np.array([0.25, 0.5, 1.0]))
    field = square_function_field(small_op, f, lad)
    s = math.sqrt(small_op.eigenvalues[2])
    for j, t in enumerate(lad.values):
        want = t * s * math.exp(-t * s) * f.values
        assert np.allclose(field.values[j], want, atol=1e-12)


def test_poisson_extension_derivative_identity(small_op):
    # on a mode, u = e^{-t s} f, so t du/dt = -t s u; with t du/dx = t _ddx(u)
    # the field is the magnitude of the two
    f = _mode(small_op, 1)
    lad = TLadder(np.array([0.25, 1.0]))
    G = poisson_extension(small_op, f, lad)
    s = math.sqrt(small_op.eigenvalues[1])
    h = small_op.grid.spacing
    for j, t in enumerate(lad.values):
        u = poisson(small_op, f, t).values
        assert np.allclose(u, math.exp(-t * s) * f.values, atol=1e-12)
        want = np.sqrt((-t * s * u) ** 2 + (t * _ddx(u, h)) ** 2)
        assert np.allclose(G.values[j], want, atol=1e-12)


def test_x_gradient_against_exact_sine_derivative():
    # free-operator eigenvectors are exact sines, so t * du/dx has a closed
    # form; the interior stencil is 4th order, the walls drop to 2nd
    g = Grid(halfwidth=4.0, spacing=0.125)
    op = discretize(constant_potential(0.0, 1), g)
    k = 2
    f = _mode(op, k - 1)
    t = 0.5
    s = math.sqrt(op.eigenvalues[k - 1])
    N = op.interior_count
    amp = math.sqrt(2.0 / (N + 1))
    omega = k * math.pi / (2 * g.halfwidth)
    u = math.exp(-t * s) * amp * np.sin(omega * (g.axis + g.halfwidth))
    assert np.allclose(poisson(op, f, t).values, u, atol=1e-12)
    want = t * math.exp(-t * s) * amp * omega * np.cos(omega * (g.axis + g.halfwidth))
    got = t * _ddx(u, g.spacing)
    err = np.abs(got - want)
    assert np.max(err[3:-3]) <= 1e-5
    assert np.max(err) <= 1e-3


def test_interior_index_window():
    g = Grid(halfwidth=6.0, spacing=0.5)
    a, b = interior_index_window(g, 1.0 / 3.0)
    x = g.axis[a:b]
    assert np.all(np.abs(x) <= 2.0 + 1e-12)
    assert x.size == 9
    with pytest.raises(ConfigError):
        interior_index_window(g, 0.0)


@pytest.mark.parametrize("halfwidth, spacing, window", [
    (6.0, 0.5, 1.0 / 3.0),  # the bound 2 + 1e-12 just past the sample at 2
    (3.0, 0.1, 1.0 / 3.0),  # a spacing that is not a power of two
    (3.0, 0.1, 0.7),
    (300.0, 0.01, 0.3),
    (16.0, 2.0**-7, 1.0 / 3.0),
    (8.0, 0.25, 1.0),  # every sample
    (8.0, 0.25, 0.01),  # the origin alone
])
def test_interior_bounds_equal_the_dense_axis_expression(halfwidth, spacing, window):
    # the two bounds name the same samples as the comparison over every
    # coordinate that grid.axis holds
    g = Grid(halfwidth=halfwidth, spacing=spacing)
    want = np.nonzero(np.abs(g.axis) <= window * g.halfwidth + 1e-12)[0]
    assert want.size == want[-1] + 1 - want[0]
    assert interior_index_window(g, window) == (int(want[0]), int(want[-1]) + 1)

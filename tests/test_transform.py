"""The real-FFT grid transform and the blocked pair kernel against the
complex-FFT transforms and per-start-point loops of ``spectral_oracle``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_oracle as oracle
from schemelab import spectral
from schemelab.models import make_model
from schemelab.schemes import make_scheme
from schemelab.solver import SolverConfig, remainder_diagnostic, simulate
from schemelab.spectral import Transform, full_spectrum, holder_seminorm_estimate, to_physical
from spectral_oracle import half_spectrum


def real_field(rng, n, N, scale=1.0):
    """Coefficients -N..N (n, 2N+1) of a random real field."""
    c = scale * (rng.standard_normal((n, 2 * N + 1))
                 + 1j * rng.standard_normal((n, 2 * N + 1)))
    return 0.5 * (c + np.conj(c[:, ::-1]))


@st.composite
def fields(draw):
    """The coefficients -N..N (n, 2N+1) of a real field and a grid
    M >= 2N+1, odd or even."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, 24))
    M = 2 * N + 1 + draw(st.integers(0, 9))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return real_field(rng, n, N, scale), M


# -- the transform ------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(fields())
def test_grid_values_match_the_complex_transform(case):
    c, M = case
    half = half_spectrum(c)
    N = half.shape[-1] - 1
    new, old = to_physical(half, M), oracle.to_physical(c, M)
    scale = float(np.abs(c).max())
    assert np.abs(new - old).max() <= 1e-14 * scale * (2 * N + 1)
    assert np.array_equal(new, Transform(N, M).to_grid(half))


@settings(max_examples=120, deadline=None)
@given(fields())
def test_round_trip_reality_and_parseval(case):
    c, M = case
    half = half_spectrum(c)
    N = half.shape[-1] - 1
    g = to_physical(half, M)
    back = Transform(N, M).to_coeffs(g)
    scale = float(np.abs(c).max())
    assert np.abs(full_spectrum(back) - c).max() <= 1e-13 * scale
    assert np.all(back[:, 0].imag == 0.0)
    old = oracle.to_spectral(g, N)
    assert np.abs(full_spectrum(back) - old).max() <= 1e-13 * scale
    lhs = float((np.abs(c) ** 2).sum())
    rhs = 2.0 * np.pi / M * float((g ** 2).sum())
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
def test_reality_is_exact_for_any_real_grid(N, extra, seed):
    M = 2 * N + 1 + extra
    half = Transform(N, M).to_coeffs(np.random.default_rng(seed).standard_normal((2, M)))
    assert np.all(half[:, 0].imag == 0.0)          # mode 0 is real


# (N, M): odd and even M, M = 2N + 1, the solvers' M = 3N, and the lift's
# (2N, P = 2M) of (4, 9), (12, 40) and (256, 768)
GRIDS = [(0, 1), (0, 2), (4, 9), (4, 10), (12, 25), (12, 40), (12, 41), (64, 129),
         (64, 192), (256, 513), (256, 768), (256, 769), (8, 18), (24, 80), (512, 1536)]


@pytest.mark.parametrize("B", [1, 3, 24])
@pytest.mark.parametrize("N, M", GRIDS)
def test_bare_transforms_fold_the_scales(N, M, B):
    """The unscaled transforms, with the phase and scales folded into the
    input and output multipliers as the solver's step does, give the grid
    values and modes of ``to_grid`` and ``to_coeffs`` within 1e-14, for
    n = 2 fields of a batch of B runs; and ``mode_sums`` of a zero-padded
    ``mode_buffer`` is, bit for bit, that of modes 0..N."""
    rng = np.random.default_rng(N + M + B)
    half = rng.standard_normal((2, B, N + 1)) + 1j * rng.standard_normal((2, B, N + 1))
    values = rng.standard_normal((2, B, M))
    t = Transform(N, M)
    sign = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    grid = t.mode_sums(half * sign / spectral.SQRT_2PI)
    old_grid = t.to_grid(half)
    assert np.abs(grid - old_grid).max() <= 1e-14 * np.abs(old_grid).max()
    coeffs = t.grid_sums(values) * t.coeff_scale
    old_coeffs = t.to_coeffs(values)
    assert np.abs(coeffs - old_coeffs).max() <= 1e-14 * np.abs(old_coeffs).max()
    modes = t.mode_buffer((2, B))
    modes[..., :N + 1] = half
    assert modes.shape == (2, B, M // 2 + 1)
    assert np.array_equal(t.mode_sums(modes), t.mode_sums(half))


FFT_NAMES = ("fft", "fftpack")


def _is_fft(name: list) -> bool:
    """A dotted name, as its parts, of numpy's or scipy's FFT module or of
    numpy's pocketfft ufunc module, whatever it is reached through."""
    return ((len(name) > 1 and name[0] in ("np", "numpy", "scipy") and name[1] in FFT_NAMES)
            or any("pocketfft" in part for part in name))


def fft_uses(source: str) -> list:
    """Lines of ``source`` that import numpy's or scipy's FFT module or
    numpy's pocketfft ufuncs, or read them as an attribute (the FFT module
    of np, numpy or scipy, the ufunc module of anything); prose never
    counts."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")
            names = [module] + [module + [a.name] for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [[node.value.id, node.attr] if isinstance(node.value, ast.Name)
                     else [node.attr]]
        else:
            continue
        if any(_is_fft(n) for n in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_fft_use_finder():
    source = "\n".join([
        '"""np.fft in a docstring does not count."""',
        "import numpy as np  # nor does scipy.fft in a comment",
        "x = np.fft.rfft(y)",
        "import scipy.fft",
        "from numpy import fft",
        "from scipy.fft import irfft",
        "import numpy.fft as nf",
        "z = numpy.fft",
        "w = np.linalg.norm(y)",
        "from numpy.fft import _pocketfft_umath as pf",
        "v = fft_module._pocketfft_umath.irfft(y, 1)",
        "u = np.fft._pocketfft_umath",
        "# _pocketfft_umath in a comment does not count",
    ])
    assert fft_uses(source) == [3, 4, 5, 6, 7, 8, 10, 11, 12]


# leading shapes of 1-D to 5-D arrays, and grids of even and odd M
LEADS = [(), (3,), (2, 3), (2, 1, 3), (1, 2, 1, 3)]


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("N, M", [(0, 1), (4, 9), (4, 10), (12, 41), (256, 768), (256, 769)])
def test_bare_transforms_are_np_fft_bit_for_bit(N, M, lead):
    """``mode_sums`` and ``grid_sums`` call numpy's pocketfft ufuncs with
    np.fft's factor: of modes 0..N or of a ``mode_buffer``, of contiguous or
    strided grid values, with and without ``out``, they give the bits of
    ``np.fft.irfft(..., norm="forward")`` and ``np.fft.rfft(...)[..., :N+1]``,
    and with ``out`` they write to it.  ``to_grid`` and ``to_coeffs`` call
    the same ufuncs and give the bits of np.fft's scaled transforms."""
    rng = np.random.default_rng(N + M + len(lead))
    t = Transform(N, M)
    half = rng.standard_normal(lead + (N + 1,)) + 1j * rng.standard_normal(lead + (N + 1,))
    buf = t.mode_buffer(lead)
    buf[..., :N + 1] = half
    grid = np.fft.irfft(half, M, norm="forward")
    grid_out = np.empty(lead + (M,))
    for got in (t.mode_sums(half), t.mode_sums(buf),
                t.mode_sums(half, out=grid_out), t.mode_sums(buf, out=grid_out)):
        assert got.shape == grid.shape and got.tobytes() == grid.tobytes()
    assert t.mode_sums(buf, out=grid_out) is grid_out
    scaled = np.fft.irfft(half * t.sign, M) * t.grid_scale
    assert t.to_grid(half).tobytes() == scaled.tobytes()

    wide = rng.standard_normal(lead + (2 * M,))
    modes_out = t.mode_buffer(lead)
    for values in (wide[..., :M], wide[..., ::2]):        # contiguous rows, strided
        modes = np.fft.rfft(values)[..., :N + 1]
        for got in (t.grid_sums(values), t.grid_sums(values, out=modes_out)):
            assert got.shape == modes.shape and got.tobytes() == modes.tobytes()
        assert np.shares_memory(t.grid_sums(values, out=modes_out), modes_out)
        scaled = np.fft.rfft(values)[..., :N + 1] * t.coeff_scale
        assert t.to_coeffs(values).tobytes() == scaled.tobytes()


def test_fft_calls_only_in_spectral():
    """Every grid transform of the package goes through spectral.Transform:
    no other module of the package touches np.fft or scipy.fft."""
    package = Path(spectral.__file__).parent
    found = {path.name: fft_uses(path.read_text())
             for path in sorted(package.rglob("*.py")) if path.name != "spectral.py"}
    assert len(found) >= 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_transform_rejects_a_small_grid():
    with pytest.raises(ValueError, match="too small"):
        Transform(8, 16)
    Transform(8, 17)


def test_trajectory_grid_and_spectral_agree():
    cfg = SolverConfig(scheme=make_scheme("forward_difference"), eps=0.25, N=12,
                       M=40, dt=1e-3, T=0.02, model=make_model(1, G="state"),
                       record_times=(0.01, 0.02))
    traj = simulate(cfg, seed=3)
    for i in range(len(traj.times)):
        assert traj.coeffs[i].shape == (1, cfg.N + 1)
        assert np.array_equal(traj.grid(i, cfg.M), to_physical(traj.coeffs[i], cfg.M))


# -- the pair kernel ------------------------------------------------------------

def smooth_grid(rng, n, N, M):
    return to_physical(half_spectrum(real_field(rng, n, N)), M)


@pytest.mark.parametrize("stride", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 2])
def test_holder_is_bitwise_the_loop(n, stride):
    u = smooth_grid(np.random.default_rng(5 + n), n, 256, 768)
    for gamma in (0.34, 0.46):
        assert (holder_seminorm_estimate(u, gamma, stride)
                == oracle.holder_seminorm_estimate(u, gamma, stride))


@pytest.mark.parametrize("stride", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_remainder_is_bitwise_the_loop(n, stride):
    rng = np.random.default_rng(11 + n)
    psi, X = smooth_grid(rng, n, 64, 192), smooth_grid(rng, n, 64, 192)
    theta = 1.0 + 0.3 * rng.standard_normal((n, n, 192))
    for gamma in (1e-9, 0.4):
        assert (remainder_diagnostic(psi, theta, X, gamma, stride)
                == oracle.remainder_diagnostic(psi, theta, X, gamma, stride))


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), M=st.integers(2, 48), stride=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_small_blocks_change_no_bit(block, n, M, stride, seed):
    rng = np.random.default_rng(seed)
    u, X = rng.standard_normal((n, M)), rng.standard_normal((n, M))
    theta = rng.standard_normal((n, n, M))
    saved = spectral.PAIR_BLOCK
    spectral.PAIR_BLOCK = block
    try:
        assert (holder_seminorm_estimate(u, 0.4, stride)
                == oracle.holder_seminorm_estimate(u, 0.4, stride))
        assert (remainder_diagnostic(u, theta, X, 0.3, stride)
                == oracle.remainder_diagnostic(u, theta, X, 0.3, stride))
    finally:
        spectral.PAIR_BLOCK = saved


@pytest.mark.parametrize("stride", [0, -1])
def test_a_stride_below_one_is_rejected(stride):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((1, 32))
    with pytest.raises(ValueError, match="stride"):
        remainder_diagnostic(u, np.ones((1, 1, 32)), u, 0.4, stride)
    with pytest.raises(ValueError, match="stride"):
        holder_seminorm_estimate(u, 0.4, stride)

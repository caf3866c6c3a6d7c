"""Exponential-Euler time stepping of the approximating SPDE.

One step advances the band-limited state by

    uhat(t+dt) = e^{-k^2 f(eps k) dt} [ uhat(t) + dt Nhat(u(t)) + Shat(t) ],

where N(u) = F(u) + G(u) D_eps u - Lambda theta(u) DG(u) theta(u) is
evaluated pseudo-spectrally (the quadratic-type product G(u) D_eps u
dealiased by the 2/3 rule) and S(t) = theta(u(t)) (H_eps dW) uses the
left-point state, so the noise integral is an Ito one.  The linear part is integrated exactly;
there is no CFL restriction.

Half-spectrum state: the fields are real (uhat(-k) = conj uhat(k)), so a
run's initial data, state and snapshots (``Trajectory.coeffs``) are modes
0..N, (n, N+1) with a real mode 0, put on the grid by ``spectral.Transform``.

Noise convention: per step a draw of shape (N+1, n) with unit complex rows
1..N and a unit real row 0 (lift.draw_increments is one such step); mode
increments of W are sqrt(dt) times the draw, which is already the half
spectrum.  Runs that share the draws differ only through their
multipliers, which is what makes strong-error ladders across eps possible.
A run's generator is consumed in one canonical order: every real part of
every step, then every imaginary part.  ``draw_noise`` returns that stream
as one (steps, N+1, n) array; ``NoiseStream`` walks the real parts once to
find the generator states at the start of the real and of the imaginary
parts, keeps only those two, and reads the same increments, bit for bit,
in order, a few steps at a time, so a run holds O(NOISE_ROWS) noise
instead of O(steps).

Noise groups: ``simulate_coupled`` takes one noise source (stream or
array) for all its runs or one per run; the runs given the same source
object form a group.  The loop reads every group's source in sub-blocks of
NOISE_ROWS // (n B) steps (at least one), so the noise of a sub-block holds
at most NOISE_ROWS rows of the batch, n B per step; each group's draws are
scaled by each of its runs' multipliers, and runs of one group with equal
multipliers share that work.  How the noise w then enters a step depends on
the model.  When its theta is a declared constant matrix Theta
(``ModelFunctions.theta_constant``, set by ``make_model(theta="one")``),
Theta w is added to each run's half spectrum: the noise never reaches the
grid, and theta is never called.  Otherwise every run's w / dt goes to the
grid with one irfft call per sub-block, and the step multiplies it by
theta(u) there.  The loop makes a sub-block's noise when it reaches it,
for the runs still in the batch.  So the noise working set holds the
sub-block being stepped, and the next one while it is made, of at most
NOISE_ROWS rows each whatever the batch width B, unless one step alone holds
more; a noise grid and its modes are written into buffers of the plan, over
the last sub-block's.  The loop carries one state: the Gaussian reference field X is a run
of its own, of the linear model (F = G = 0, theta = Id declared constant)
on the same noise, with Lambda = 0, zero initial data and no
conservation form (see ``upsilon_diagnostic``).

Batches: ``simulate_coupled`` steps its runs together.  The state of B
runs has layout (n, B, N+1) and its grid (n, B, M), so the model callables,
which act pointwise on trailing axes, see the batch as a wider grid.
Runs may share a batch when they agree on N, M, dt, T, model, record_times
and blowup_cap; the model fixes the noise path of the whole batch.  Each
run keeps its own noise group, scheme and eps (decay, derivative and noise
multipliers), Lambda and conservation form.  Per step the
batch makes one inverse transform, of u and D_eps u, and one forward
transform of B + R rows: the B products, which alone are dealiased, and the
rests of the R runs whose rest can be nonzero.  A run's rest is theta(u)
times the noise grid when theta depends on u, plus F, plus its corrected
drift -Lambda theta DG theta when Lambda != 0 (a drift run); so R = B
unless theta is a declared constant and F a declared zero (None), and then
R counts the drift runs.  One DG call and one contraction give the drift
of every drift run of a step, with theta theta^T from the plan when theta
is constant, else from the theta grid that the noise term made, so theta
is evaluated at most once per step.  When DG is a declared constant too
(``ModelFunctions.dg_constant``, set by ``make_model``), with theta
constant and F = None, a drift run's rest is the same every step: the plan
makes it by the same contraction and transforms it once, and the steps add
its modes, so R = 0 and a step makes no DG call and no contraction.  Both
transforms are unscaled: the grid phase (-1)^k, the 1/sqrt(2 pi) scales,
dt, the dealiasing mask and the conservation form's D_eps live in per-run
input and output multipliers, and they call numpy's pocketfft ufuncs into
buffers the plan owns (``spectral.Transform``).  ``_Operators`` makes the
multipliers, the rest rows, the transformed constant drift and the
buffers, the step plan, once per set of live runs: when a truncated run
leaves the batch, the plan of the runs left is made anew from their
configs.  ``simulate`` is a batch of one, so there is a single
stepping path, ``step``.  The Monte-Carlo experiments step a chunk of
samples as one batch, in sample-major order, each sample one noise group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it with the module, not in a run

from schemelab.correction import _contract, _theta_theta, lambda_exact
from schemelab.models import ModelFunctions
from schemelab.schemes import (
    CutoffScheme,
    derivative_multiplier,
    laplacian_multiplier,
    make_scheme,
    noise_multiplier,
)
from schemelab.spectral import SQRT_2PI, Transform, pair_reduce


class NumericalAbort(RuntimeError):
    """The integrator produced a non-finite value at the recorded time."""

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


@dataclass
class SolverConfig:
    scheme: CutoffScheme
    eps: float
    N: int
    M: int
    dt: float
    T: float
    model: ModelFunctions
    Lambda: float = 0.0                # the run's drift is -Lambda theta DG theta
    record_times: tuple | None = None  # None: (T,)
    blowup_cap: float = 1e6
    initial: np.ndarray | None = None  # modes 0..N (n, N+1), mode 0 real
    conservation_form: bool = False

    def __post_init__(self):
        if self.M < 2 * self.N + 1:
            raise ValueError("need M >= 2N+1")
        if self.dt <= 0 or self.T <= 0 or self.eps <= 0:
            raise ValueError("eps, dt and T must be > 0")
        if not np.isfinite(self.Lambda):
            raise ValueError("Lambda must be finite")
        if self.record_times is None:
            self.record_times = (self.T,)
        self.record_times = tuple(sorted(set(float(t) for t in self.record_times)))
        for t in self.record_times:
            if not 0.0 <= t <= self.T + 1e-12:
                raise ValueError("record times must lie in [0, T]")
            if abs(round(t / self.dt) * self.dt - t) > 1e-9 * max(1.0, self.T):
                raise ValueError(f"record time {t} is not on the step grid")
        if self.initial is not None:
            self.initial = np.asarray(self.initial, dtype=complex)
            shape = (self.model.n, self.N + 1)
            if self.initial.shape != shape or np.any(self.initial[:, 0].imag):
                raise ValueError(f"initial data must be modes 0..N of shape (n, N+1) = "
                                 f"{shape} with a real mode 0")
        if self.conservation_form and self.model.potential is None:
            raise ValueError("conservation form needs a model potential")

    @property
    def steps(self) -> int:
        steps = int(round(self.T / self.dt))
        if abs(steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError("T must be an integer multiple of dt")
        return steps


class _Operators:
    """The step plan of the runs of one batch: what every step decides
    alike, made once per set of live runs from their configs and noise
    groups (the source index of each run).

    Per-run arrays carry the run on their first axis: the multipliers are
    (B, N+1), and they broadcast against states of layout (n, B, N+1).  Each
    run's row is computed from its own config alone, so the plan of some of
    the runs holds their rows of the plan of all, bit for bit.

    The rest of a run is theta(u) times the noise grid when theta depends on
    u, plus F, plus -Lambda theta DG theta for a drift run (Lambda != 0),
    filled in that order.  It can be nonzero for every run when F is not a
    declared zero (None) or theta depends on u, else only for the drift
    runs: those R runs get a rest row, unless DG is declared constant too.
    Then each drift run's rest is the same every step, and the plan makes
    it once, by the contraction a step would make, and keeps its modes
    times coeff_scale dt as ``drift_hat`` (n, R_drift, N+1); R = 0.  The
    plan holds the work buffers (the modes of u and D_eps u, their grid
    values, the grid rows of the B products and the R rests, and their
    modes), the drift runs with their rest rows and -Lambda column, theta
    theta^T when theta is constant, and the multipliers into which the
    transform scales are folded (complex, x + 0j, where they multiply
    complex states: the bits of the real multiplier without a cast per
    step):

    - ``in_mult`` (2, 1, B, N+1): sign / sqrt(2 pi) and dmult times that,
      which put u and D_eps u on the grid by one unscaled irfft;
    - ``out_mult`` (B + R, N+1): coeff_scale dt times the dealiasing mask
      (and dmult in conservation form) for each product row, and
      coeff_scale dt for each rest row;
    - ``noise_mult`` (B, N+1): sqrt(dt) hmult, the increment of H_eps W,
      when theta is constant; else hmult sign / (sqrt(2 pi) sqrt(dt)),
      which puts that increment over dt on the grid by one unscaled irfft,
      so that the noise term shares the rest rows' dt;
    - ``decay`` (B, N+1): the exact linear step.

    Also the conservation-form masks and the runs of each distinct noise.
    """

    def __init__(self, configs, groups=None):
        first = configs[0]
        model, N, M, dt = first.model, first.N, first.M, first.dt
        n, B = model.n, len(configs)
        ks = np.arange(N + 1)
        transform = Transform(N, M)
        self.N, self.model, self.transform = N, model, transform
        self.decay = np.array([
            np.exp(laplacian_multiplier(c.scheme, ks, c.eps) * c.dt) for c in configs],
            dtype=complex)
        dmult = np.array([derivative_multiplier(c.scheme, ks, c.eps) for c in configs])
        hmult = np.array([noise_multiplier(c.scheme, ks, c.eps) for c in configs])
        Lambda = np.array([c.Lambda for c in configs], dtype=float)
        self.conservation = np.array([c.conservation_form for c in configs])
        self.any_conservation = bool(self.conservation.any())
        self.plain = ~self.conservation
        self.any_plain = bool(self.plain.any())
        # noise group of each run: the runs of a group read the same draws
        self.group = np.zeros(B, dtype=int) if groups is None else np.asarray(groups)

        const = model.theta_constant
        drift_runs = np.flatnonzero(Lambda).tolist()
        # with a rest row per run the drift adds to the noise term or F, else
        # the drift runs' rows are all the rest rows, and it assigns them
        self.drift_adds = const is None or model.F is not None
        # ... unless DG is constant too: then the drift rows are the same every
        # step, and the plan transforms them once
        folded = not self.drift_adds and model.dg_constant is not None
        rest_runs = (list(range(B)) if self.drift_adds else
                     [] if folded else drift_runs)
        self.rest_runs = _positions(rest_runs) if rest_runs else None
        self.drift_runs = _positions(drift_runs) if drift_runs else None
        self.drift_rows = self.drift_runs if self.drift_adds else slice(None)
        self.minus_Lambda = -Lambda[drift_runs, None]
        self.drift_tt = None if const is None else _theta_theta(const)
        R = len(rest_runs)

        grid_scale = transform.sign / SQRT_2PI
        self.in_mult = np.stack([np.broadcast_to(grid_scale, dmult.shape),
                                 dmult * grid_scale])[:, None]
        dealias_mask = (ks <= (2 * N) // 3).astype(float)     # the 2/3 rule
        out = np.broadcast_to(transform.coeff_scale * dealias_mask * dt, dmult.shape)
        if self.any_conservation:                     # complex then
            out = np.where(self.conservation[:, None], out * dmult, out)
        self.out_mult = np.concatenate(
            [out, np.broadcast_to(transform.coeff_scale * dt, (R, N + 1))], dtype=complex)
        self.drift_hat = None
        if folded and drift_runs:
            dg = np.broadcast_to(model.dg_constant[..., None, None],
                                 (n, n, n, len(drift_runs), M))
            drift = _contract(self.minus_Lambda, dg, self.drift_tt)
            self.drift_hat = transform.grid_sums(drift) * (transform.coeff_scale * dt)
        sqrt_dt = np.sqrt(dt)
        self.noise_mult = (hmult * sqrt_dt if const is not None
                           else hmult * (transform.sign / (SQRT_2PI * sqrt_dt)))
        self.coeff_buf = transform.mode_buffer((2, n, B))
        self.coeff_modes = self.coeff_buf[..., :N + 1]
        self.grid_out = np.empty((2, n, B, M))
        self.grid_buf = np.empty((n, B + R, M))
        self.hat_buf = transform.mode_buffer((n, B + R))
        self.noise_bufs = None            # made by ``noise`` for its first shape

        # runs of one noise group with equal multipliers have equal noise
        keys = [(g, h.tobytes()) for g, h in zip(self.group, hmult)]
        distinct = list(dict.fromkeys(keys))
        self.noise_runs = np.array([keys.index(k) for k in distinct])
        self.noise_row = np.array([distinct.index(k) for k in keys])

    def noise(self, draws: np.ndarray) -> np.ndarray:
        """What ``step`` takes of every run's increments w of H_eps W, from
        the draws (G, ..., N+1, n) of the batch's G noise groups: Theta w,
        spectral (..., n, B, N+1), when theta is a constant Theta, else w / dt
        on the grid (..., n, B, M).  Each run scales its group's draws by
        ``noise_mult``; runs with equal noise share one computation and one
        transform.  A grid result may be the plan's buffer, which the next
        call of the same shape writes over: a caller is done with it by
        then.  Reusing them spares allocating a mode buffer and a grid, each
        about NOISE_ROWS x M floats, per sub-block."""
        r = self.noise_runs
        draws = np.moveaxis(np.swapaxes(draws, -1, -2)[self.group[r]], 0, -2)
        const = self.model.theta_constant
        if const is None:                         # the irfft reads a mode_buffer
            lead = draws.shape[:-1]
            if self.noise_bufs is None or self.noise_bufs[1].shape[:-1] != lead:
                self.noise_bufs = (self.transform.mode_buffer(lead),
                                   np.empty(lead + (self.transform.M,)))
            modes, grid = self.noise_bufs
            w = np.multiply(draws, self.noise_mult[r], out=modes[..., :self.N + 1])
        else:
            w = draws * self.noise_mult[r]
        del draws                                 # before the result is made
        w[..., 0] = w[..., 0].real                # mode 0 is real
        noise = (self.transform.mode_sums(modes, out=grid) if const is None
                 else const[0, 0] * w if len(const) == 1      # as in _apply
                 else np.einsum("ij,...jbk->...ibk", const, w))
        return noise if len(r) == len(self.group) else noise[..., self.noise_row, :]


def _positions(runs: list):
    """An index of the batch positions ``runs``: a slice, which selects a
    view, when they are evenly spaced (as in sample-major chunks), else an
    index array."""
    stride = runs[1] - runs[0] if len(runs) > 1 else 1
    if runs == list(range(runs[0], runs[-1] + 1, stride)):
        return slice(runs[0], runs[-1] + 1, stride)
    return np.array(runs)


def _apply(matrix: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """The pointwise product sum_j matrix[i, j] v[j] of a matrix field
    (n, n, ...) and a vector field (n, ...); for n = 1 one multiplication,
    which costs a quarter of the einsum call."""
    if len(v) == 1:
        return np.multiply(matrix[0], v, out=out)
    return np.einsum("ij...,j...->i...", matrix, v, out=out)


def step(u_hat: np.ndarray, ops: _Operators, noise: np.ndarray):
    """One exponential-Euler step of every run of a batch, as ``ops`` plans it.

    ``u_hat`` holds modes 0..N in layout (n, B, N+1); ``noise`` is the step's
    slice of what ``ops.noise`` gives: Theta H_eps W, spectral (n, B, N+1),
    when the model's theta is a constant Theta, else the grid values
    (n, B, M) of every run's H_eps W increment over dt, which are multiplied
    by theta(u) there.  Returns the next state and the grid values (n, B, M)
    of ``u_hat``, which the caller reuses for the blow-up check.

    The inverse transforms of u and D_eps u go through one unscaled irfft
    call, the grid phase and 1/sqrt(2 pi) being folded into ``in_mult``.
    The forward transforms go through one unscaled rfft call of B + R rows:
    the B products, which alone are dealiased, and the rests of the R runs
    whose rest can be nonzero (theta(u) times the noise grid, F and
    -Lambda theta DG theta; all runs unless theta is constant and F a
    declared zero, then the drift runs, or none when DG is constant too).
    One multiplication by ``out_mult`` applies the scale, dt, the
    dealiasing mask and, in conservation form, D_eps; the rest modes, or
    the plan's ``drift_hat``, are then added to their runs.  Both calls
    write into the plan's buffers: the grid values returned are a view that
    the next step overwrites, and the next state is a new array.
    """
    model = ops.model
    B = u_hat.shape[1]
    grids = ops.grid_buf
    np.multiply(u_hat, ops.in_mult, out=ops.coeff_modes)
    u_grid, de_u = ops.transform.mode_sums(ops.coeff_buf, out=ops.grid_out)
    prod, rest = grids[:, :B], grids[:, B:]

    cons, plain = ops.conservation, ops.plain
    if ops.any_conservation:
        # chain-rule-respecting discretisation D_eps(potential(u))
        prod[:, cons] = model.potential(u_grid[:, cons])
        if ops.any_plain:
            prod[:, plain] = _apply(model.G(u_grid[:, plain]), de_u[:, plain])
    else:
        _apply(model.G(u_grid), de_u, out=prod)

    const = model.theta_constant
    if const is None:
        theta = model.theta(u_grid)
        _apply(theta, noise, out=rest)
    if model.F is not None:
        if const is None:
            rest += model.F(u_grid)
        else:
            rest[:] = model.F(u_grid)
    runs = ops.drift_runs
    if runs is not None and ops.drift_hat is None:
        tt = ops.drift_tt if const is not None else _theta_theta(theta[:, :, runs])
        drift = _contract(ops.minus_Lambda, model.DG(u_grid[:, runs]), tt)
        if ops.drift_adds:
            rest[:, ops.drift_rows] += drift
        else:
            rest[:, ops.drift_rows] = drift

    hats = ops.transform.grid_sums(grids, out=ops.hat_buf)
    hats *= ops.out_mult
    modes = hats[:, :B]              # the products' modes, then the rests added
    if ops.rest_runs is not None:
        modes[:, ops.rest_runs] += hats[:, B:]
    elif ops.drift_hat is not None:
        modes[:, runs] += ops.drift_hat
    u_next = modes + u_hat           # a new array: the buffer is the next step's
    if const is not None:
        u_next += noise
    u_next *= ops.decay
    return u_next, u_grid


@dataclass
class Trajectory:
    """Recorded states of one run and the time it was truncated, if it was."""

    times: tuple
    coeffs: list                      # modes 0..N (n, N+1), one per recorded time
    truncation_time: float | None = None

    def grid(self, i: int, M: int) -> np.ndarray:
        """Snapshot i on the M-point grid, (n, M)."""
        half = self.coeffs[i]
        return Transform(half.shape[-1] - 1, M).to_grid(half)


def simulate(config: SolverConfig, rng: np.random.Generator | None = None,
             increments: np.ndarray | None = None, seed: int | None = None) -> Trajectory:
    """Iterate the exponential-Euler step from 0 to T, recording snapshots.

    Noise comes either from pre-drawn ``increments`` of shape
    (steps, N+1, n) or from ``rng`` (a NoiseStream of it: the increments
    ``draw_noise`` would draw, so runs with equal (N, steps) consume
    identical increments; ``rng`` is left past the real parts only, see
    NoiseStream).  This is ``simulate_coupled`` with a single run.
    """
    if increments is None:
        if rng is None:
            rng = np.random.default_rng(seed)
        increments = NoiseStream(rng, config.steps, config.N, config.model.n)
    return simulate_coupled([config], increments)[0]


# settings every run of a batch must share
_SHARED = ("N", "M", "dt", "T", "model", "record_times", "blowup_cap")


def simulate_coupled(configs, increments) -> list:
    """Step runs together, one Trajectory each.

    ``increments`` is one noise source for every run or a list with one
    source per run; a source is a NoiseStream or a pre-drawn (steps, N+1, n)
    array, read in order, one sub-block of NOISE_ROWS // (n B) steps at a
    time.  The runs that share a source object form a noise group: its
    draws are read once and scaled by each run's own multipliers, when the
    loop reaches the sub-block and only for the runs still in the batch.
    The runs must share N, M, dt, T, model, record_times and blowup_cap;
    each keeps its own scheme, eps, Lambda and conservation form.  A run is
    truncated at the first time its sup norm exceeds ``blowup_cap``: its
    truncation time is recorded, later snapshots are dropped, and it leaves
    the batch.  A non-finite state raises NumericalAbort at the time running
    the configs one after another would report, that of the first run in
    list order that goes non-finite.  A run's reference field X is a run of
    the linear model on the same source (see the module docstring).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    for name in _SHARED:
        if any(getattr(c, name) != getattr(first, name) for c in configs[1:]):
            raise ValueError(f"coupled runs must share {name}")
    steps, dt, cap = first.steps, first.dt, first.blowup_cap
    n, N = first.model.n, first.N
    if not isinstance(increments, list):
        increments = [increments] * len(configs)
    if len(increments) != len(configs):
        raise ValueError("need one noise source per run")
    index = {}                               # id of a source -> its noise group
    group = [index.setdefault(id(src), len(index)) for src in increments]
    sources = [src if isinstance(src, NoiseStream) else np.asarray(src, dtype=complex)
               for src in {id(src): src for src in increments}.values()]
    for src in sources:
        if src.shape != (steps, N + 1, n):
            raise ValueError(f"increments must have shape {(steps, N + 1, n)}")

    record_steps = {round(t / dt): t for t in first.record_times}

    ops = _Operators(configs, group)
    # steps per noise sub-block: the most whose noise holds NOISE_ROWS rows
    sub = max(1, NOISE_ROWS // (n * len(configs)))
    readers = [_read(src, sub) for src in sources]

    u_hat = np.stack([np.zeros((n, N + 1), dtype=complex) if c.initial is None
                      else c.initial for c in configs], axis=1)
    live = np.arange(len(configs))           # list positions of the batch's runs
    times = [[] for _ in configs]
    snaps = [[] for _ in configs]
    truncation = [None] * len(configs)
    failed = {}                              # list position -> non-finite time

    def maybe_record(j):
        if j in record_steps:
            for pos, b in enumerate(live):
                times[b].append(record_steps[j])
                snaps[b].append(u_hat[:, pos].copy())

    def survivors(j, u_grid):
        """Mask of the runs whose state at step j stays in the batch."""
        # max |u| as max(max u, -min u), without a |u| temporary; nan fails both
        if u_grid.max() <= cap and -u_grid.min() <= cap:
            return None
        sup = np.maximum(u_grid.max(axis=-1), -u_grid.min(axis=-1)).max(axis=0)
        keep = np.ones(len(live), dtype=bool)
        for pos in np.flatnonzero(~(sup <= cap)):
            if not np.all(np.isfinite(u_hat[:, pos])):
                failed[live[pos]] = j * dt
                keep[pos] = False
            elif sup[pos] > cap:
                truncation[live[pos]] = j * dt
                keep[pos] = False
        return keep

    # the blow-up check of the state at step j reuses the grid that the step
    # advancing it computes anyway; only the final state needs its own
    # transform
    maybe_record(0)
    for j in range(steps + 1):
        i = j % sub
        if j < steps:
            if i == 0:
                # a grid noise may be the plan's buffer, written over here:
                # the last sub-block's steps are done with it
                noise = ops.noise(np.stack([next(r) for r in readers]))
            u_next, u_grid = step(u_hat, ops, noise[i])
        else:
            u_grid = ops.transform.to_grid(u_hat)
        if j > 0:
            keep = survivors(j, u_grid)
            if keep is not None:
                live, u_hat = live[keep], u_hat[:, keep]
                if live.size == 0 or (failed and live[0] > min(failed)):
                    break
                ops = _Operators([configs[b] for b in live], ops.group[keep])
                if j < steps:
                    u_next, noise = u_next[:, keep], noise[:, :, keep]
            maybe_record(j)
        if j == steps:
            break
        u_hat = u_next
    if failed:
        t = failed[min(failed)]
        raise NumericalAbort(f"non-finite state at t = {t:.6g}", time=t)

    return [Trajectory(
        times=tuple(times[b]),
        coeffs=snaps[b],
        truncation_time=truncation[b],
    ) for b in range(len(configs))]


def _increments(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Unit complex rows 1..N and a unit real row 0 from (steps, N+1, n)
    standard normal real and imaginary parts."""
    inc = np.empty(re.shape, dtype=complex)
    np.multiply(re, 1 / np.sqrt(2.0), out=inc.real)
    np.multiply(im, 1 / np.sqrt(2.0), out=inc.imag)
    inc[:, 0, :] = re[:, 0, :]
    return inc


# the order of the normals of draw_noise, NoiseStream and lift.draw_increments:
# a new order changes every sample, so ExperimentConfig.config_hash reads it
NOISE_VERSION = 1


def draw_noise(rng: np.random.Generator, steps: int, N: int, n: int) -> np.ndarray:
    """All increments of one run, shape (steps, N+1, n), in the canonical order."""
    re = rng.standard_normal((steps, N + 1, n))
    im = rng.standard_normal((steps, N + 1, n))
    return _increments(re, im)


# most grid rows (M values each) of one noise transform of the stepping loop
NOISE_ROWS = 256


class NoiseStream:
    """The increments ``draw_noise(rng, steps, N, n)`` would return, read in
    order, a few steps at a time, instead of held whole.

    Construction saves the generator state at the start of the real parts,
    walks ``rng`` through them in a scratch of at most NOISE_ROWS rows of
    N+1 normals, discarding the values, and saves the state there, at the
    start of the imaginary parts.  So ``rng`` ends past the real parts
    only, not where ``draw_noise`` would leave it: normals drawn on from it
    are this stream's imaginary parts, and a caller who wants independent
    noise gives each stream a generator of its own.  ``read`` draws both
    parts from those two states.  A stream holds no read state, so any
    number of reads, on any threads, each give the same bits.
    """

    def __init__(self, rng: np.random.Generator, steps: int, N: int, n: int):
        self.shape = (steps, N + 1, n)
        self._bit_generator = type(rng.bit_generator)
        length = max(1, NOISE_ROWS // n)
        scratch = np.empty((length, N + 1, n))
        real = rng.bit_generator.state
        for start in range(0, steps, length):
            rng.standard_normal(out=scratch[:min(length, steps - start)])
        self._states = [real, rng.bit_generator.state]   # the real, imaginary parts

    def read(self, length: int):
        """The increments in order, ``length`` steps per item (the last item
        may be shorter); together they equal ``draw_noise(...)`` bit for bit."""
        steps, N1, n = self.shape
        re, im = (np.random.Generator(self._bit_generator(0)) for _ in self._states)
        re.bit_generator.state, im.bit_generator.state = self._states
        for start in range(0, steps, length):
            size = (min(length, steps - start), N1, n)
            yield _increments(re.standard_normal(size), im.standard_normal(size))


def _read(src, length: int):
    """The items of ``length`` steps of a NoiseStream or a pre-drawn array."""
    if isinstance(src, NoiseStream):
        return src.read(length)
    return (src[j:j + length] for j in range(0, len(src), length))


def stochastic_convolution(theta_path, scheme: CutoffScheme, eps: float,
                           dt: float, N: int, M: int,
                           increments: np.ndarray) -> np.ndarray:
    """Left-point Ito discretisation of int_0^T S_eps(T-s) theta(s) H_eps dW(s).

    ``theta_path[j]`` is the (n, n, M) matrix field at the j-th step's left
    endpoint; T = steps * dt with steps = len(increments).  Each step applies
    the exact semigroup weight, so with theta = Id the result coincides with
    the reference field driven by the same increments.  Returns its grid
    values (n, M).
    """
    increments = np.asarray(increments, dtype=complex)
    steps = increments.shape[0]
    n = increments.shape[2]
    dummy_model = ModelFunctions(n=n, F=None, G=None, DG=None, theta=None,
                                 label="convolution")
    config = SolverConfig(
        scheme=scheme, eps=eps, N=N, M=M, dt=dt, T=steps * dt,
        model=dummy_model,
    )
    ops = _Operators([config])
    rest_mult = ops.transform.coeff_scale * dt        # the noise grid holds w / dt
    psi_hat = np.zeros((n, N + 1), dtype=complex)
    for j in range(steps):
        theta_j = theta_path(j) if callable(theta_path) else theta_path[j]
        noise_grid = np.einsum("ij...,j...->i...", theta_j,
                               ops.noise(increments[None, j])[:, 0])
        psi_hat = ops.decay[0] * (psi_hat
                                  + ops.transform.grid_sums(noise_grid) * rest_mult)
    return ops.transform.to_grid(psi_hat)


def remainder_diagnostic(P: np.ndarray, theta: np.ndarray, X: np.ndarray,
                         gamma: float, stride: int = 1) -> float:
    """Discrete seminorm sup_{x != y} |R(x,y)| / |x-y|^{2 gamma} of the
    controlled-path remainder R(x,y) = dPsi(x,y) - theta(x) dX(x,y), from
    the grid values Psi = P and X (n, M) and theta (n, n, M), over pairs
    with start points subsampled by ``stride``."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")

    def remainder(i, j):
        dX = X[:, j] - X[:, i]
        # theta(x_i) dX, summed over the components in a fixed order
        th_dX = sum((theta[:, k, i] * dX[k] for k in range(1, len(dX))),
                    theta[:, 0, i] * dX[0])
        return np.linalg.norm((P[:, j] - P[:, i]) - th_dX, axis=0)

    return pair_reduce(P.shape[-1], stride, remainder, 2.0 * gamma)


def reference_config(config: SolverConfig, eps_ref: float,
                     Lambda: float | None = None) -> SolverConfig:
    """The run realising the corrected limit equation of ``config.scheme``.

    A zero-correction carrier (central difference with trivial cut-offs) at
    the fine step eps_ref with the explicit drift -Lambda * theta dG theta,
    so its small-eps limit is the limit equation associated with the
    original scheme.  Lambda defaults to the scheme's correction constant.
    It is ``config`` in all else (the batch settings and the initial data),
    in non-conservation form.
    """
    if Lambda is None:
        Lambda = lambda_exact(config.scheme).value
    return replace(config, scheme=make_scheme("central_difference"), eps=eps_ref,
                   Lambda=Lambda, conservation_form=False)


def corrected_reference(config: SolverConfig, eps_ref: float,
                        Lambda: float | None = None, **simulate_kwargs) -> Trajectory:
    """Simulate the corrected limit equation of ``config.scheme`` (the run of
    ``reference_config``)."""
    return simulate(reference_config(config, eps_ref, Lambda), **simulate_kwargs)

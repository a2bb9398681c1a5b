"""Shared test utilities: step construction, quadrature expectations, models."""

from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np

from uvol.chain import StepRecord, chain_step, one_minus_rho_sq
from uvol import estimators
from uvol.estimators import _BLOCK, _MAX_SAMPLING_ROUNDS, Payoff, RunConfig, _path_weights, _run
from uvol.flow import frozen_coeffs
from uvol.model import BuiltinModelKind, Model, make_builtin
from uvol.renewal import quantile
from uvol.rng import GAP_STREAM, uniform_pair


def builtin(tag, **overrides):
    """Builtin model with the reference parameter set, field overrides."""
    return make_builtin(BuiltinModelKind(tag=tag, **overrides))


def quadrature_only(model):
    """``model`` without its closed-form declarations, so the frozen
    coefficients take the quadrature route."""
    return dataclasses.replace(model, sigma_S_affine=None, sigma_Y_const=None)


def rel_err(a, b, floor=1.0):
    """Scale-aware relative error ``|a-b| / max(floor, |a|, |b|)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b))))


def make_step(model, x_prev, y_prev, delta, z1, z2, *, index=0):
    """Build a single :class:`StepRecord` from explicit Gaussian draws."""
    fc = frozen_coeffs(model, y_prev, delta)
    x_next, y_next = chain_step(model, x_prev, y_prev, fc, z1, z2)
    return StepRecord(index=index, x_prev=x_prev, y_prev=y_prev,
                      x_next=x_next, y_next=y_next, z1=z1, z2=z2,
                      fc=fc, model=model)


def step_from_states(model, x_prev, y_prev, delta, x_next, y_next, *, index=0):
    """Rebuild a :class:`StepRecord` from its endpoint states.

    Inverts the step map for the implied ``(z1, z2)``, so weights can be
    differentiated in the endpoints while everything else stays fixed.
    """
    fc = frozen_coeffs(model, y_prev, delta)
    r2 = one_minus_rho_sq(fc)
    z1 = (x_next - x_prev - (model.r * fc.delta - 0.5 * fc.a_S_i)) / fc.sigma_S_i
    w = (y_next - fc.m_i) / fc.sigma_Y_i
    z2 = (w - fc.rho_i * z1) / np.sqrt(r2)
    return StepRecord(index=index, x_prev=x_prev, y_prev=y_prev,
                      x_next=x_next, y_next=y_next, z1=z1, z2=z2,
                      fc=fc, model=model)


def fixed_gaps(zetas, lag=None):
    """Engine gap source that lays the explicit grids ``zetas``.

    ``zetas`` holds one grid ``(0, zeta_1, ..., T)`` per path.  Round ``r``
    gives each path the gap to its jump ``r + 1``, and once it has none
    left an infinite one, which ends it.  With ``lag = (p, k)``, path ``p``
    draws a zero gap at round ``k``, which the engine redraws, so its
    intervals from ``k`` on come one round late.  Returns ``(gaps,
    intervals)``: ``intervals[p]`` are path ``p``'s interior and final
    intervals as the engine forms them from its clock, ``(now + g) - now``
    and ``T - now``, which need not be the differences of ``zetas[p]``.
    """
    rounds = max(len(z) for z in zetas) + (lag is not None)
    table = np.full((len(zetas), rounds), np.inf)
    intervals = []
    for p, z in enumerate(zetas):
        dz = np.diff(np.asarray(z, dtype=float))[:-1]
        r = np.arange(dz.size)
        if lag is not None and p == lag[0]:
            table[p, lag[1]] = 0.0
            r[lag[1]:] += 1
        table[p, r] = dz
        now, got = 0.0, []
        for g in dz:
            nxt = now + g
            assert now < nxt < z[-1], "the engine would redraw this gap or end on it"
            got.append(nxt - now)
            now = nxt
        intervals.append(got + [z[-1] - now])
    return (lambda ia, j: table[ia, int(j)]), intervals


def dense_gap_columns(uniforms, sampler, T, n):
    """Reference renewal-grid sampler: the engine's rounds, redraw rule and
    uniform slices, returning ``(gaps, n_jumps, last_gap)`` with the interior
    intervals scattered into a NaN-padded ``(n, max(1, max jumps))`` matrix,
    which the grids the engine steps must equal bit for bit."""
    slot = np.zeros(n, dtype=np.int64)
    cum = np.zeros(n)
    ia = np.arange(n)
    rows, slots, vals = [], [], []
    for r in range(_MAX_SAMPLING_ROUNDS):
        if ia.size == 0:
            break
        j = np.uint64(r)
        u = np.empty(ia.size)
        for a in range(0, ia.size, _BLOCK):
            u[a:a + _BLOCK] = uniforms(ia[a:a + _BLOCK], j)
        g = quantile(sampler, u)
        now = cum[ia]
        nxt = now + g
        ok = (g > 0) & (nxt != now) & (nxt != T)
        inside = ok & (nxt < T)
        jump = ia[inside]
        rows.append(jump)
        slots.append(slot[jump])
        vals.append((nxt - now)[inside])
        cum[jump] = nxt[inside]
        slot[jump] += 1
        ia = ia[~(ok & (nxt > T))]
    else:
        raise RuntimeError("renewal sampling did not terminate")
    gaps = np.full((n, max(1, int(slot.max(initial=0)))), np.nan)
    if rows:
        gaps[np.concatenate(rows), np.concatenate(slots)] = np.concatenate(vals)
    return gaps, slot, T - cum


def fixed_normals(z1, z2):
    """Engine normals source giving interval ``k`` of every path the draws
    ``z1[k], z2[k]``; ``k`` holds one interval for each path of ``ids``."""
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)

    def normals(k, ids):
        assert k.shape == ids.shape
        return z1[k], z2[k]

    return normals


def path_weights(cfg, gaps, normals, kind=None, ids=None):
    """The rows of :func:`_path_weights` on the paths ``ids``, by default
    ``0 .. cfg.n_paths - 1``: ``(x_T, price, delta, vega)`` without
    ``kind``, the conditional rows with it."""
    if ids is None:
        ids = np.arange(cfg.n_paths, dtype=np.uint64)
    return _path_weights(cfg, ids, gaps, normals, kind)[1]


def plain_estimator(kind):
    """``RunConfig -> EstimateResult`` for the plain mean of the
    contributions of ``kind``, without the control variates."""
    return partial(_run, kind=kind, control=False)


def philox_uniforms(seed, ids):
    """The engine's gap-uniform source for the paths ``ids`` under ``seed``."""
    return lambda ia, j: uniform_pair(seed, ids[ia], GAP_STREAM, j)[0]


def philox_gaps(sampler, seed, ids):
    """The engine's gap source for the paths ``ids`` under ``seed``."""
    uniforms = philox_uniforms(seed, ids)
    return lambda ia, j: quantile(sampler, uniforms(ia, j))


def philox_grid(sampler, T, seed, ids):
    """The reference sampler's grids of the paths ``ids`` under ``seed``, as
    :func:`dense_gap_columns` returns them."""
    return dense_gap_columns(philox_uniforms(seed, ids), sampler, T, ids.size)


def engine_grid(sampler, T, gaps, n):
    """The grids the engine steps when ``gaps`` feeds ``n`` paths, in the
    form of :func:`dense_gap_columns`.

    Read off the sampled route of a Black-Scholes run: each walk asks the
    normals source for its paths and intervals, and then passes the
    intervals' lengths to ``frozen_coeffs``.  Checks that every path steps
    each of its intervals once, in order, and the final one last.
    """
    cfg = RunConfig(model=builtin("BlackScholes"), payoff=Payoff.call(1.0),
                    sampler=sampler, s0=1.0, y0=0.2, T=T, n_paths=n, seed=0)
    walks = []

    def normals(k, p):
        walks.append([k, p])
        return np.zeros(p.size), np.zeros(p.size)

    def coeffs(model, y, delta):
        walks[-1].append(np.array(delta))
        return real(model, y, delta)

    real, estimators.frozen_coeffs = estimators.frozen_coeffs, coeffs
    try:
        n_jumps = _path_weights(cfg, np.arange(n, dtype=np.uint64), gaps, normals)[0]
    finally:
        estimators.frozen_coeffs = real
    k, p, delta = (np.concatenate(c) for c in zip(*walks))
    order = np.argsort(p, kind="stable")
    assert np.array_equal(p[order], np.repeat(np.arange(n), n_jumps + 1))
    assert np.array_equal(k[order], np.concatenate([np.arange(c + 1) for c in n_jumps]))
    final = k == n_jumps[p]
    gap_matrix = np.full((n, max(1, int(n_jumps.max(initial=0)))), np.nan)
    gap_matrix[p[~final], k[~final]] = delta[~final]
    last_gap = np.empty(n)
    last_gap[p[final]] = delta[final]
    return gap_matrix, n_jumps, last_gap


def chain_steps(model, x0, y0, deltas, normals):
    """Step records of one path along ``deltas``; ``normals(k)`` gives (z1, z2)."""
    steps, x, y = [], x0, y0
    for k, delta in enumerate(deltas):
        z1, z2 = normals(k)
        st = make_step(model, x, y, delta, z1, z2, index=k)
        steps.append(st)
        x, y = st.x_next, st.y_next
    return steps


def gauss_hermite_2d(fn, order=40):
    """``E[fn(Z1, Z2)]`` for independent standard normals, by quadrature.

    ``fn`` must accept two equal-shape numpy arrays and act elementwise.
    Exact for polynomials up to degree ``2*order - 1`` in each variable.
    """
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / math.sqrt(2.0 * math.pi)
    g1, g2 = np.meshgrid(x, x, indexing="ij")
    vals = np.asarray(fn(g1, g2), dtype=float)
    return float(np.einsum("i,j,ij->", w, w, vals))


def gh_step_expectation(model, x_prev, y_prev, delta, fn, *, order=40):
    """``E[fn(step)]`` over one Gaussian transition, by 2-D quadrature.

    ``fn`` receives a batched :class:`StepRecord` whose ``z1``/``z2`` hold
    the quadrature nodes and must act elementwise.
    """
    fc = frozen_coeffs(model, y_prev, delta)
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / math.sqrt(2.0 * math.pi)
    z1, z2 = np.meshgrid(x, x, indexing="ij")
    x_next, y_next = chain_step(model, x_prev, y_prev, fc, z1, z2)
    step = StepRecord(index=0, x_prev=x_prev, y_prev=y_prev,
                      x_next=x_next, y_next=y_next, z1=z1, z2=z2,
                      fc=fc, model=model)
    vals = np.asarray(fn(step), dtype=float)
    return float(np.einsum("i,j,ij->", w, w, vals))


def synthetic_model(rho=0.4, r=0.03):
    """Fully generic test model: non-constant ``sigma_Y``, nonlinear drift.

    Exercises every quadrature/RK4 code path (no closed-form markers) and
    the higher ``sigma_Y`` derivative handles.
    """
    return Model(
        r=r,
        b_Y=lambda y: 0.5 * (0.3 - y) + 0.1 * np.cos(y),
        b1_Y=lambda y: -0.5 - 0.1 * np.sin(y),
        b2_Y=lambda y: -0.1 * np.cos(y),
        sigma_S=lambda y: 0.25 + 0.1 * np.sin(y),
        sigma1_S=lambda y: 0.1 * np.cos(y),
        sigma2_S=lambda y: -0.1 * np.sin(y),
        sigma_Y=lambda y: 0.2 + 0.05 * np.sin(y),
        sigma1_Y=lambda y: 0.05 * np.cos(y),
        sigma2_Y=lambda y: -0.05 * np.sin(y),
        sigma3_Y=lambda y: -0.05 * np.cos(y),
        rho=rho,
        kappa=50.0,
    )


def unit_drift_model():
    """``synthetic_model`` with drift 1, so the flow from 0 is ``m_s = s``
    and the frozen-coefficient rule integrates functions of ``s`` itself."""
    return dataclasses.replace(synthetic_model(), b_Y=lambda y: 1.0 + 0.0 * y,
                               b1_Y=lambda y: 0.0 * y)


def cubic_drift_model():
    """Superlinear mean reversion ``b_Y = 0.5 (0.3 - y) - 2 (y - 0.3)^3``.

    The Stein-Stein ``sigma_S`` and constant ``sigma_Y`` of the builtin, but
    no ``ou_params``, so the flow is walked by RK4.  The cube is written as
    a product, which numpy evaluates far faster than ``** 3``.
    """
    def b_Y(y):
        d = y - 0.3
        return 0.5 * (0.3 - y) - 2.0 * d * d * d

    def b1_Y(y):
        d = y - 0.3
        return -0.5 - 6.0 * d * d

    def b2_Y(y):
        return -12.0 * (y - 0.3)

    return dataclasses.replace(builtin("SteinSteinAffine"), b_Y=b_Y, b1_Y=b1_Y,
                               b2_Y=b2_Y, ou_params=None)

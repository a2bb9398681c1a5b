"""Shared test utilities: step construction, quadrature expectations, models."""

from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np

from uvol.chain import StepRecord, chain_step, one_minus_rho_sq
from uvol.estimators import (_BLOCK, _MAX_SAMPLING_ROUNDS, _path_weights, _run,
                             _sample_gap_columns)
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


def fixed_grid(zetas, lag=None):
    """Engine grids ``(jumps, n_jumps, last_gap)`` of explicit grids.

    ``zetas`` holds one grid ``(0, zeta_1, ..., T)`` per path; ``jumps``
    holds one record ``(pos, slot, gap)`` per round, and round ``r`` holds
    interval ``r`` of every path, except that with ``lag = (p, k)`` path
    ``p``'s intervals from ``k`` on arrive one round late, as after a
    redrawn gap.
    """
    dz = [np.diff(np.asarray(z, dtype=float)) for z in zetas]
    n_jumps = np.array([d.size - 1 for d in dz], dtype=np.int64)
    # (round, path, interval) of every interior interval, in path order
    arrivals = [(k + (lag is not None and p == lag[0] and k >= lag[1]), p, k)
                for p in range(len(dz)) for k in range(n_jumps[p])]
    jumps = []
    for r in range(max((a[0] for a in arrivals), default=-1) + 1):
        pos = np.array([p for rr, p, _ in arrivals if rr == r], dtype=np.int64)
        slot = np.array([k for rr, _, k in arrivals if rr == r], dtype=np.int64)
        jumps.append((pos, slot, np.array([dz[p][k] for p, k in zip(pos, slot)],
                                          dtype=float)))
    return jumps, n_jumps, np.array([d[-1] for d in dz])


def dense_gaps(grid):
    """The ``(n, max(1, max jumps))`` matrix of a grid's interior intervals,
    NaN beyond each path's jump count, rebuilt from its records without
    consuming them."""
    jumps, n_jumps, _ = grid
    gaps = np.full((n_jumps.size, max(1, int(n_jumps.max(initial=0)))), np.nan)
    for pos, slot, gap in jumps:
        gaps[pos, slot] = gap
    return gaps


def dense_gap_columns(uniforms, sampler, T, n):
    """Reference renewal-grid sampler: the engine's rounds, redraw rule and
    uniform slices, returning ``(gaps, n_jumps, last_gap)`` with the interior
    intervals scattered into a NaN-padded ``(n, max(1, max jumps))`` matrix,
    which the engine's jump records must rebuild exactly."""
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


def path_weights(cfg, ids, grid, normals, kind=None):
    """:func:`_path_weights` on ``grid``.  The engine consumes a copy of the
    record list, so ``grid`` stays whole for another call."""
    jumps, n_jumps, last_gap = grid
    return _path_weights(cfg, ids, list(jumps), n_jumps, last_gap, normals, kind)


def engine_weights(cfg, grid, normals, ids=None):
    """The engine's ``(x_T, price, delta, vega)`` per-path arrays on ``grid``."""
    if ids is None:
        ids = np.arange(grid[1].size, dtype=np.uint64)
    return path_weights(cfg, ids, grid, normals)


def select_paths(grid, keep):
    """The grid of the paths ``np.flatnonzero(keep)``, renumbered in order."""
    jumps, n_jumps, last_gap = grid
    new = np.cumsum(keep) - 1
    sub = [(new[pos[keep[pos]]], slot[keep[pos]], gap[keep[pos]])
           for pos, slot, gap in jumps]
    return sub, n_jumps[keep], last_gap[keep]


def plain_estimator(kind):
    """``RunConfig -> EstimateResult`` for the plain mean of the
    contributions of ``kind``, without the control variates."""
    return partial(_run, kind=kind, control=False)


def philox_uniforms(seed, ids):
    """The engine's gap-uniform source for the paths ``ids`` under ``seed``."""
    return lambda ia, j: uniform_pair(seed, ids[ia], GAP_STREAM, j)[0]


def philox_grid(sampler, T, seed, ids):
    """The engine's renewal grids of the paths ``ids`` under ``seed``."""
    return _sample_gap_columns(philox_uniforms(seed, ids), sampler, T, ids.size)


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

"""Shared test utilities: step construction, quadrature expectations, models."""

from __future__ import annotations

import math

import numpy as np

from uvol.chain import StepRecord, chain_step, one_minus_rho_sq
from uvol.estimators import _path_weights, _sample_gap_columns
from uvol.flow import frozen_coeffs
from uvol.model import BuiltinModelKind, Model, make_builtin
from uvol.rng import GAP_STREAM, uniform_pair


def builtin(tag, **overrides):
    """Builtin model with the reference parameter set, field overrides."""
    return make_builtin(BuiltinModelKind(tag=tag, **overrides))


def rel_err(a, b, floor=1.0):
    """Scale-aware relative error ``|a-b| / max(floor, |a|, |b|)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b))))


def make_step(model, x_prev, y_prev, delta, z1, z2, *, index=0, panels=8,
              method="auto"):
    """Build a single :class:`StepRecord` from explicit Gaussian draws."""
    fc = frozen_coeffs(model, y_prev, delta, panels=panels, method=method)
    x_next, y_next = chain_step(model, x_prev, y_prev, fc, z1, z2)
    return StepRecord(index=index, x_prev=x_prev, y_prev=y_prev,
                      x_next=x_next, y_next=y_next, z1=z1, z2=z2,
                      fc=fc, model=model)


def step_from_states(model, x_prev, y_prev, delta, x_next, y_next, *,
                     index=0, panels=8, method="auto"):
    """Rebuild a :class:`StepRecord` from its endpoint states.

    Inverts the step map for the implied ``(z1, z2)``, so weights can be
    differentiated in the endpoints while everything else stays fixed.
    """
    fc = frozen_coeffs(model, y_prev, delta, panels=panels, method=method)
    r2 = one_minus_rho_sq(fc)
    z1 = (x_next - x_prev - (model.r * fc.delta - 0.5 * fc.a_S_i)) / fc.sigma_S_i
    w = (y_next - fc.m_i) / fc.sigma_Y_i
    z2 = (w - fc.rho_i * z1) / np.sqrt(r2)
    return StepRecord(index=index, x_prev=x_prev, y_prev=y_prev,
                      x_next=x_next, y_next=y_next, z1=z1, z2=z2,
                      fc=fc, model=model)


def fixed_grid(zetas):
    """Engine grid columns ``(gaps, n_jumps, last_gap)`` of explicit grids.

    ``zetas`` holds one grid ``(0, zeta_1, ..., T)`` per path.
    """
    dz = [np.diff(np.asarray(z, dtype=float)) for z in zetas]
    n_jumps = np.array([d.size - 1 for d in dz], dtype=np.int64)
    gaps = np.full((len(dz), max(1, int(n_jumps.max()))), np.nan)
    for p, d in enumerate(dz):
        gaps[p, :d.size - 1] = d[:-1]
    return gaps, n_jumps, np.array([d[-1] for d in dz])


def fixed_normals(z1, z2):
    """Engine normals source giving every path the draws ``z1[k], z2[k]``."""
    return lambda k, ids: (np.full(ids.size, float(z1[k])),
                           np.full(ids.size, float(z2[k])))


def engine_weights(cfg, grid, normals, ids=None):
    """The engine's ``(x_T, price, delta, vega)`` per-path arrays on ``grid``."""
    if ids is None:
        ids = np.arange(grid[1].size, dtype=np.uint64)
    return _path_weights(cfg, ids, *grid, normals)


def philox_grid(sampler, T, seed, ids):
    """The engine's renewal grids of the paths ``ids`` under ``seed``."""
    return _sample_gap_columns(
        lambda ia, j: uniform_pair(seed, ids[ia], GAP_STREAM, j)[0],
        sampler, T, ids.size)


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


def gh_step_expectation(model, x_prev, y_prev, delta, fn, *, order=40,
                        panels=8):
    """``E[fn(step)]`` over one Gaussian transition, by 2-D quadrature.

    ``fn`` receives a batched :class:`StepRecord` whose ``z1``/``z2`` hold
    the quadrature nodes and must act elementwise.
    """
    fc = frozen_coeffs(model, y_prev, delta, panels=panels)
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

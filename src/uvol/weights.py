"""Closed-form correction and transfer weights.

The price of a payoff ``h`` is represented as an expectation over chain
paths of ``h`` times a product of per-interval weights; first-order
Greeks replace individual factors by integration-by-parts variants.  This
module evaluates every weight in closed form from a :class:`StepRecord`.

Conventions
-----------
Step ``i`` covers ``[zeta_i, zeta_{i+1}]``.  Frozen quantities
(``sigma_S_i``, ``rho_i``, ``m_i``, ...) are functions of the left endpoint
``y_prev``; their ``*1_*`` fields are the ``y_prev``-derivatives.  Model
coefficients are evaluated at the right endpoint ``y_next`` or at the flow
endpoint ``m_i``.

All randomness is rewritten in state form, which is what makes the
differential operators concrete:

    z1 = (x_next - x_prev - (r*delta - a_S_i/2)) / sigma_S_i,
    w  = (y_next - m_i) / sigma_Y_i,
    z2 = (w - rho_i * z1) / sqrt(1 - rho_i**2).

``D1``/``D2`` denote partial derivatives in ``x_next``/``y_next`` at fixed
``y_prev``; the flow derivative ``Dprev`` differentiates in ``y_prev`` at
fixed ``(z1, z2)``, i.e. ``Dprev H = dH/dy_prev + D1 H * dX + D2 H * dY``
with ``dX = d x_next / d y_prev`` and ``dY = d y_next / d y_prev``.  The
dual operators are

    I1(H) = H * I1_1 - D1 H,      I2(H) = H * I2_1 - D2 H,

satisfying ``E[D_alpha f * H] = E[f * I_alpha(H)]`` against the Gaussian
step, with ``I1_1 = z1/sigma_S_i - rho_i z2 / (sigma_S_i sqrt(1-rho_i^2))``
and ``I2_1 = z2 / (sigma_Y_i sqrt(1-rho_i^2))``.

Both functions accept scalar or array-valued records, so the same code
weights a single step and a vectorized batch.  Both return the factors of
a :class:`FoldWeights`, which the engine in :mod:`uvol.estimators` folds
into path weights the same way for interior and final intervals.

:func:`conditional_rows` integrates the final interval's Gaussian pair out
instead: given the path up to ``zeta_{N_T}``, the folded weights are
quadratic in ``(z1, z2)``, so the payoff and control rows have closed-form
conditional means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StepRecord, one_minus_rho_sq
from .renewal import DomainError, JumpSampler, density, survival

__all__ = [
    "FoldWeights",
    "StepWeights",
    "step_weights",
    "terminal_weights",
    "conditional_rows",
    "forward_moments",
]


@dataclass(frozen=True)
class FoldWeights:
    """The factors one interval contributes to the path weights, the ones
    :func:`uvol.estimators._fold` reads.  The final interval's ``theta_c``
    is 0."""

    theta: object
    theta_eY: object
    theta_eX: object
    theta_c: object
    I1_theta: object
    I2_theta_eY: object
    I1_theta_eX: object


@dataclass(frozen=True)
class StepWeights(FoldWeights):
    """All interior weights of one step: the fold factors and their parts."""

    I1_1: object
    I2_1: object
    D1_I1_1: object
    D2_I1_1: object
    D1_I2_1: object
    D2_I2_1: object
    c_S: object
    c_Y: object
    b_Y_w: object
    c_YS: object
    D1_theta: object
    D2_theta: object
    D2prev_theta: object


def _f_inv(s: JumpSampler, delta):
    f = density(s, delta)
    if np.any(np.asarray(f) <= 0) or not np.all(np.isfinite(np.asarray(f))):
        raise DomainError("gap density vanishes on an interior interval")
    return 1.0 / f


def _survival_inv(s: JumpSampler, delta):
    surv = survival(s, delta)
    if np.any(np.asarray(surv) <= 0):
        raise DomainError("survival probability of the final interval is zero")
    return 1.0 / surv


def _gaussian_terms(step: StepRecord):
    """``(1 - rho_i**2, its root, I1_1, I2_1, w, g, dX, dY, D2 dY)`` of a step:
    the score kernels, the rotated draws and the flow derivatives, which
    both kernels share."""
    fc = step.fc
    sig_s, sig_y = fc.sigma_S_i, fc.sigma_Y_i
    rho_i, rho1 = fc.rho_i, fc.rho1_i
    s1y = fc.sigma1_Y_i
    z1, z2 = step.z1, step.z2
    r2 = one_minus_rho_sq(fc)
    sq = np.sqrt(r2)

    i11 = z1 / sig_s - rho_i * z2 / (sig_s * sq)
    i21 = z2 / (sig_y * sq)
    w = rho_i * z1 + sq * z2
    g = sq * z1 - rho_i * z2
    dx = -0.5 * fc.a1_S_i + fc.sigma1_S_i * z1
    dy = fc.m1_i + s1y * w + sig_y * rho1 / sq * g
    d2_dy = s1y / sig_y - rho1 * rho_i / r2
    return r2, sq, i11, i21, w, g, dx, dy, d2_dy


def step_weights(step: StepRecord, s: JumpSampler) -> StepWeights:
    """Every interior weight of one step, in closed form.

    Parameters
    ----------
    step : StepRecord
        Scalar or batched transition record.
    s : JumpSampler
        Gap distribution of the renewal grid.

    Returns
    -------
    StepWeights
    """
    fc = step.fc
    mdl = step.model
    rho = mdl.rho
    f_inv = _f_inv(s, fc.delta)

    sig_s, sig_y = fc.sigma_S_i, fc.sigma_Y_i
    a_s, a_y = fc.a_S_i, fc.a_Y_i
    rho_i, rho1 = fc.rho_i, fc.rho1_i
    mp, m1 = fc.m_i, fc.m1_i
    s1s, s1y = fc.sigma1_S_i, fc.sigma1_Y_i
    a1s, a1y = fc.a1_S_i, fc.a1_Y_i
    yn = step.y_next
    r2, sq, i11, i21, w, g, dx, dy, d2_dy = _gaussian_terms(step)

    d1_i11 = 1.0 / (a_s * r2)
    d2_i11 = -rho_i / (r2 * sig_s * sig_y)
    d1_i21 = d2_i11
    d2_i21 = 1.0 / (a_y * r2)

    # interval-change coefficients: model at the right endpoint minus model
    # at the flow endpoint, plus their y_next-derivatives
    cy, cm = mdl.jet(yn), mdl.jet(mp)
    c_s = 0.5 * (cy.a_S - cm.a_S)
    c_y = 0.5 * (cy.a_Y - cm.a_Y)
    b_w = cy.b_Y - cm.b_Y
    c_ys = rho * (cy.sigma_SY - cm.sigma_SY)
    d2c_s = 0.5 * cy.a1_S
    d2c_y = 0.5 * cy.a1_Y
    d22c_y = 0.5 * cy.a2_Y
    d222c_y = 0.5 * cy.a3_Y
    d2b = cy.b1_Y
    d22b = cy.b2_Y
    d2c_ys = rho * cy.sigma1_SY
    d22c_ys = rho * cy.sigma2_SY

    # theta = f^-1 [ I11(c_S) - I1(c_S) + I22(c_Y) + I2(b) + I12(c_YS) ]
    theta = f_inv * (
        c_s * (i11 * i11 - d1_i11)
        - c_s * i11
        + c_y * (i21 * i21 - d2_i21) - 2.0 * d2c_y * i21 + d22c_y
        + b_w * i21 - d2b
        + c_ys * i11 * i21 - i11 * d2c_ys - c_ys * d2_i11
    )

    d1_theta = f_inv * (
        2.0 * c_s * i11 * d1_i11
        - c_s * d1_i11
        + 2.0 * c_y * i21 * d1_i21 - 2.0 * d2c_y * d1_i21
        + b_w * d1_i21
        + c_ys * (d1_i11 * i21 + i11 * d1_i21) - d1_i11 * d2c_ys
    )

    d2_theta = f_inv * (
        d2c_s * (i11 * i11 - d1_i11) + 2.0 * c_s * i11 * d2_i11
        - (d2c_s * i11 + c_s * d2_i11)
        + d2c_y * (i21 * i21 - d2_i21) + 2.0 * c_y * i21 * d2_i21
        - 2.0 * d22c_y * i21 - 2.0 * d2c_y * d2_i21 + d222c_y
        + d2b * i21 + b_w * d2_i21 - d22b
        + d2c_ys * i11 * i21 + c_ys * (d2_i21 * i11 + i21 * d2_i11)
        - i11 * d22c_ys - 2.0 * d2c_ys * d2_i11
    )

    # x_next-derivatives of the flow derivatives dX, dY
    d1_dx = s1s / sig_s
    d1_dy = sig_y * rho1 / (sig_s * r2)

    # flow derivatives of the interval-change coefficients
    a1s_y = cy.a1_S
    a1y_y, a2y_y, a3y_y = cy.a1_Y, cy.a2_Y, cy.a3_Y
    s1sy_y, s2sy_y = cy.sigma1_SY, cy.sigma2_SY
    e_cs = 0.5 * (a1s_y * dy - cm.a1_S * m1)
    e_cy = 0.5 * (a1y_y * dy - cm.a1_Y * m1)
    e_b = d2b * dy - cm.b1_Y * m1
    e_cys = rho * (s1sy_y * dy - cm.sigma1_SY * m1)
    d1e_cs = 0.5 * a1s_y * d1_dy
    d1e_cys = rho * s1sy_y * d1_dy
    d2e_cys = rho * (s2sy_y * dy + s1sy_y * d2_dy)
    d2d1e_cys = rho * s2sy_y * d1_dy
    d2e_cy = 0.5 * (a2y_y * dy + a1y_y * d2_dy)
    d2d2e_cy = 0.5 * a3y_y * dy + a2y_y * d2_dy

    # transfer weights
    theta_ey = m1 * theta + f_inv * (i11 * e_cys - d1e_cys + i21 * e_cy - d2e_cy)
    theta_ex = f_inv * (i11 * e_cs - d1e_cs)

    d1_theta_ex = f_inv * (e_cs * d1_i11 + i11 * d1e_cs)
    i1_theta_ex = theta_ex * i11 - d1_theta_ex
    i1_theta = theta * i11 - d1_theta
    d2_theta_ey = m1 * d2_theta + f_inv * (
        d2_i11 * e_cys + i11 * d2e_cys - d2d1e_cys
        + d2_i21 * e_cy + i21 * d2e_cy - d2d2e_cy
    )
    i2_theta_ey = theta_ey * i21 - d2_theta_ey

    # flow derivative of theta
    dprev_i11 = -d1_dx * i11 - rho1 / r2 * (sig_y / sig_s) * i21
    dprev_i21 = -d2_dy * i21
    dp_d1_i11 = -a1s / (a_s * a_s * r2) + 2.0 * rho_i * rho1 / (a_s * r2 * r2)
    v = r2 * sig_s * sig_y
    v1 = -2.0 * rho_i * rho1 * sig_s * sig_y + r2 * (s1s * sig_y + sig_s * s1y)
    dp_d2_i11 = -(rho1 * v - rho_i * v1) / (v * v)
    dp_d2_i21 = -a1y / (a_y * a_y * r2) + 2.0 * rho_i * rho1 / (a_y * r2 * r2)
    dp_d2c_ys = rho * s2sy_y * dy
    dp_d2c_y = 0.5 * a2y_y * dy
    dp_d22c_y = 0.5 * a3y_y * dy

    d2prev_theta = f_inv * (
        e_cs * (i11 * i11 - d1_i11) + 2.0 * c_s * i11 * dprev_i11 - c_s * dp_d1_i11
        - (e_cs * i11 + c_s * dprev_i11)
        + e_cy * (i21 * i21 - d2_i21) + c_y * (2.0 * i21 * dprev_i21 - dp_d2_i21)
        - 2.0 * dp_d2c_y * i21 - 2.0 * d2c_y * dprev_i21 + dp_d22c_y
        + b_w * dprev_i21 + i21 * e_b - d22b * dy
        + e_cys * i11 * i21 + c_ys * (i21 * dprev_i11 + i11 * dprev_i21)
        - i11 * dp_d2c_ys - dprev_i11 * d2c_ys - c_ys * dp_d2_i11 - e_cys * d2_i11
    )

    # correction weight theta_c = I1(theta*dX - theta_eX)
    #                           + I2(theta*dY - theta_eY) + Dprev theta
    i12_e_cys = e_cys * i11 * i21 - i11 * d2e_cys - e_cys * d2_i11 \
        - d1e_cys * i21 + d2d1e_cys
    i22_e_cy = e_cy * (i21 * i21 - d2_i21) - 2.0 * d2e_cy * i21 + d2d2e_cy
    t_comp = -f_inv * (i12_e_cys + i22_e_cy)
    t_rho = sig_y * rho1 / sq * (g * (i21 * theta - d2_theta)
                                 + rho_i * theta / (sig_y * sq))
    t_sig_y = s1y * (w * (i21 * theta - d2_theta) - theta / sig_y)
    t_dx = (theta * i11 - d1_theta) * dx - theta * d1_dx
    theta_c = t_comp + t_rho + t_sig_y + t_dx - i1_theta_ex + d2prev_theta

    return StepWeights(
        theta=theta, theta_eY=theta_ey, theta_eX=theta_ex, theta_c=theta_c,
        I1_theta=i1_theta, I2_theta_eY=i2_theta_ey, I1_theta_eX=i1_theta_ex,
        I1_1=i11, I2_1=i21,
        D1_I1_1=d1_i11, D2_I1_1=d2_i11, D1_I2_1=d1_i21, D2_I2_1=d2_i21,
        c_S=c_s, c_Y=c_y, b_Y_w=b_w, c_YS=c_ys,
        D1_theta=d1_theta, D2_theta=d2_theta, D2prev_theta=d2prev_theta,
    )


def terminal_weights(step: StepRecord, s: JumpSampler) -> FoldWeights:
    """Weights of the final interval ``[zeta_{N_T}, T]``.

    ``theta`` is the survival reweighting ``1/(1 - F(T - zeta_{N_T}))``;
    the transfer weights are the direct flow derivatives of the step map,
    ``theta * dY`` and ``theta * dX``, and the correction weight of the
    final interval vanishes (``theta_c = 0``).

    Raises
    ------
    DomainError
        If the survival probability of the final gap is zero.
    """
    fc = step.fc
    theta = _survival_inv(s, fc.delta)
    _, _, i11, i21, _, _, dx, dy, d2_dy = _gaussian_terms(step)
    theta_ey = theta * dy
    theta_ex = theta * dx
    return FoldWeights(
        theta=theta, theta_eY=theta_ey, theta_eX=theta_ex, theta_c=0.0,
        I1_theta=theta * i11,
        I2_theta_eY=theta_ey * i21 - theta * d2_dy,
        # (theta * sigma1_S_i) / sigma_S_i: theta * (sigma1_S_i / sigma_S_i)
        # rounds differently and moves pinned means
        I1_theta_eX=theta_ex * i11 - theta * fc.sigma1_S_i / fc.sigma_S_i,
    )


def conditional_rows(model, x_prev, fc, s: JumpSampler, state, payoff, weight: int,
                     y_moments: bool) -> list:
    """The final interval's rows with its Gaussian pair integrated out.

    ``x_prev`` and ``fc`` are the log-spot and frozen coefficients at the
    start of the final interval ``[zeta_{N_T}, T]`` and ``state`` the
    six prefix sums ``(price_pref, ey_pref, delta_acc, corr, spill,
    vega_acc)`` before it (see :func:`uvol.estimators._fold`).  Returns the
    conditional means, given that past, of what the sampled interval would
    give after :func:`terminal_weights` and the fold:

    - row 0: ``payoff(x_T)`` times the weight ``weight`` (0, 1, 2 for the
      price, Delta and Vega weights ``W``, ``D``, ``V``);
    - rows 1-6: ``(W, S_T W, D, S_T D, V, S_T V)``;
    - rows 7-12, with ``y_moments``: ``y_T (W, D, V)`` and
      ``y_T**2 (W, D, V)``.

    With ``x_T = mu + sigma_S_i z1``, integrating ``z2`` out leaves each
    weight a quadratic ``r0 + r1 z1 + r2 z1**2``: with ``theta`` the
    survival reweighting, ``W = theta price_pref``; ``D`` has
    ``r0 = theta delta_acc`` and ``r1 = theta delta price_pref / sigma_S_i``;
    ``V`` has ``r2 = theta delta ey sigma1_S_i / sigma_S_i``,
    ``r1 = theta delta (spill - ey a1_S_i / 2) / sigma_S_i`` and
    ``r0 + r2 = theta (vega_acc + delta corr)``.  The ``I2`` term of ``V``
    integrates to 0, because ``E[dY I2_1 | z1] = D2 dY``.  A payoff row is
    then ``r . M`` with ``M_k = E[h(mu + sigma_S_i Z) Z**k]``
    (``payoff.gauss_moments``), and an ``S_T`` row is ``r . F`` with
    ``F_k = E[exp(mu + sigma_S_i Z) Z**k]`` (:func:`forward_moments`).
    For the ``y_T`` rows, with ``y_T = m_i + sigma_Y_i u``, only ``V``
    correlates with ``u``:
    ``sigma_Y_i E[u V] = theta delta ey m1_i``, and
    ``E[(u**2 - 1) V] = 2 theta delta ey sigma1_Y_i / sigma_Y_i``, which
    is 0 because these rows exist only for a constant ``sigma_Y``; and
    ``E[u D] = E[(u**2 - 1) D] = 0``.

    Raises
    ------
    DomainError
        If the survival probability of the final gap is zero.
    """
    delta = fc.delta
    theta = _survival_inv(s, delta)
    price_pref, ey_pref, delta_acc, corr, spill, vega_acc = state
    sig = fc.sigma_S_i
    mu = x_prev + (model.r * delta - 0.5 * fc.a_S_i)
    m = payoff.gauss_moments(mu, sig)
    fwd = forward_moments(mu, sig)
    td = theta * delta
    tey = td * ey_pref
    w0 = theta * price_pref
    d0 = theta * delta_acc
    d1 = td * price_pref / sig
    v2 = tey * fc.sigma1_S_i / sig
    v1 = (td * spill - tey * (0.5 * fc.a1_S_i)) / sig
    mean_v = theta * (vega_acc + delta * corr)
    r = ((w0,), (d0, d1), (mean_v - v2, v1, v2))
    rows = [_dot(r[weight], m)]
    for rj, mean in zip(r, (w0, d0, mean_v)):
        rows += [mean, _dot(rj, fwd)]
    if y_moments:
        my = fc.m_i
        y2 = my * my + fc.a_Y_i
        lin = tey * fc.m1_i
        rows += [my * w0, my * d0, my * mean_v + lin,
                 y2 * w0, y2 * d0, y2 * mean_v + 2.0 * my * lin]
    return rows


def forward_moments(mu, s):
    """``(F0, F1, F2)`` with ``F_k = E[exp(mu + s Z) Z**k]`` for a standard
    normal ``Z``: ``F0 = exp(mu + s**2 / 2)``, ``F1 = s F0`` and
    ``F2 = (1 + s**2) F0``, elementwise."""
    fwd = np.exp(mu + 0.5 * s * s)
    return fwd, fwd * s, fwd + fwd * (s * s)


def _dot(coeffs, moments):
    """``sum_k coeffs[k] * moments[k]`` over the given coefficients."""
    acc = coeffs[0] * moments[0]
    for c, mk in zip(coeffs[1:], moments[1:]):
        acc += c * mk
    return acc

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

Vanishing terms
---------------
The interior weights sum terms of four families, each the change of one
coefficient over the step with its derivatives: ``c_S`` (``a_S``), ``c_Y``
(``a_Y``), ``b_Y_w`` (``b_Y``) and ``c_YS`` (``rho sigma_SY``).  A model's
declarations make some of them identically zero, and
:attr:`uvol.model.Model.vanishing` lists which:

- ``sigma_Y_const``: the ``c_Y`` family (``c_Y``, ``a1_Y`` ... ``a3_Y`` and
  their flow derivatives), ``a1_Y_i`` and ``sigma1_Y_i``, so every
  ``sigma1_Y_i`` term;
- ``ou_params``: ``b2_Y``, and with a flat ``dY`` the flow derivative of
  ``b_Y_w``;
- ``sigma_S_affine`` with ``sigma_Y_const``: ``sigma2_SY``;
- ``sigma_S_affine`` with ``s1 == 0`` (Black-Scholes): the ``c_S`` family,
  ``a1_S_i`` and ``sigma1_S_i``, and with ``sigma_Y_const`` also the ``c_YS``
  family and ``rho1_i``.  Then ``theta_c``, ``theta_eX`` and
  ``I1_theta_eX`` are 0 and ``theta_eY = m1_i theta``.

Those quantities are :data:`uvol.model.ZERO`, which products keep and sums
drop, so each formula below is written in full and forms only the terms
left.  Adding an exact zero is exact: every field keeps its bits but for
the sign of an exact zero, and a field that vanishes as a whole is
``0.0``.  A model without declarations forms every term.

:func:`conditional_rows` integrates the final interval's Gaussian pair out
instead: given the path up to ``zeta_{N_T}``, the folded weights are
quadratic in ``(z1, z2)``, so the payoff and control rows have closed-form
conditional means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StepRecord, one_minus_rho_sq
from .model import ZERO
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


def _num(x):
    """A weight as a number: :data:`ZERO` becomes ``0.0``."""
    return 0.0 if x is ZERO else x


class _Sum:
    """The left-to-right sum ``_Sum() + a - b + ...`` of weight terms.

    ``+`` and ``-`` add into the sum and return it.  :data:`ZERO` terms are
    skipped; the first two terms that remain form a fresh array, and every
    later one is added into it in place.  A 16 384-row temporary is below
    numpy's 256 KiB elision threshold, so a plain ``a + b + c`` allocates a
    new array for every ``+``.  ``value`` is the sum, ``ZERO`` if no term
    remains.
    """

    __slots__ = ("value", "owned")

    def __init__(self):
        self.value = ZERO
        self.owned = False

    def _own(self, value):
        self.value = value
        self.owned = isinstance(value, np.ndarray) and value.ndim > 0

    def __add__(self, term):
        if term is ZERO:
            pass
        elif self.owned:
            np.add(self.value, term, out=self.value)
        elif self.value is ZERO:
            self.value = term  # not ours to write into
        else:
            self._own(self.value + term)
        return self

    def __sub__(self, term):
        if term is ZERO:
            pass
        elif self.owned:
            np.subtract(self.value, term, out=self.value)
        else:  # ZERO - term is -term, a fresh array
            self._own(self.value - term)
        return self

    def times(self, factor):
        """``factor`` times the sum, in place where the sum owns its array."""
        if self.owned:
            return np.multiply(self.value, factor, out=self.value)
        return factor * self.value


def _slopes(step: StepRecord):
    """``(a1_S_i, sigma1_S_i, a1_Y_i, sigma1_Y_i, rho1_i)`` of a step, the
    frozen coefficients' y-derivatives, each :data:`ZERO` where the model's
    declarations make it vanish: a constant ``sigma_S`` zeroes the first
    two, a constant ``sigma_Y`` the next two, and both together
    ``rho1_i``."""
    fc, zero = step.fc, step.model.vanishing
    s = (ZERO, ZERO) if "sigma1_S" in zero else (fc.a1_S_i, fc.sigma1_S_i)
    y = (ZERO, ZERO) if "sigma1_Y" in zero else (fc.a1_Y_i, fc.sigma1_Y_i)
    return s + y + (ZERO if "sigma1_SY" in zero else fc.rho1_i,)


def _gaussian_terms(step: StepRecord, slopes):
    """``(1 - rho_i**2, its root, I1_1, I2_1, w, g, dX, dY, D2 dY)`` of a step:
    the score kernels, the rotated draws and the flow derivatives, which
    both kernels share.  ``slopes`` is :func:`_slopes` of the step; ``w``
    and ``g`` are read only times ``sigma1_Y_i`` and ``rho1_i``, and are
    :data:`ZERO` where those are.  With both, ``dY`` is ``m1_i`` itself."""
    fc = step.fc
    sig_s, sig_y = fc.sigma_S_i, fc.sigma_Y_i
    rho_i = fc.rho_i
    a1s, s1s, _, s1y, rho1 = slopes
    z1, z2 = step.z1, step.z2
    r2 = one_minus_rho_sq(fc)
    sq = np.sqrt(r2)

    i11 = z1 / sig_s - rho_i * z2 / (sig_s * sq)
    i21 = z2 / (sig_y * sq)
    w = ZERO if s1y is ZERO else rho_i * z1 + sq * z2
    g = ZERO if rho1 is ZERO else sq * z1 - rho_i * z2
    dx = -0.5 * a1s + s1s * z1
    dy = fc.m1_i + s1y * w + sig_y * rho1 / sq * g
    d2_dy = s1y / sig_y - rho1 * rho_i / r2
    return r2, sq, i11, i21, w, g, dx, dy, d2_dy


def step_weights(step: StepRecord, s: JumpSampler) -> StepWeights:
    """Every interior weight of one step, in closed form.

    The terms whose factors the model's declarations make identically
    zero (:attr:`uvol.model.Model.vanishing`) are not formed; every
    other term is, in the order of the formulas, so a field keeps its
    bits but for the sign of an exact zero.  A field that vanishes as a
    whole is ``0.0``.

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
    zero = mdl.vanishing
    f_inv = _f_inv(s, fc.delta)

    sig_s, sig_y = fc.sigma_S_i, fc.sigma_Y_i
    a_s, a_y = fc.a_S_i, fc.a_Y_i
    rho_i = fc.rho_i
    mp, m1 = fc.m_i, fc.m1_i
    slopes = _slopes(step)
    a1s, s1s, a1y, s1y, rho1 = slopes
    yn = step.y_next
    r2, sq, i11, i21, w, g, dx, dy, d2_dy = _gaussian_terms(step, slopes)

    d1_i11 = 1.0 / (a_s * r2)
    d2_i11 = -rho_i / (r2 * sig_s * sig_y)
    d1_i21 = d2_i11
    d2_i21 = 1.0 / (a_y * r2)

    # interval-change coefficients: model at the right endpoint minus model
    # at the flow endpoint, plus their y_next-derivatives.  The change of a
    # coefficient the declarations make constant is ZERO, and so is every
    # jet field they zero.
    cy, cm = mdl.jet(yn, vanish=True), mdl.jet(mp, vanish=True)
    c_s = ZERO if "sigma1_S" in zero else 0.5 * (cy.a_S - cm.a_S)
    c_y = ZERO if "sigma1_Y" in zero else 0.5 * (cy.a_Y - cm.a_Y)
    b_w = cy.b_Y - cm.b_Y
    c_ys = ZERO if "sigma1_SY" in zero else rho * (cy.sigma_SY - cm.sigma_SY)
    d2c_s = 0.5 * cy.a1_S
    d2c_y = 0.5 * cy.a1_Y
    d22c_y = 0.5 * cy.a2_Y
    d222c_y = 0.5 * cy.a3_Y
    d2b = cy.b1_Y
    d22b = cy.b2_Y
    d2c_ys = rho * cy.sigma1_SY
    d22c_ys = rho * cy.sigma2_SY

    # x_next-derivatives of the flow derivatives dX, dY
    d1_dx = s1s / sig_s
    d1_dy = ZERO if rho1 is ZERO else sig_y * rho1 / (sig_s * r2)

    # flow derivatives of the interval-change coefficients
    a1s_y = cy.a1_S
    a1y_y, a2y_y, a3y_y = cy.a1_Y, cy.a2_Y, cy.a3_Y
    s1sy_y, s2sy_y = cy.sigma1_SY, cy.sigma2_SY
    e_cs = 0.5 * (a1s_y * dy - cm.a1_S * m1)
    e_cy = 0.5 * (a1y_y * dy - cm.a1_Y * m1)
    # a linear drift's b1_Y is one constant, so with dY = m1_i this is 0
    e_b = ZERO if "b2_Y" in zero and dy is m1 else d2b * dy - cm.b1_Y * m1
    e_cys = rho * (s1sy_y * dy - cm.sigma1_SY * m1)
    d1e_cs = 0.5 * a1s_y * d1_dy
    d1e_cys = rho * s1sy_y * d1_dy
    d2e_cys = rho * (s2sy_y * dy + s1sy_y * d2_dy)
    d2d1e_cys = rho * s2sy_y * d1_dy
    d2e_cy = 0.5 * (a2y_y * dy + a1y_y * d2_dy)
    d2d2e_cy = 0.5 * a3y_y * dy + a2y_y * d2_dy

    # the kernel squares of I11 and I22, which only the c_S and c_Y
    # families multiply
    q11 = ZERO if c_s is d2c_s is e_cs is ZERO else i11 * i11 - d1_i11
    q21 = ZERO if c_y is d2c_y is e_cy is ZERO else i21 * i21 - d2_i21

    # theta = f^-1 [ I11(c_S) - I1(c_S) + I22(c_Y) + I2(b) + I12(c_YS) ]
    theta = (
        _Sum() + c_s * q11
        - c_s * i11
        + c_y * q21 - 2.0 * d2c_y * i21 + d22c_y
        + b_w * i21 - d2b
        + c_ys * i11 * i21 - i11 * d2c_ys - c_ys * d2_i11
    ).times(f_inv)

    d1_theta = (
        _Sum() + 2.0 * c_s * i11 * d1_i11
        - c_s * d1_i11
        + 2.0 * c_y * i21 * d1_i21 - 2.0 * d2c_y * d1_i21
        + b_w * d1_i21
        + (ZERO if c_ys is ZERO else c_ys * (d1_i11 * i21 + i11 * d1_i21))
        - d1_i11 * d2c_ys
    ).times(f_inv)

    d2_theta = (
        _Sum() + d2c_s * q11 + 2.0 * c_s * i11 * d2_i11
        - (d2c_s * i11 + c_s * d2_i11)
        + d2c_y * q21 + 2.0 * c_y * i21 * d2_i21
        - 2.0 * d22c_y * i21 - 2.0 * d2c_y * d2_i21 + d222c_y
        + d2b * i21 + b_w * d2_i21 - d22b
        + d2c_ys * i11 * i21
        + (ZERO if c_ys is ZERO else c_ys * (d2_i21 * i11 + i21 * d2_i11))
        - i11 * d22c_ys - 2.0 * d2c_ys * d2_i11
    ).times(f_inv)

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

    # flow derivative of theta; each kernel derivative is formed only where
    # the coefficient change that multiplies it is
    dprev_i11 = ZERO if d1_dx is rho1 is ZERO else \
        -d1_dx * i11 - rho1 / r2 * (sig_y / sig_s) * i21
    dprev_i21 = -d2_dy * i21
    dp_d1_i11 = ZERO if c_s is ZERO else \
        -a1s / (a_s * a_s * r2) + 2.0 * rho_i * rho1 / (a_s * r2 * r2)
    dp_d2_i11 = ZERO
    if c_ys is not ZERO:
        v = r2 * sig_s * sig_y
        v1 = -2.0 * rho_i * rho1 * sig_s * sig_y + r2 * (s1s * sig_y + sig_s * s1y)
        dp_d2_i11 = -(rho1 * v - rho_i * v1) / (v * v)
    dp_c_y = ZERO  # c_Y * (2 I2_1 Dprev I2_1 - Dprev D2 I2_1)
    if c_y is not ZERO:
        dp_d2_i21 = -a1y / (a_y * a_y * r2) + 2.0 * rho_i * rho1 / (a_y * r2 * r2)
        dp_c_y = c_y * (2.0 * i21 * dprev_i21 - dp_d2_i21)
    dp_d2c_ys = rho * s2sy_y * dy
    dp_d2c_y = 0.5 * a2y_y * dy
    dp_d22c_y = 0.5 * a3y_y * dy

    d2prev_theta = (
        _Sum() + e_cs * q11 + 2.0 * c_s * i11 * dprev_i11 - c_s * dp_d1_i11
        - (e_cs * i11 + c_s * dprev_i11)
        + e_cy * q21 + dp_c_y
        - 2.0 * dp_d2c_y * i21 - 2.0 * d2c_y * dprev_i21 + dp_d22c_y
        + b_w * dprev_i21 + i21 * e_b - d22b * dy
        + e_cys * i11 * i21
        + (ZERO if c_ys is ZERO else c_ys * (i21 * dprev_i11 + i11 * dprev_i21))
        - i11 * dp_d2c_ys - dprev_i11 * d2c_ys - c_ys * dp_d2_i11 - e_cys * d2_i11
    ).times(f_inv)

    # correction weight theta_c = I1(theta*dX - theta_eX)
    #                           + I2(theta*dY - theta_eY) + Dprev theta
    i12_e_cys = e_cys * i11 * i21 - i11 * d2e_cys - e_cys * d2_i11 \
        - d1e_cys * i21 + d2d1e_cys
    i22_e_cy = e_cy * q21 - 2.0 * d2e_cy * i21 + d2d2e_cy
    e_sum = i12_e_cys + i22_e_cy
    t_comp = ZERO if e_sum is ZERO else -f_inv * e_sum
    t_rho = ZERO if rho1 is ZERO else sig_y * rho1 / sq * (
        g * (i21 * theta - d2_theta) + rho_i * theta / (sig_y * sq))
    t_sig_y = ZERO if s1y is ZERO else s1y * (w * (i21 * theta - d2_theta) - theta / sig_y)
    t_dx = i1_theta * dx - theta * d1_dx
    theta_c = (_Sum() + t_comp + t_rho + t_sig_y + t_dx - i1_theta_ex + d2prev_theta).value

    return StepWeights(
        theta=theta, theta_eY=theta_ey, theta_eX=_num(theta_ex), theta_c=_num(theta_c),
        I1_theta=i1_theta, I2_theta_eY=i2_theta_ey, I1_theta_eX=_num(i1_theta_ex),
        I1_1=i11, I2_1=i21,
        D1_I1_1=d1_i11, D2_I1_1=d2_i11, D1_I2_1=d1_i21, D2_I2_1=d2_i21,
        c_S=_num(c_s), c_Y=_num(c_y), b_Y_w=b_w, c_YS=_num(c_ys),
        D1_theta=d1_theta, D2_theta=d2_theta, D2prev_theta=_num(d2prev_theta),
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
    slopes = _slopes(step)
    _, _, i11, i21, _, _, dx, dy, d2_dy = _gaussian_terms(step, slopes)
    theta_ey = theta * dy
    theta_ex = theta * dx
    return FoldWeights(
        theta=theta, theta_eY=theta_ey, theta_eX=_num(theta_ex), theta_c=0.0,
        I1_theta=theta * i11,
        I2_theta_eY=theta_ey * i21 - theta * d2_dy,
        # (theta * sigma1_S_i) / sigma_S_i: theta * (sigma1_S_i / sigma_S_i)
        # rounds differently and moves pinned means
        I1_theta_eX=_num(theta_ex * i11 - theta * slopes[1] / fc.sigma_S_i),
    )


def conditional_rows(model, fc, s: JumpSampler, payoff, weight: int, T: float, block):
    """The final interval's rows with its Gaussian pair integrated out.

    ``fc`` holds the frozen coefficients of the final interval
    ``[zeta_{N_T}, T]`` and ``block`` is an ``(8, n)`` or ``(14, n)``
    matrix.  On entry, its row 0 holds the log-spot ``x_prev`` at
    ``zeta_{N_T}`` and its rows 2-7 the six prefix sums ``(price_pref,
    ey_pref, delta_acc, corr, spill, vega_acc)`` before the interval (see
    :func:`uvol.estimators._fold`); row 1 is not read, and ``fc`` must not
    share memory with ``block``.  On return, each row holds the conditional
    mean, given that past, of what the sampled interval would give after
    :func:`terminal_weights` and the fold:

    - row 0: ``payoff(x_T)`` times the weight ``weight`` (0, 1, 2 for the
      price, Delta and Vega weights ``W``, ``D``, ``V``);
    - rows 1-6: ``(W, S_T W, D, S_T D, V, S_T V)``;
    - row 7: the payoff's Delta row minus its translation twin,
      ``theta (delta_acc M0 - (T - delta) price_pref M1 / sigma_S_i)``;
    - rows 8-13 of a 14-row block: ``y_T (W, D, V)`` and
      ``y_T**2 (W, D, V)``.

    The state is first turned, row by row in place, into the coefficients
    of the quadratics below, and then each row is written over a
    coefficient no later row reads, in the floating-point order of the
    formulas below written one expression a row.

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

    Row 7 has mean 0 by translation in ``x0``.  No coefficient depends on
    ``x``, so ``x_T - x0`` and the weights do not depend on ``x0``, and the
    Delta (in units of ``s0 T``) is also ``T E[W dG/dmu]`` with
    ``G(mu) = M0``, whose derivative is ``M1 / sigma_S_i``.  The row is the
    Delta row ``d0 M0 + d1 M1`` minus ``T w0 M1 / sigma_S_i``, which is
    exactly 0 on a jump-free path, where ``delta = T`` and
    ``delta_acc = 0``.

    Raises
    ------
    DomainError
        If the survival probability of the final gap is zero.
    """
    delta = fc.delta
    theta = _survival_inv(s, delta)
    price_pref, ey_pref, delta_acc, corr, spill, vega_acc = block[2:8]
    sig = fc.sigma_S_i
    mu = np.add(block[0], model.r * delta - 0.5 * fc.a_S_i, out=block[0])
    m = payoff.gauss_moments(mu, sig)
    fwd = forward_moments(mu, sig)
    # The quadratics' coefficients, each in the row of a state array read
    # for the last time: r = ((w0,), (d0, d1), (v0, v1, v2)).
    td = theta * delta
    d1 = np.multiply(td, price_pref, out=block[0])
    d1 /= sig
    w0 = np.multiply(theta, price_pref, out=block[1])
    tey = np.multiply(td, ey_pref, out=block[3])
    d0 = np.multiply(theta, delta_acc, out=block[4])
    v2 = np.multiply(tey, fc.sigma1_S_i, out=block[2])
    v2 /= sig
    v1 = np.multiply(td, spill, out=block[6])
    v1 -= tey * (0.5 * fc.a1_S_i)
    v1 /= sig
    mean_v = np.add(vega_acc, np.multiply(delta, corr, out=block[5]), out=block[7])
    mean_v *= theta
    v0 = np.subtract(mean_v, v2, out=block[5])

    # Each row overwrites coefficients no later row reads.
    if len(block) > 8:
        my = fc.m_i
        y2 = my * my + fc.a_Y_i
        lin = np.multiply(tey, fc.m1_i, out=block[3])
        np.multiply(my, w0, out=block[8])
        np.multiply(my, d0, out=block[9])
        np.multiply(my, mean_v, out=block[10])
        block[10] += lin
        np.multiply(y2, w0, out=block[11])
        np.multiply(y2, d0, out=block[12])
        np.multiply(y2, mean_v, out=block[13])
        block[13] += 2.0 * my * lin
    h = _dot(((w0,), (d0, d1), (v0, v1, v2))[weight], m)
    # V . F accumulated over v1: v1 F1 + v0 F0 is v0 F0 + v1 F1 bit for bit
    v1 *= fwd[1]
    v1 += v0 * fwd[0]
    v1 += v2 * fwd[2]
    block[5] = mean_v
    np.multiply(d0, m[0], out=block[7])
    block[7] -= (T - delta) * w0 * m[1] / sig
    block[3] = d0
    d0 *= fwd[0]  # D . F, accumulated over d0
    d1 *= fwd[1]
    d0 += d1
    np.multiply(w0, fwd[0], out=block[2])
    block[0] = h


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

"""Independent reference implementation of the weight calculus.

The production module assembles every weight from hand-simplified closed
forms.  This oracle recomputes them by a completely different route:
truncated trivariate Taylor jets in ``(x_next, y_next, y_prev)``, on which
the integral/derivative operators act *definitionally*:

* the score kernels come from differentiating the log proxy density jet,
  never from the simplified ``z``-form kernels;
* ``I_alpha(H) = H * I_alpha(1) - D_alpha H`` is applied as an operator on
  jets, so all iterated operators are literal compositions;
* the flow derivative is the one generic chain rule
  ``Dprev H = dH/dy_prev + D1 H * dX + D2 H * dY``, with no per-kernel
  special cases;
* the transfer weights use the raw five-term decomposition
  (``m' c_S``, ``m' c_Y``, ``m' c_YS``, ``-m' c_S + Dprev c_YS``,
  ``m' b + Dprev c_Y``) instead of the collapsed production algebra.

Jets carry exact coefficients up to total degree ``ORDER`` in
``(x_next, y_next)`` and first order in ``y_prev``; every coefficient the
weight assembly consumes lies well inside the exact range.  The
``y_prev``-components of outputs of ``jet_dprev`` are incomplete (they
would need second derivatives of the frozen coefficients) and are never
consumed.

The module also provides product-level oracles for the price, spot and
volatility weights that expand the full sum-over-paths definitions with
O(n^2) explicit products, replacing the production prefix recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from uvol.renewal import density, survival
from uvol.weights import step_weights, terminal_weights

ORDER = 6
_A = ORDER + 1
_SIMPLEX = np.fromfunction(lambda a, b, p: a + b <= ORDER, (_A, _A, 2))
_SERIES_TERMS = ORDER + 2  # lowest nonzero total degree of t**k is k


class Jet:
    """Truncated Taylor expansion around one evaluation point.

    ``c[a, b, p]`` is the coefficient of ``dx^a dy^b dp^p`` where ``dx``,
    ``dy``, ``dp`` are offsets in ``x_next``, ``y_next``, ``y_prev``.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    @staticmethod
    def const(v):
        c = np.zeros((_A, _A, 2))
        c[0, 0, 0] = v
        return Jet(c)

    @staticmethod
    def basis(axis, value):
        """The coordinate function of one axis (0=x_next, 1=y_next, 2=y_prev)."""
        c = np.zeros((_A, _A, 2))
        c[0, 0, 0] = value
        c[(1, 0, 0) if axis == 0 else (0, 1, 0) if axis == 1 else (0, 0, 1)] = 1.0
        return Jet(c)

    @property
    def value(self):
        return self.c[0, 0, 0]

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.copy()
        c[0, 0, 0] += other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        out = np.zeros((_A, _A, 2))
        c2 = other.c
        nz = np.argwhere(np.any(self.c != 0.0, axis=2))
        for a, b in nz:
            lo0, lo1 = self.c[a, b, 0], self.c[a, b, 1]
            blk = c2[: _A - a, : _A - b]
            if lo0 != 0.0:
                out[a:, b:] += lo0 * blk
            if lo1 != 0.0:
                out[a:, b:, 1] += lo1 * blk[:, :, 0]
        out *= _SIMPLEX
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_inv(other)
        return Jet(self.c / other)

    def __rtruediv__(self, other):
        return other * jet_inv(self)


def jet_dx(h: Jet) -> Jet:
    c = np.zeros((_A, _A, 2))
    c[:-1] = h.c[1:] * np.arange(1, _A)[:, None, None]
    return Jet(c)


def jet_dy(h: Jet) -> Jet:
    c = np.zeros((_A, _A, 2))
    c[:, :-1] = h.c[:, 1:] * np.arange(1, _A)[None, :, None]
    return Jet(c)


def jet_dp(h: Jet) -> Jet:
    c = np.zeros((_A, _A, 2))
    c[:, :, 0] = h.c[:, :, 1]
    return Jet(c)


def jet_apply(derivs, h: Jet) -> Jet:
    """Compose a scalar function with a jet.

    ``derivs`` lists the function's derivatives ``[f(h0), f'(h0), ...]`` at
    the jet's value ``h0``; at least ``ORDER + 2`` entries make the
    composition exact on the truncated algebra.
    """
    t = h + (-h.value)
    out = Jet.const(derivs[0])
    tk = Jet.const(1.0)
    fact = 1.0
    for k in range(1, len(derivs)):
        tk = tk * t
        fact *= k
        if not tk.c.any():
            break
        out = out + (derivs[k] / fact) * tk
    return out


def _pow_derivs(c0, expo):
    out, coef, p = [], 1.0, expo
    for _ in range(_SERIES_TERMS):
        out.append(coef * c0 ** p)
        coef *= p
        p -= 1.0
    return out


def jet_inv(h: Jet) -> Jet:
    return jet_apply(_pow_derivs(h.value, -1.0), h)


def jet_sqrt(h: Jet) -> Jet:
    return jet_apply(_pow_derivs(h.value, 0.5), h)


def jet_log(h: Jet) -> Jet:
    c0 = h.value
    derivs = [math.log(c0)]
    derivs += [(-1.0) ** (k - 1) * math.factorial(k - 1) / c0 ** k
               for k in range(1, _SERIES_TERMS)]
    return jet_apply(derivs, h)


# ---------------------------------------------------------------------------
# model coefficient functions with arbitrary-order derivatives


@dataclass(frozen=True)
class OracleModel:
    """Coefficients as derivative-list callables, for jet composition."""

    r: float
    rho: float
    sigma_S: Callable
    sigma_Y: Callable
    b_Y: Callable


def _const_derivs(v):
    def d(y):
        return [v] + [0.0] * (_SERIES_TERMS - 1)
    return d


def _affine_derivs(slope, intercept):
    def d(y):
        return [slope * y + intercept, slope] + [0.0] * (_SERIES_TERMS - 2)
    return d


def _sinusoid_derivs(amp, shift, phase=0.0):
    """Derivative list of ``amp*sin(y + phase) + shift``."""
    def d(y):
        out = [amp * math.sin(y + phase) + shift]
        out += [amp * math.sin(y + phase + k * math.pi / 2.0)
                for k in range(1, _SERIES_TERMS)]
        return out
    return d


def _ou_drift_derivs(lam, mu):
    def d(y):
        return [lam * (mu - y), -lam] + [0.0] * (_SERIES_TERMS - 2)
    return d


def oracle_model_from_kind(kind) -> OracleModel:
    """Derivative-list twin of ``make_builtin(kind)``."""
    if kind.tag == "BlackScholes":
        sig_s = _const_derivs(kind.sigma_s)
    elif kind.tag == "SteinSteinAffine":
        sig_s = _affine_derivs(kind.sigma1, kind.sigma2)
    elif kind.tag == "PeriodicCosine":
        # sigma1*cos(y) + sigma2 = sigma1*sin(y + pi/2) + sigma2
        sig_s = _sinusoid_derivs(kind.sigma1, kind.sigma2, phase=math.pi / 2.0)
    else:
        raise ValueError(kind.tag)
    return OracleModel(r=kind.r, rho=kind.rho, sigma_S=sig_s,
                       sigma_Y=_const_derivs(kind.sigma_y),
                       b_Y=_ou_drift_derivs(kind.lambda_y, kind.mu))


def oracle_synthetic_model(rho=0.4, r=0.03) -> OracleModel:
    """Derivative-list twin of :func:`helpers.synthetic_model`."""
    def b_derivs(y):
        out = _sinusoid_derivs(0.1, 0.0, phase=math.pi / 2.0)(y)
        out[0] += 0.5 * (0.3 - y)
        out[1] += -0.5
        return out
    return OracleModel(r=r, rho=rho,
                       sigma_S=_sinusoid_derivs(0.1, 0.25),
                       sigma_Y=_sinusoid_derivs(0.05, 0.2),
                       b_Y=b_derivs)


# ---------------------------------------------------------------------------
# step-level oracle


class StepJets:
    """All atoms and operators of one transition, as jets."""

    def __init__(self, om: OracleModel, step):
        fc = step.fc
        self.delta = fc.delta
        x = Jet.basis(0, step.x_next)
        y = Jet.basis(1, step.y_next)
        p = Jet.basis(2, step.y_prev)
        dp = p + (-step.y_prev)

        sig_s = Jet.const(fc.sigma_S_i) + fc.sigma1_S_i * dp
        sig_y = Jet.const(fc.sigma_Y_i) + fc.sigma1_Y_i * dp
        a_s = Jet.const(fc.a_S_i) + fc.a1_S_i * dp
        rho = Jet.const(fc.rho_i) + fc.rho1_i * dp
        m = Jet.const(fc.m_i) + fc.m1_i * dp
        r2 = 1.0 - rho * rho
        sq = jet_sqrt(r2)

        z1 = (x - step.x_prev - (om.r * fc.delta) + 0.5 * a_s) / sig_s
        w = (y - m) / sig_y
        z2 = (w - rho * z1) / sq

        logp = (-0.5) * (z1 * z1 - 2.0 * (rho * z1 * w) + w * w) * jet_inv(r2) \
            - math.log(2.0 * math.pi) - jet_log(sig_s) - jet_log(sig_y) \
            - 0.5 * jet_log(r2)
        self.I1_1 = -jet_dx(logp)
        self.I2_1 = -jet_dy(logp)

        self.dX = Jet.const(-0.5 * fc.a1_S_i) + fc.sigma1_S_i * z1
        g = sq * z1 - rho * z2
        self.dY = Jet.const(fc.m1_i) + fc.sigma1_Y_i * w \
            + sig_y * fc.rho1_i * jet_inv(sq) * g

        sig_s_y = jet_apply(om.sigma_S(step.y_next), y)
        sig_s_m = jet_apply(om.sigma_S(m.value), m)
        sig_y_y = jet_apply(om.sigma_Y(step.y_next), y)
        sig_y_m = jet_apply(om.sigma_Y(m.value), m)
        self.c_S = 0.5 * (sig_s_y * sig_s_y - sig_s_m * sig_s_m)
        self.c_Y = 0.5 * (sig_y_y * sig_y_y - sig_y_m * sig_y_m)
        self.b_w = jet_apply(om.b_Y(step.y_next), y) - jet_apply(om.b_Y(m.value), m)
        self.c_YS = om.rho * (sig_s_y * sig_y_y - sig_s_m * sig_y_m)
        self.m1 = fc.m1_i

    def i1(self, h: Jet) -> Jet:
        return h * self.I1_1 - jet_dx(h)

    def i2(self, h: Jet) -> Jet:
        return h * self.I2_1 - jet_dy(h)

    def dprev(self, h: Jet) -> Jet:
        return jet_dp(h) + jet_dx(h) * self.dX + jet_dy(h) * self.dY


def oracle_step_weights(om: OracleModel, step, sampler) -> dict:
    """Interior weights of one step, via the definitional jet route."""
    s = StepJets(om, step)
    f_inv = 1.0 / density(sampler, s.delta)

    theta = f_inv * (s.i1(s.i1(s.c_S)) - s.i1(s.c_S) + s.i2(s.i2(s.c_Y))
                     + s.i2(s.b_w) + s.i2(s.i1(s.c_YS)))

    d_s = s.m1 * s.c_S
    d_y = s.m1 * s.c_Y
    d_ys = s.m1 * s.c_YS
    e_s_y = (-s.m1) * s.c_S + s.dprev(s.c_YS)
    e_y_y = s.m1 * s.b_w + s.dprev(s.c_Y)
    theta_ey = f_inv * (s.i1(s.i1(d_s)) + s.i2(s.i2(d_y)) + s.i1(e_s_y)
                        + s.i2(e_y_y) + s.i2(s.i1(d_ys)))
    theta_ex = f_inv * s.i1(s.dprev(s.c_S))

    theta_c = s.i1(s.dX * theta - theta_ex) + s.i2(s.dY * theta - theta_ey) \
        + s.dprev(theta)

    return {
        "theta": theta.value,
        "theta_eY": theta_ey.value,
        "theta_eX": theta_ex.value,
        "theta_c": theta_c.value,
        "I1_theta": s.i1(theta).value,
        "I2_theta_eY": s.i2(theta_ey).value,
        "I1_theta_eX": s.i1(theta_ex).value,
        "D1_theta": jet_dx(theta).value,
        "D2_theta": jet_dy(theta).value,
        "Dprev_theta": s.dprev(theta).value,
        "I1_1": s.I1_1.value,
        "I2_1": s.I2_1.value,
        "c_S": s.c_S.value,
        "c_Y": s.c_Y.value,
        "b_Y_w": s.b_w.value,
        "c_YS": s.c_YS.value,
        "dX": s.dX.value,
        "dY": s.dY.value,
    }


def oracle_terminal_weights(om: OracleModel, step, sampler) -> dict:
    """Final-interval weights via the jet route."""
    s = StepJets(om, step)
    theta_last = 1.0 / survival(sampler, s.delta)
    theta_ey = theta_last * s.dY
    theta_ex = theta_last * s.dX
    return {
        "theta": theta_last,
        "theta_eY": theta_ey.value,
        "theta_eX": theta_ex.value,
        "theta_c": 0.0,
        "I1_theta": (theta_last * s.I1_1).value,
        "I2_theta_eY": s.i2(theta_ey).value,
        "I1_theta_eX": s.i1(theta_ex).value,
    }


_KEYS = ("theta", "theta_eY", "theta_eX", "theta_c",
         "I1_theta", "I2_theta_eY", "I1_theta_eX")


def oracle_path_values(om: OracleModel, steps, sampler) -> list:
    """Per-step weight dictionaries of a path's steps, via the jet oracle."""
    out = [oracle_step_weights(om, st, sampler) for st in steps[:-1]]
    out.append(oracle_terminal_weights(om, steps[-1], sampler))
    return out


def production_path_values(steps, sampler) -> list:
    """Per-step weight dictionaries via the production closed forms."""
    out = []
    for st in steps[:-1]:
        sw = step_weights(st, sampler)
        out.append({"theta": sw.theta, "theta_eY": sw.theta_eY,
                    "theta_eX": sw.theta_eX, "theta_c": sw.theta_c,
                    "I1_theta": sw.I1_theta, "I2_theta_eY": sw.I2_theta_eY,
                    "I1_theta_eX": sw.I1_theta_eX})
    tw = terminal_weights(steps[-1], sampler)
    out.append({"theta": tw.theta_last, "theta_eY": tw.theta_eY_last,
                "theta_eX": tw.theta_eX_last, "theta_c": 0.0,
                "I1_theta": tw.I1_theta_last,
                "I2_theta_eY": tw.I2_theta_eY_last,
                "I1_theta_eX": tw.I1_theta_eX_last})
    return out


# ---------------------------------------------------------------------------
# product-level oracles: literal sum-over-splittings expansions


def product_price(vals) -> float:
    return math.prod(v["theta"] for v in vals)


def product_delta(vals, deltas) -> float:
    n = len(vals)
    tot = 0.0
    for k in range(n):
        tot += deltas[k] \
            * math.prod(vals[i]["theta"] for i in range(k)) \
            * vals[k]["I1_theta"] \
            * math.prod(vals[i]["theta"] for i in range(k + 1, n))
    return tot


def product_vega(vals, deltas) -> float:
    n = len(vals)
    tot = 0.0
    for k in range(n):
        ey_pre = math.prod(vals[i]["theta_eY"] for i in range(k))
        th_post = math.prod(vals[i]["theta"] for i in range(k + 1, n))
        tot += deltas[k] * ey_pre * vals[k]["I2_theta_eY"] * th_post
        tot += deltas[k] * ey_pre * vals[k]["I1_theta_eX"] * th_post
        for j in range(k):
            tot += deltas[k] \
                * math.prod(vals[i]["theta_eY"] for i in range(j)) \
                * vals[j]["theta_eX"] \
                * math.prod(vals[i]["theta"] for i in range(j + 1, k)) \
                * vals[k]["I1_theta"] * th_post
        for j in range(k + 1):
            tot += deltas[k] \
                * math.prod(vals[i]["theta_eY"] for i in range(j)) \
                * vals[j]["theta_c"] \
                * math.prod(vals[i]["theta"] for i in range(j + 1, n))
    return tot

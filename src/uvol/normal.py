"""The standard normal CDF and its inverse, vectorized on numpy alone.

:func:`ndtri` and :func:`ndtr` port the rational approximations of the
Cephes library (S. L. Moshier, ``ndtri.c`` and ``ndtr.c``), the ones
``scipy.special`` uses, in Cephes' order of operations.  Against
``scipy.special`` (numpy 2.4.6, scipy 1.17.1, x86-64), :func:`ndtri` is
within 5 ulp on 2 M of the engine's uniforms (142 values differ at all) and
within 2 ulp on both tails down to ``2**-54`` and up to ``1 - 2**-54``, and
:func:`ndtr` is within 4 ulp on ``[-40, 40]`` wherever its value is at least
``1e-300``.  The differences come from numpy's ``log`` and ``exp`` against
the C library's.

Both take any array-like, return an array of its shape (a numpy float for
a scalar), and raise no floating-point warning on any input.  They keep the
number of numpy calls low, because each call is a GIL handoff when the
estimator runs on several threads.  A rational function's numerator and
denominator are evaluated together, as the two rows of one array.  The
central form, which most values take, runs on every value (the others are
made harmless first), so no array is gathered for it; the tail forms run
only on the values that take them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtri", "ndtr"]


def _pair(num, den):
    """A numerator (Cephes' ``polevl``) and a monic denominator (``p1evl``,
    its leading 1 left out) for :func:`_horner`: the number of leading terms
    the denominator has beyond the numerator, and both as ``(terms, 2, 1)``
    Horner coefficients, the numerator padded with leading zeros."""
    den = (1.0,) + tuple(den)
    terms = max(len(num), len(den))
    coef = np.zeros((terms, 2, 1))
    coef[terms - len(num):, 0, 0] = num
    coef[terms - len(den):, 1, 0] = den
    return len(den) - len(num), coef


def _stacked(*pairs):
    """Several pairs as the rows of one Horner pass, each padded with
    leading zeros to the longest."""
    terms = max(coef.shape[0] for _, coef in pairs)
    return 0, np.concatenate([np.pad(coef, ((terms - coef.shape[0], 0), (0, 0), (0, 0)))
                              for _, coef in pairs], axis=1)


def _horner(pair, v):
    """The rows of ``pair`` (:func:`_pair`, :func:`_stacked`) at ``v``, by
    Horner's rule with Cephes' rounding, as a ``(rows, v.size)`` array.  A
    denominator's extra leading terms run on its row alone."""
    lead, coef = pair
    if lead:
        acc = np.empty((2, v.size))
        den = acc[1]
        np.add(v, coef[1, 1], out=den)  # 1 * v + c, exactly
        for c in coef[2:lead + 1, 1]:
            den *= v
            den += c
        acc[0] = coef[lead, 0]
        rest = coef[lead + 1:]
    else:
        acc = coef[0] * v
        acc += coef[1]
        rest = coef[2:]
    for c in rest:
        acc *= v
        acc += c
    return acc


# ndtri: |y - 1/2| <= 1/2 - exp(-2), in r = (y - 1/2)**2
_P0Q0 = _pair(
    (-5.99633501014107895267E1, 9.80010754185999661536E1,
     -5.66762857469070293439E1, 1.39312609387279679503E1,
     -1.23916583867381258016E0),
    (1.95448858338141759834E0, 4.67627912898881538453E0,
     8.63602421390890590575E1, -2.25462687854119370527E2,
     2.00260212380060660359E2, -8.20372256168333339912E1,
     1.59056225126211695515E1, -1.18331621121330003142E0))
# ndtri tails, in z = 1 / sqrt(-2 log y): z > 1/8 (y > exp(-32)), then z <= 1/8
_P1Q1 = _pair(
    (4.05544892305962419923E0, 3.15251094599893866154E1,
     5.71628192246421288162E1, 4.40805073893200834700E1,
     1.46849561928858024014E1, 2.18663306850790267539E0,
     -1.40256079171354495875E-1, -3.50424626827848203418E-2,
     -8.57456785154685413611E-4),
    (1.57799883256466749731E1, 4.53907635128879210584E1,
     4.13172038254672030440E1, 1.50425385692907503408E1,
     2.50464946208309415979E0, -1.42182922854787788574E-1,
     -3.80806407691578277194E-2, -9.33259480895457427372E-4))
_P2Q2 = _pair(
    (3.23774891776946035970E0, 6.91522889068984211695E0,
     3.93881025292474443415E0, 1.33303460815807542389E0,
     2.01485389549179081538E-1, 1.23716634817820021358E-2,
     3.01581553508235416007E-4, 2.65806974686737550832E-6,
     6.23974539184983293730E-9),
    (6.02427039364742014255E0, 3.67983563856160859403E0,
     1.37702099489081330271E0, 2.16236993594496635890E-1,
     1.34204006088543189037E-2, 3.28014464682127739104E-4,
     2.89247864745380683936E-6, 6.79019408009981274425E-9))
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)

# ndtr: erf(x) = x T(x**2) / U(x**2) for |x| < 1; erfc(x) = exp(-x**2) P(x) / Q(x)
# for 1 <= x < 8 and exp(-x**2) R(x) / S(x) from 8 on
_TU = _pair(
    (9.60497373987051638749E0, 9.00260197203842689217E1,
     2.23200534594684319226E3, 7.00332514112805075473E3,
     5.55923013010394962768E4),
    (3.35617141647503099647E1, 5.21357949780152679795E2,
     4.59432382970980127987E3, 2.26290000613890934246E4,
     4.92673942608635921086E4))
_PQ = _pair(
    (2.46196981473530512524E-10, 5.64189564831068821977E-1,
     7.46321056442269912687E0, 4.86371970985681366614E1,
     1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3,
     5.57535335369399327526E2),
    (1.32281951154744992508E1, 8.67072140885989742329E1,
     3.54937778887819891062E2, 9.75708501743205489753E2,
     1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2))
_RS = _pair(
    (5.64189583547755073984E-1, 1.27536670759978104416E0,
     5.01905042251180477414E0, 6.16021097993053585195E0,
     7.40974269950448939160E0, 2.97886665372100240670E0),
    (2.26052863220117276590E0, 9.39603524938001434673E0,
     1.20489539808096656605E1, 1.70814450747565897222E1,
     9.60896809063285878198E0, 3.36907645100081516050E0))
_PQRS = _stacked(_PQ, _RS)  # both of erfc's forms in one pass
_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2
# Cephes' erfc returns 0 once -x*x < -MAXLOG; this is the largest x before.
_X_UNDER = math.sqrt(_MAXLOG)
while _X_UNDER * _X_UNDER > _MAXLOG:
    _X_UNDER = math.nextafter(_X_UNDER, 0.0)
while math.nextafter(_X_UNDER, math.inf) ** 2 <= _MAXLOG:
    _X_UNDER = math.nextafter(_X_UNDER, math.inf)


def _flat(v):
    """``v`` as a 1-D float64 array (a view where it can be), and its shape."""
    v = np.asarray(v, dtype=np.float64)
    return v.reshape(-1), v.shape


def _shaped(out, shape):
    """``out`` in the input's shape, a numpy float for a scalar input."""
    return out.reshape(shape) if shape else out[0]


def ndtri(y):
    """Inverse of the standard normal CDF, elementwise.

    ``ndtri(0) = -inf`` and ``ndtri(1) = inf``; NaN and values outside
    ``[0, 1]`` give NaN.
    """
    y, shape = _flat(y)
    q = y - 0.5
    r = np.abs(q)
    # the tails, y <= exp(-2) or y >= 1 - exp(-2), and values outside [0, 1]
    tail = np.flatnonzero(r > 0.5 - _EXP_M2)
    yt = y[tail]
    q[tail] = 0.0  # the central form runs on every value; keep it finite
    np.multiply(q, q, out=r)
    num, den = _horner(_P0Q0, r)
    num *= r
    num /= den
    num *= q
    q += num
    q *= _S2PI
    if yt.size:
        q[tail] = _ndtri_tail(yt)
    return _shaped(q, shape)


def _ndtri_tail(y):
    """:func:`ndtri` on the tails."""
    x = 1.0 - y
    np.minimum(y, x, out=x)  # the smaller tail, as Cephes takes it
    edge = not x.min() > 0.0
    if edge:  # 0, 1, and values outside [0, 1]
        bad = np.flatnonzero(x <= 0.0)
        x[bad] = 0.5
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x0 = np.log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    nd = _horner(_P1Q1, z)
    if x.max() >= 8.0:  # y < exp(-32)
        far = np.flatnonzero(x >= 8.0)
        nd[:, far] = _horner(_P2Q2, z[far])
    z *= nd[0]
    z /= nd[1]
    x0 -= z
    np.copysign(x0, np.subtract(y, 0.5, out=x), out=x0)  # negative below 1/2
    if edge:
        yb = y[bad]
        x0[bad] = np.where(yb == 0.0, -np.inf, np.where(yb == 1.0, np.inf, np.nan))
    return x0


def ndtr(a):
    """Standard normal CDF, elementwise.

    Below about ``-37.68``, where Cephes' ``erfc`` underflows, it is 0, as
    in Cephes; NaN gives NaN.
    """
    a, shape = _flat(a)
    x = a * _SQRT1_2
    # 1/2 + erf(x)/2 where |x| < 1: most values in the estimator's use.  It
    # runs on every value, clipped to stay finite; the others are replaced.
    out = np.clip(x, -1.0, 1.0)
    nd = _horner(_TU, out * out)
    out *= nd[0]
    out /= nd[1]
    out *= 0.5
    out += 0.5
    z = np.abs(x)
    tail = np.flatnonzero(z >= 1.0)
    if tail.size:
        out[tail] = _ndtr_tail(z[tail], x[tail])
    return _shaped(out, shape)


def _ndtr_tail(z, x):
    """:func:`ndtr` at ``x``, where ``z = |x| >= 1``: ``erfc(z) / 2``, or one
    minus that above 0."""
    top = z.max()
    if top > _X_UNDER:  # 0 in Cephes; keep z * z finite
        under = np.flatnonzero(z > _X_UNDER)
        z[under] = _X_UNDER
    e = z * z
    np.negative(e, out=e)
    np.exp(e, out=e)
    if top > _X_UNDER:
        e[under] = 0.0
    if top < 8.0:
        nd = _horner(_PQ, z)
    else:
        nd = _horner(_PQRS, z)
        far = np.flatnonzero(z >= 8.0)
        nd[:2, far] = nd[2:, far]
    e *= nd[0]
    e /= nd[1]
    e *= 0.5
    np.copysign(e, x, out=e)
    return np.subtract(x > 0.0, e, out=e)  # 1 - e above 0, e below

"""Integer bounds, closed formulas and the residue trichotomy for D(n,k,3).

Everything here is exact integer arithmetic (Python ints, so no overflow).
The trichotomy classifies a pair (n, k) by the residues

    r     = (n-2) mod (k-2)
    alpha = (n-1)(n-2) mod (k-1)(k-2)      (only meaningful when r = 0)
    beta  = n(n-1)(n-2) mod k(k-1)(k-2)    (only meaningful when alpha = 0)

into DESIGN (all zero), R_NONZERO, Q_NONZERO (r = 0, alpha = 0, beta != 0)
and P_NONZERO (r = 0, alpha != 0).
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import InvalidParameterError, TriplepackError


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParameterError(msg)


def _exact_div(a: int, b: int) -> int:
    """a // b where a residue identity makes b divide a; checked, so that a
    broken identity raises even under ``python -O``."""
    q, rem = divmod(a, b)
    if rem:
        raise TriplepackError(f"residue identity failed: {b} does not divide {a}")
    return q


def johnson_bound(n: int, k: int, t: int) -> int:
    """Nested-floor upper bound J(n, k, t) on the packing number."""
    _require(n >= k >= t >= 1, f"need n >= k >= t >= 1, got {(n, k, t)}")
    val = 1
    for i in range(t - 1, -1, -1):
        val = (n - i) * val // (k - i)
    return val


def j_prime(n: int, k: int) -> int:
    """The bound J'(n,k,3) = floor(n/k * (floor((n-1)(n-2)/((k-1)(k-2))) - 1))."""
    _require(n > k >= 4, f"need n > k >= 4, got {(n, k)}")
    inner = (n - 1) * (n - 2) // ((k - 1) * (k - 2)) - 1
    return n * inner // k


def packing_number_k4(n: int) -> int:
    """Closed formula for D(n, 4, 3), valid for every n >= 4."""
    _require(n >= 4, f"need n >= 4, got {n}")
    if n % 6 != 0:
        return johnson_bound(n, 4, 3)
    return n * ((n - 1) * (n - 2) // 6 - 1) // 4


class CaseLabel(enum.Enum):
    DESIGN = "design"
    R_NONZERO = "r-nonzero"
    Q_NONZERO = "q-nonzero"
    P_NONZERO = "p-nonzero"


class CaseData(
    namedtuple(
        "CaseData",
        "n k r alpha_r beta_r gamma gamma0 q_beta p q_excess star_holds",
        defaults=(None,) * 8,
    )
):
    """All residues used by the bound formulas and leave constructions.

    Residues belonging to different cases are namespaced so that no
    consumer can read the wrong one:

    * ``alpha_r``, ``beta_r``, ``gamma``, ``gamma0`` -- only set when
      r != 0 (the residues are shifted by r there).
    * ``q_beta`` -- only set when r = 0 and alpha = 0 (0 for DESIGN).
    * ``p``, ``q_excess``, ``star_holds`` -- only set when r = 0 and
      alpha != 0.
    """

    __slots__ = ()


def classify(n: int, k: int) -> tuple[CaseLabel, CaseData]:
    """Classify (n, k) into the residue trichotomy (plus DESIGN)."""
    _require(n > k >= 4, f"need n > k >= 4, got {(n, k)}")
    r = (n - 2) % (k - 2)
    if r != 0:
        alpha = (n - 1) * (n - r - 2) % ((k - 1) * (k - 2))
        beta = (n * (n - 1) * (n - 2 - r) - n * alpha) % (k * (k - 1) * (k - 2))
        data = CaseData(
            n=n,
            k=k,
            r=r,
            alpha_r=alpha,
            beta_r=beta,
            gamma=_exact_div(alpha, k - 2),
            gamma0=_exact_div(alpha + beta, k - 2),
        )
        return CaseLabel.R_NONZERO, data

    alpha = (n - 1) * (n - 2) % ((k - 1) * (k - 2))
    if alpha != 0:
        p = _exact_div(alpha, k - 2)
        beta = (n * (n - 1) * (n - 2) - n * (p + k - 1) * (k - 2)) % (
            k * (k - 1) * (k - 2)
        )
        q = _exact_div(beta, (k - 1) * (k - 2))
        star = not (k % 6 == 4 and p % 6 == 4) and not (k % 6 == 0 and (p - 2) % 6 == 0)
        data = CaseData(n=n, k=k, r=0, p=p, q_excess=q, star_holds=star)
        return CaseLabel.P_NONZERO, data

    beta = n * (n - 1) * (n - 2) % (k * (k - 1) * (k - 2))
    q = _exact_div(beta, (k - 1) * (k - 2))
    data = CaseData(n=n, k=k, r=0, q_beta=q)
    if beta == 0:
        return CaseLabel.DESIGN, data
    return CaseLabel.Q_NONZERO, data


def upper_bound(n: int, k: int) -> int:
    """Best proven upper bound on D(n, k, 3) for the case of (n, k).

    DESIGN and R_NONZERO give J, except J - 1 in the R_NONZERO subclass
    gamma = 0, gamma0 = k - 1; Q_NONZERO gives J - 3; P_NONZERO gives
    J', further reduced by floor(n / 3k^3) when k = 0 (mod 6), k >= 12
    and p = 2.  For n below the (unknown) case threshold the bound is
    still valid, it just need not be tight.

    The R_NONZERO subclass rests only on necessary leave conditions, so
    it holds at every n.  A leave for xi = J has every multiplicity
    = r (mod k - 2) with 0 < r < k - 2, so it is rK_n + (k - 2)H; every
    degree of H is = gamma = 0 (mod k - 1) and the degrees of H sum to
    gamma0 = k - 1.  One vertex of H would then have degree k - 1 and
    every other degree 0, which no multigraph has.
    """
    label, data = classify(n, k)
    if label is CaseLabel.R_NONZERO and data.gamma == 0 and data.gamma0 == k - 1:
        return johnson_bound(n, k, 3) - 1
    if label in (CaseLabel.DESIGN, CaseLabel.R_NONZERO):
        return johnson_bound(n, k, 3)
    if label is CaseLabel.Q_NONZERO:
        return johnson_bound(n, k, 3) - 3
    bound = j_prime(n, k)
    if k % 6 == 0 and k >= 12 and data.p == 2:
        bound -= n // (3 * k**3)
    return bound

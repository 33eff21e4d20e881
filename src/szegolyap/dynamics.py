"""Base dynamics on T x Z_2 and the Verblunsky coefficient generators.

The base system T(theta, j) = (theta + alpha, j + 1) is the product of an
irrational rotation on the 1-torus with the flip on Z_2 (``Rotation.orbit``).
Coefficient generators map phase points to values in the open unit disk.
The cocycle engine is generic over anything with an ``evaluate_grid(thetas,
j)`` method, whose parity ``j`` is a scalar or an integer array broadcasting
with the angles ``thetas`` and whose values broadcast to their shape.  A
family's eps (and lambda) given as a sequence makes a column generator of
one row per entry, each with the bits of its own scalar generator; a
sequence of generators is stacked along the rows (``_Rows``).  A generator
whose parity-1 values are the conjugates of its parity-0 values, bit for
bit, may say so with a true ``conjugate_parity``; an object without the
attribute is read as false.  A generator keeps |f| <= 1 up to rounding
and gives its prefactor (1 - |f|^2)^(-1/2) in closed form: it states it as
``prefactor``, a float or an array broadcasting with its values, or, with
no ``prefactor``, fills it per value into the float array of its values'
full shape that its ``evaluate_grid`` takes as ``rho``.
``evaluate(g, thetas, j)`` returns the values with their prefactors.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

# Golden-mean conjugate, the canonical badly approximable rotation number.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

TWO_PI = 2.0 * math.pi


class AdmissibilityError(ValueError):
    """A coefficient generator produced (or would produce) a value outside D."""


@dataclass(frozen=True)
class Rotation:
    """Rotation number alpha in (0, 1); irrational in exact arithmetic."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def orbit(self, theta0s, j0, ms):
        """T^m (theta0, j0) for the steps m in ``ms``, broadcast: theta0 + m
        alpha less its floor (``% 1.0`` bit for bit), and (j0 + m) mod 2."""
        thetas = theta0s + ms * self.alpha
        thetas -= np.floor(thetas)
        return thetas, (j0 + ms) % 2


def _per_row(g, name, convert):
    """Field ``name`` of ``g`` read by ``convert``, stored back, as a tuple of
    its values and its rows: a sequence (a list, a tuple or an array) gives
    one value per row and its length, a lone value a 1-tuple and None."""
    value = getattr(g, name)
    if not isinstance(value, (list, tuple, np.ndarray)) or np.ndim(value) == 0:
        object.__setattr__(g, name, value := convert(value))
        return (value,), None
    if not (values := tuple(map(convert, value))):
        raise ValueError(f"{name} needs one value per row, got an empty sequence")
    object.__setattr__(g, name, values)
    return values, len(values)


def _set_columns(g, rows, **constants):
    """Set ``g.rows`` and each of ``constants``, a list of one value per row:
    a (rows, 1) column, or its lone value where there is one row, so that a
    one-row column evaluates as its scalar generator (at one element, numpy
    rounds a complex product with a broadcast operand differently)."""
    object.__setattr__(g, "rows", rows)
    for name, values in constants.items():
        object.__setattr__(g, name, values[0] if len(values) == 1 else np.array(values)[:, None])


def _family_k(epsilons, k) -> int:
    """Check a family's epsilons, each in (0, 1), and read its k by
    ``operator.index``: ints and numpy integers pass, anything else is a
    ValueError."""
    for epsilon in epsilons:
        if not (0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None


def _phase(thetas, j, k):
    """e^(2 pi i k theta), one exponential per angle, broadcast against the
    parities j and conjugated where j = 1: bit for bit e^(-2 pi i k theta)."""
    w = np.exp(1j * TWO_PI * k * np.asarray(thetas, dtype=float))
    if np.ndim(j) == 0:  # one parity for every angle: no mask, no copy
        return w.conj() if j == 1 else w
    return np.where(np.asarray(j) == 1, w.conj(), w)


@dataclass(frozen=True)
class ExpGenerator:
    """Simple-exponential coefficients (1 - eps^2)^(1/2) e^(+-2 pi i k theta).

    The phase sign is + for parity j = 0 and - for j = 1.  ``epsilon`` is a
    float, or a tuple of one per row: a column generator of ``rows`` rows.
    """

    epsilon: float
    k: int

    # f(theta, 1) = conj f(theta, 0) bit for bit (``_phase``); read by the
    # phase average, whose parity-1 orbits are then conjugates of parity-0 ones.
    conjugate_parity = True

    def __post_init__(self):
        eps, rows = _per_row(self, "epsilon", float)
        if _family_k(eps, self.k) == 0:
            raise ValueError("k must be a nonzero integer")
        # The modulus m = (1 - eps^2)^(1/2), and the prefactor (1 - |f|^2)^(-1/2)
        # = 1/eps in closed form: one rounding, where the rounded f may lie
        # on the unit circle once eps is below about 1e-8.
        _set_columns(self, rows, modulus=[math.sqrt(1.0 - e**2) for e in eps],
                     prefactor=[1.0 / e for e in eps])

    def evaluate_grid(self, thetas, j):
        """Vectorized evaluation at angles ``thetas`` and parities ``j`` (a
        scalar or an integer array broadcasting with ``thetas``), by ``_phase``."""
        return self.modulus * _phase(thetas, j, self.k)


def lambda_max(epsilon: float, coeffs) -> float:
    """Sufficient admissibility radius for the perturbation coupling.

    |lambda| below this value forces the perturbed coefficients into D,
    by the triangle inequality:
    (1 - eps^2)^(1/2) (1 + |lambda| sum|a_l|) < 1.  Returns +inf for an
    empty (or all-zero) perturbation, and raises ValueError for a
    non-finite a_l.  This is a sufficient bound, not the exact supremum;
    dense sampling gives the sharp check in tests.

    The radius (1/m - 1) / sum|a_l|, m = (1 - eps^2)^(1/2), is evaluated as
    eps^2 / (m (1 + m) sum|a_l|): the difference 1/m - 1 cancels to 0 in
    double precision once eps is below about 1e-8.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not np.isfinite(coeffs).all():
        raise ValueError(f"perturbation coefficients must be finite, got {list(coeffs)}")
    total = float(sum(abs(complex(a)) for a in coeffs))
    if total == 0.0:
        return math.inf
    m = math.sqrt(1.0 - epsilon**2)
    return epsilon**2 / (m * (1.0 + m) * total)


@dataclass(frozen=True)
class PerturbedGenerator:
    """Perturbed exponential: e^(2 pi i k theta) + lambda * trig polynomial.

    ``coeffs`` holds the 2k perturbation coefficients a_l for
    l = -k, ..., k - 1; for parity j = 1 every phase is negated.
    ``epsilon`` and ``lam`` are each a number, serving every row, or a tuple
    of one per row: a column generator of ``rows`` rows.
    Construction rejects couplings outside the sufficient admissibility
    radius, so evaluation stays inside the unit disk.

    With w = e^(+-2 pi i theta) and m = (1 - eps^2)^(1/2), the value is

        f = m (w^k + lambda sum_l a_l w^l) = m w^-k P(w),
        P(w) = w^(2k) + lambda sum_l a_l w^(l + k),

    a polynomial of degree 2k with P(0) = lambda a_-k: the form Herman's
    subharmonicity argument uses.  ``evaluate_grid`` takes one complex
    exponential per angle (``_phase``), evaluates L = lambda sum_l a_l w^l
    by Horner's rule, in w for the powers 0..k - 1 and in conj(w) = 1/w for
    the powers -1..-k, and b = w^k by k - 1 products, and returns m (b + L);
    a value depends only on its own angle and parity.

    The prefactor comes from the same L and b in closed form.  As |b| = 1,

        |f|^2 = m^2 |b + L|^2 = m^2 (1 + 2 Re(conj(b) L) + |L|^2),
        1 - |f|^2 = eps^2 - m^2 Re((2 b + L) conj(L)),

    with (2 b + L) conj(L) = 2 b conj(L) + |L|^2.  The 1 of |f|^2 is never
    formed, so nothing cancels against it: as |L| < lambda_max sum|a_l| =
    1/m - 1, the second term is below m^2 ((1 + |L|)^2 - 1) < eps^2, and the
    rounding of m, b and L moves 1 - |f|^2 by a few k units of 2^-53 eps^2.
    Admissibility is tested on this 1 - |f|^2 (> 0, which a NaN fails), not
    on |f| < 1: once eps is below about 1e-8, m rounds to 1 and a rounded f
    may leave the disk by rounding while the exact one lies inside, and
    1 - |f|^2 from the rounded f cancels to 0 or garbage.  Only |f| <= 1 up
    to rounding remains, which is all the engine's finiteness proof uses.
    """

    epsilon: float
    k: int
    lam: complex
    coeffs: tuple

    def __post_init__(self):
        eps, eps_rows = _per_row(self, "epsilon", float)
        lams, lam_rows = _per_row(self, "lam", complex)
        if _family_k(eps, self.k) < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "coeffs", coeffs := tuple(complex(a) for a in self.coeffs))
        if len(coeffs) != 2 * self.k:
            raise ValueError(f"need 2k = {2 * self.k} coefficients, got {len(coeffs)}")
        if eps_rows and lam_rows and eps_rows != lam_rows:
            raise ValueError(f"{eps_rows} epsilons for {lam_rows} couplings")
        # One radius per epsilon, then eps and lambda one per row; lambda = 0 is
        # the unperturbed family, admissible even where the radius underflows to 0.
        radii = {e: lambda_max(e, coeffs) for e in eps}
        rows = eps_rows or lam_rows
        eps, lams = (v * ((rows or 1) // len(v)) for v in (eps, lams))
        for e, lam in zip(eps, lams):
            if not np.isfinite(lam):
                raise ValueError(f"lambda must be finite, got {lam}")
            if lam != 0 and abs(lam) >= radii[e]:
                raise AdmissibilityError(f"|lambda| = {abs(lam)} exceeds the admissible "
                                         f"radius {radii[e]} at epsilon = {e}")
        # The modulus m = (1 - eps^2)^(1/2), the couplings lambda a_l, l = -k,
        # ..., k - 1, per l, and eps^2.  The products are formed in Python:
        # numpy's complex multiply rounds differently.
        c = [[lam * a for lam in lams] for a in coeffs]
        _set_columns(self, rows, modulus=[math.sqrt(1.0 - e**2) for e in eps],
                     _eps2=[e**2 for e in eps])
        object.__setattr__(self, "_couplings", [cl[0] for cl in c] if len(lams) == 1
                           else np.array(c)[..., None])
        # f(theta, 1) = conj f(theta, 0) bit for bit: Horner's +, x and
        # conj(w) commute with conjugation when every lambda a_l is real.
        object.__setattr__(self, "conjugate_parity", not any(x.imag for cl in c for x in cl))

    def evaluate_grid(self, thetas, j, rho=None):
        """The values at angles ``thetas`` and parities ``j``; where a float
        array ``rho`` of their shape is given, it is filled with their
        prefactors (1 - |f|^2)^(-1/2) from the closed form."""
        m, c, eps2 = self.modulus, self._couplings, self._eps2
        w = _phase(thetas, j, 1)
        wbar = np.conjugate(w)
        # Each product has its own out= array, so a value never depends on its
        # batch: numpy rounds a complex product differently in place (one
        # element) or with swapped operands (reusing a temporary, >= 256 KiB).
        pos, neg, spare = np.empty_like(w), np.empty_like(w), np.empty_like(w)
        # L = sum_{l >= 0} c_l w^l by Horner in w ...
        lam_p = c[-1]
        for cl in reversed(c[self.k:-1]):
            np.multiply(w, lam_p, out=spare)
            lam_p = np.add(spare, cl, out=pos)
        # ... plus sum_{l < 0} c_l w^l by Horner in conj(w).
        np.multiply(wbar, c[0], out=neg)
        for cl in c[1:self.k]:
            np.add(neg, cl, out=spare)
            np.multiply(spare, wbar, out=neg)
        lam_p = np.add(neg, lam_p, out=spare)
        b = w  # w^k, its last product in pos
        for i in range(1, self.k):
            b = np.multiply(b, w, out=(pos, neg)[(self.k - 1 - i) % 2])
        np.add(b, lam_p, out=wbar)
        vals = np.multiply(wbar, m, out=neg)
        # 1 - |f|^2 = eps^2 - m^2 Re(h conj(L)), h = 2 b + L = (b + L) + b,
        # summed in the real parts of h.
        h = np.add(wbar, b, out=wbar)
        rem = np.multiply(h.real, lam_p.real, out=h.real)
        rem += np.multiply(h.imag, lam_p.imag, out=h.imag)
        rem *= 1.0 - eps2
        rem = np.subtract(eps2, rem, out=rem if rho is None else rho)
        worst = rem.min()
        if not worst > 0.0:  # NaN values fail too
            raise AdmissibilityError(
                f"coefficient value with 1 - |f|^2 = {worst} escaped the unit disk"
            )
        if rho is not None:
            np.divide(1.0, np.sqrt(rho, out=rho), out=rho)
        return vals


class _Rows:
    """A stack of generators along the row axis of orbits shaped (..., rows,
    N): a column generator takes its ``rows`` rows, any other generator one.
    One call per generator, on its own rows; it fills ``rho`` with each
    one's prefactors (``evaluate``)."""

    def __init__(self, gens, rows: int):
        self.parts, lo = [], 0
        for g in gens:
            size = getattr(g, "rows", None)
            self.parts.append((lo if size is None else slice(lo, lo + size), g))
            lo += size or 1
        if lo != rows:
            raise ValueError(f"generators of {lo} rows for {rows} rows of orbits")

    def evaluate_grid(self, thetas, j, rho):
        thetas, j = np.broadcast_arrays(thetas, j)
        out = np.empty(thetas.shape, dtype=complex)
        for rows, g in self.parts:
            out[..., rows, :], rho[..., rows, :] = evaluate(g, thetas[..., rows, :], j[..., rows, :])
        return out


def evaluate(g, thetas, j):
    """The values of ``g`` at the angles ``thetas`` and parities ``j``, from
    one ``g.evaluate_grid`` call, and their prefactors (1 - |f|^2)^(-1/2),
    broadcasting with them.  The values come as a C-contiguous complex array
    of the shape of (thetas, j), copied into one only if they merely
    broadcast to it.  The prefactors are ``g``'s stated ``prefactor``, else
    filled in by the call (into a fresh array, so each gets the bits of a
    call on its own); a ``g`` with neither is a TypeError."""
    shape = np.broadcast(thetas, j).shape
    rho = getattr(g, "prefactor", None)
    if rho is None:
        rho = np.empty(shape)
        vals = g.evaluate_grid(thetas, j, rho=rho)
    else:
        vals = g.evaluate_grid(thetas, j)
    if not (isinstance(vals, np.ndarray) and vals.shape == shape and vals.flags.c_contiguous):
        vals = np.broadcast_to(vals, shape).astype(complex, order="C")
    return vals, rho


@dataclass(frozen=True)
class ConstantGenerator:
    """Constant coefficient in D; handy for exact-value tests.  Its prefactor
    (1 - |v|^2)^(-1/2) is stated in closed form: 1 - |v|^2 exact in rationals,
    rounded once, at construction."""

    value: complex

    def __post_init__(self):
        # Imported here: no command builds a constant generator, so importing
        # the package need not load fractions (and with it decimal).
        from fractions import Fraction
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if not (abs(v) < 1.0 and (rem := 1 - Fraction(v.real) ** 2 - Fraction(v.imag) ** 2) > 0):
            raise AdmissibilityError(f"|value| = {abs(v)} is not < 1")
        object.__setattr__(self, "prefactor", float(rem) ** -0.5)

    def evaluate_grid(self, thetas, j):
        return np.full(np.broadcast(thetas, j).shape, self.value, dtype=complex)

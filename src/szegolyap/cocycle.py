"""Szego cocycle matrices and renormalized orbit products.

The one-step matrix at a finite spectral parameter z and coefficient value
f in D is

    A = (1 - |f|^2)^(-1/2) [[z, -conj(f)], [-f z, 1]],

with det A = z, an element of U(1,1) where |z| = 1.  The prefactor rho =
(1 - |f|^2)^(-1/2) comes with the values (``dynamics.evaluate``), in closed
form from the generator: 1/eps for the exponential family, per value from
the Horner pass that gives f for the perturbed one, exact in rationals for
a constant.  Orbit products are
renormalized by exact powers of two, whose exponents are summed per
orbit, so products of any length never overflow and the scaling never
rounds.
"""

import math

import numpy as np

from .dynamics import AdmissibilityError, Rotation, _Rows, evaluate
from .mat2 import op_norm

# One-step matrices built per block of steps in grid_log_norms.  2048 take
# 128 KiB as a stack, about 350 KiB while being built: enough to spread the
# per-block Python overhead, few enough that peak memory barely moves.
BUDGET = 2048

# Orbits per tile in grid_log_norms.  A 32768-angle phase average at n = 2
# took 17.5/11.6/8.6/8.5/7.5 ms in tiles of 256/512/1024/2048/4096 (in
# process, 2-vCPU Xeon VM, numpy 2.4).  Wider tiles spread a tile's fixed
# cost further, but 1024 stays: the traced-peak tests bound a tile's memory.
TILE = 1024

# The exponent of an orbit product's largest part stays within +-SPAN
# between rescalings, far enough from both ends of the double range that
# op_norm's fourth powers neither overflow nor underflow.
SPAN = 200
LN2 = math.log(2.0)


class NumericalBlowupError(ArithmeticError):
    """An orbit product produced non-finite entries, or a read of it would."""


def szego_matrices(f, z, rho=None):
    """Stack of one-step cocycle matrices; ``f`` and ``z`` broadcast, and the
    real prefactors ``rho`` = (1 - |f|^2)^(-1/2) broadcast with them, as the
    generator gives them (``dynamics.evaluate``).  When None (the engine
    never leaves it so), rho is ((1 - |f|)(1 + |f|))^(-1/2) in doubles: 1 -
    |f| is exact for |f| >= 1/2, where 1 - |f|^2 from a rounded |f|^2
    cancels.  It is an AdmissibilityError unless |f| < 1; a NaN passes.
    Entry-major: a ``(..., 2, 2)`` view in which each entry is contiguous."""
    f, z = np.asarray(f, dtype=complex), np.asarray(z, dtype=complex)
    if f.shape != z.shape:
        f, z = np.broadcast_arrays(f, z)  # a ufunc's own broadcast rounds t z otherwise
    c = rho
    if c is None:
        a = np.abs(f)
        c = (1.0 - a) * (1.0 + a)
        if (c <= 0.0).any():
            raise AdmissibilityError("coefficient value with |f| >= 1 outside the unit disk")
        c **= -0.5
    out = np.empty((2, 2) + f.shape, dtype=complex)
    np.multiply(c, z, out=out[0, 0, ...])
    # Both off-diagonals from t = -c f: conj(t) is -c conj(f) (up to the sign
    # of a zero imaginary part, which no norm sees) and t z is -c f z.  A real
    # c enters a complex product with imaginary part 0, so c z and c f round
    # once per part whether c is a scalar, a column or an array.
    t = -c * f
    np.conjugate(t, out=out[0, 1, ...])
    np.multiply(t, z, out=out[1, 0, ...])
    out[1, 1] = c
    return out.transpose(*range(2, out.ndim), 0, 1)


def _check_finite(stack, m0):
    """Name the first step (row of ``stack``, counted from step m0 + 1)
    with a non-finite entry."""
    finite = np.isfinite(stack)
    if not finite.all():
        finite = np.all(finite, axis=tuple(range(1, stack.ndim)))
        step = m0 + int(np.argmin(finite)) + 1
        exc = NumericalBlowupError(f"non-finite entries at step {step}")
        exc.step = step  # grid_log_norms raises the earliest of its tiles'
        raise exc


def grid_log_norms(theta0s, j0, r: Rotation, g, zs, n: int, checkpoints=None):
    """log ||A^z_n(theta, j)|| for a batch of starting points.

    The one renormalized product engine: every estimator runs through it.
    The orbits are the (R, N) grid that the angles ``theta0s`` and the
    parities ``j0`` broadcast to, R = 1 if both are 1-D or scalar: N angles
    with a scalar or N parities, N angles against a column of R parities,
    shape (R, 1), or an (R, N) array of each.  ``g`` is one coefficient
    generator (a column generator has a row per entry) or a sequence of them
    stacked along the rows (``dynamics._Rows``), so that several families
    run as one batch; ``zs`` is a finite scalar or one per column.  Returns
    ``(log_norms, recorded)``, shaped like the orbits, where ``recorded[m]``
    holds the log norms after m steps for each m in ``checkpoints`` (all in
    1..n).
    Every SPAN // log2(8 c w) steps, c the largest prefactor of a block and
    w = max(|z|, 1/|z|), each orbit's product is scaled by the power of two
    that brings its largest real or imaginary part into [1/2, 1), and the
    exponents are summed per orbit.  Such a scaling is exact and commutes
    with every operation of the fold and of op_norm (away from underflow,
    at parts some 2^800 below the largest), so a read (a checkpoint, or
    step n) is a canonical form of the computed product's norm: with m, e
    = frexp(op_norm(product)) it records (E + e) log 2 + log m, E the
    exponents summed so far, and changes nothing.

    The orbits are folded over all n steps a tile at a time, all R rows of
    TILE // R columns (at least one).  A tile builds at most BUDGET
    one-step matrices per block and folds them step by step, in the same
    arithmetic at any block length.  A block makes one ``evaluate_grid``
    call per generator, giving the values with their prefactors
    (``dynamics.evaluate``), each row's its own, and c is the largest of
    those; a value and its prefactor depend only on their own angle and
    parity, so a result depends only on (theta0, j0, z, g, n): not on the
    rest of the batch, TILE, BUDGET, the checkpoints or the steps at which
    the product was rescaled, and is reproducible bit for bit.  A blowup
    names the earliest step of any tile with a non-finite one-step matrix;
    finite ones with c (1 + |z|^2)^(1/2) >= 2^254 raise NumericalBlowupError
    naming that bound (see ``_fold``).  A block's matrices are scanned for
    one only where 4 c w overflows: with |f| <= 1 up to rounding every entry
    is at most 2 c w in modulus, so a finite 4 c w proves them finite.
    """
    wanted = set(checkpoints) if checkpoints is not None else set()
    if n < 1 or not all(m in range(1, n + 1) for m in wanted):
        raise ValueError(f"n must be >= 1 and checkpoints in 1..n, got n = {n}, "
                         f"checkpoints {sorted(wanted)}")
    theta0s = np.atleast_1d(np.asarray(theta0s, dtype=float))
    shape = np.broadcast_shapes(np.shape(j0), theta0s.shape)
    theta0s, j0 = np.atleast_2d(theta0s, j0)
    rows, size = np.broadcast_shapes(theta0s.shape, j0.shape)
    g = _Rows(g, rows) if isinstance(g, (list, tuple)) else g
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.isfinite(zs).all():
        raise ValueError("spectral parameters zs must be finite")
    # w = max(1, |z|, 1/|z|) over the call, inf where 1/|z| overflows; see _fold.
    w = np.abs(zs)
    top, low = float(w.max(initial=1.0)), float(w.min(initial=math.inf))
    w, reach = max(top, 1.0 / low if low else math.inf), math.hypot(1.0, top)
    zs = np.broadcast_to(zs, size)
    cols = max(1, TILE // rows)
    recorded, blowups = {m: np.empty(shape) for m in sorted(wanted | {n})}, []
    # The fold's buffer, made once per call and cut to each tile: the
    # product and the halves of the next one.
    work = np.empty(12 * rows * min(cols, size), dtype=complex)
    for lo in range(0, size, cols):
        tile = slice(lo, lo + cols)
        try:
            _fold(*(a[:, tile] if a.shape[1] > 1 else a for a in (theta0s, j0)), r, g,
                  zs[tile], w, reach, n, {m: out.reshape(rows, size)[:, tile]
                                          for m, out in recorded.items()}, work)
        except NumericalBlowupError as exc:
            blowups.append(exc)
    if blowups:
        raise min(blowups, key=lambda exc: exc.step)
    _check_finite(recorded[n].reshape(1, -1), n - 1)  # the product of all n steps
    return (recorded[n].copy() if n in wanted else recorded.pop(n)), recorded


def _fold(theta0s, j0, r: Rotation, g, zs, w, reach, n: int, recorded, work):
    """Fold a tile's (R, columns) orbits into ``recorded`` in ``work``; see ``grid_log_norms``."""
    b = math.prod(shape := recorded[n].shape)
    # The running product and the two halves of the next one as component
    # rows: cur[r] holds row r of every orbit's matrix as a contiguous
    # (2, orbits) block.
    cur, p, q = work[:12 * b].reshape(3, 2, 2, b)
    if narrow := b <= TILE // 2:  # p and q as one (2, 2, 2, orbits) block
        pq, cur_k = work[4 * b:12 * b].reshape(2, 2, 2, b), cur[:, None]
    else:
        row0, row1 = cur
    # The product's real and imaginary parts per orbit, and the exponents
    # of the powers of two stripped from them so far.
    parts = cur.view(float).reshape(4, b, 2)
    exps = np.zeros(b, dtype=int)
    # A step moves the exponent of a product's largest part by less than
    # log2(8 c w), c the prefactor and w = max(|z|, 1/|z|): a part of a @ cur
    # is at most 2 sqrt(2) c w times cur's largest, and sigma_max, within
    # a factor sqrt(8) of the largest part, falls at most to sigma_min(a) =
    # |z| / sigma_max(a) >= 1 / (2 c w) times its value.  At z = 0 nothing
    # bounds the fall: a shift of SPAN + 1 rescales before every step.
    block = max(1, BUDGET // b)
    zs = np.broadcast_to(zs, (block, *shape))  # z at a block's shape, once per tile
    marks = iter(sorted(recorded))
    mark, room = next(marks), SPAN

    def read():
        """Record the log norm of the product of steps 1 .. mark."""
        m, e = np.frexp(op_norm(cur.transpose(2, 0, 1)))
        recorded[mark][...] = ((exps + e) * LN2 + np.log(m)).reshape(shape)

    for m0 in range(0, n, block):
        ms = np.arange(m0, min(m0 + block, n))[:, None, None]
        zs = zs[:len(ms)]  # the last block may be short
        vals, rho = evaluate(g, *r.orbit(theta0s, j0, ms))
        mats = szego_matrices(vals, zs, rho).reshape(-1, b, 2, 2)
        # The stack is finite if 4 c w is, c its largest prefactor, and only
        # then is it not scanned entry by entry.  A prefactor in closed form
        # comes with |f| <= 1 up to rounding (1/eps lies in (1, inf], the
        # perturbed family's is finite where its 1 - |f|^2 is > 0), so every
        # partial result of the entries is at most 2 c max(1, |z|).  A NaN
        # or infinite c fails the test, as z = 0 (w = inf) and |z| near
        # 2^1024 do.
        c = float(rho.max() if isinstance(rho, np.ndarray) else rho)
        vals = rho = None  # not held through the fold, whose reads set the peak
        if not 4.0 * c * w < math.inf:
            _check_finite(mats, m0)
        # A read's op_norm forms (p - q)^2 + 4 |r|^2 = F^2 - 4 |det|^2 <= F^2,
        # F = p + q the product's squared Frobenius norm, and no larger
        # partial result.  At a shift of at most SPAN the product's largest
        # part stays below 2^SPAN: F^2 < 2^806.  At SPAN + 1 every step
        # follows a rescaling, so F(a @ cur) <= F(a) F(cur) < 8 F(a) < 16 c^2
        # reach^2, as F(a) = c^2 (1 + |f|^2) (1 + |z|^2), reach = (1 + max(1,
        # |z|)^2)^(1/2): F^2 is finite while c reach < 2^254, and overflows past it.
        if not c * reach < 2.0**254:
            exc = NumericalBlowupError(
                f"prefactor {c:.6g} times (1 + max(1, |z|)^2)^(1/2) = {reach:.6g} "
                "reaches 2^254, past which op_norm's fourth powers overflow")
            exc.step = m0 + 1
            raise exc
        shift = math.ceil(min(SPAN + 1, math.log2(8.0 * c * w)))
        done, at = 0, mark - m0
        if not m0:  # a @ 1 = a, up to the signs of zeros, which no norm sees
            cur[...] = mats[0].transpose(1, 2, 0)
            done, room = 1, room - shift
        steps = mats[done:].transpose(0, 3, 2, 1)[..., None, :]  # a[r, k] as (k, r, 1, b)
        for i, a in enumerate(steps, done):
            if i == at:
                read()
                mark = next(marks)
                at = mark - m0
            if room < shift:  # the largest part back into [1/2, 1)
                e = np.frexp(np.abs(parts).max(axis=(0, 2)))[1]
                np.ldexp(parts, -e[:, None], out=parts)
                exps += e
                room = SPAN
            room -= shift
            # cur = a @ cur: row r of p + q is a[r, 0] row0 + a[r, 1] row1,
            # a first in every product.  numpy buffers both broadcast
            # operands of a multiply, so a tile of at most TILE // 2 orbits
            # forms p and q in one call, its 2 x 8 entries per orbit within
            # the 2 x 4 TILE that the two calls of a wider tile buffer at a
            # full one.  Either form multiplies the same entries in the same
            # order, and a11 is real with imaginary part +0, so a11 row1
            # rounds as row1 a11, the tests' row-by-row fold.
            if narrow:
                np.multiply(a, cur_k, out=pq)
            else:
                np.multiply(a[0], row0, out=p)
                np.multiply(a[1], row1, out=q)
            np.add(p, q, out=cur)
        # The next block's stack is built without this one held.
        mats = steps = a = None
    read()

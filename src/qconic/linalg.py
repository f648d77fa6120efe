"""Exact linear algebra over the rationals, on int rows.

Callers scale their coefficients to ints once (:func:`_to_int_rows` for
``QQ`` rows); :func:`qconic.localalg._level_blocks` blows matrices over a
number field up into int rows.  The exact rank :func:`rank_blockwise`
is a fraction-free elimination with gcd stripping; its one caller is the
exact level of :func:`qconic.localalg.truncated_quotient_dimension`.
Every exact kernel, a linear system's too
(:func:`qconic.numberfield.power_basis_solve` appends its right-hand
sides as columns), is the certified multi-prime kernel
:func:`kernel_basis_blockwise`, with a prime budget proven from
Hadamard's bound; the one other exact eliminator is the Bareiss solve
:func:`qconic.numberfield._solve_unit` behind a number-field inverse.
Full rank mod the first prime proves an empty kernel, which is how
:func:`qconic.freeness.mdr` skips the degrees without a relation.

:func:`rank_mod_p` is a lower bound on the rank over Q (a unit minor mod
p is a nonzero integer): it certifies a rank in
:func:`qconic.freeness.global_tjurina` when exact relations give the
matching upper bound, and the certified kernel's dimension gives the rank
there when they never do.  Every elimination mod p is a
:class:`GrowingRREF`: :func:`rank_mod_p` and each kernel prime feed it a
whole matrix in row blocks, and the level scan of
:func:`qconic.localalg.truncated_quotient_dimension` one block per level
to find the truncation level, where one exact rank then proves it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .rationals import QQ, clear_denominators
from .errors import QConicError

#: the word-size prime of the modular rank bound, and the first of the
#: modular kernel's primes, which go down to 2^_PRIME_BITS: each adds at
#: least _PRIME_BITS bits to the CRT modulus, and a product of two
#: residues fits an int64 with room to spare
PRIME = 999983
_PRIME_BITS = 19
_prime_memo = [PRIME]


# --------------------------------------------------------------- exact path

def _to_int_rows(rows):
    return [clear_denominators(r)[0] for r in rows]


def _strip_row(row):
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, abs(v))
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _int_echelon(rows):
    """Fraction-free row echelon over the integers.

    Returns (rank, pivot_cols, echelon_rows) where echelon_rows[i] has its
    pivot in column pivot_cols[i] and zeros in all earlier pivot columns
    below the staircase.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    echelon = []
    piv_cols = []
    active = [r for r in rows if any(r)]
    for col in range(ncols):
        best = None
        for idx, r in enumerate(active):
            if r[col]:
                if best is None or abs(r[col]) < abs(active[best][col]):
                    best = idx
        if best is None:
            continue
        piv = _strip_row(active.pop(best))
        pval = piv[col]
        tail = piv[col:]
        nxt = []
        for r in active:
            v = r[col]
            if v:
                # every active row is zero left of col: only its tail changes
                g = math.gcd(abs(pval), abs(v))
                a, b = pval // g, v // g
                new = _strip_row([a * x - b * y for x, y in zip(r[col:], tail)])
                if not any(new):
                    continue
                r = r[:col] + new
            nxt.append(r)
        active = nxt
        echelon.append(piv)
        piv_cols.append(col)
    return len(piv_cols), piv_cols, echelon


# ------------------------------------------------------------- modular path

def has_full_column_rank_certified(rows) -> bool:
    """True only with an exact certificate (a unit minor mod p).  No
    pipeline code calls it (:func:`qconic.freeness.mdr` reads full rank
    off the first prime of :func:`kernel_basis_blockwise`); it stays
    because the benchmark's span recorder wraps it by name."""
    rows = [list(r) for r in rows]
    return bool(rows) and len(rows) >= len(rows[0]) and rank_mod_p(
        _to_int_rows(rows), PRIME) == len(rows[0])


def rank_mod_p(rows, p: int) -> int:
    """Rank of an int matrix reduced mod the prime ``p`` < 2^20, the rank
    of its :func:`_rref_mod_p`.

    A lower bound on the rank over Q: a minor that is a unit mod p is a
    nonzero integer.  Callers never read it as more than that bound.
    """
    if not rows:
        return 0
    return _rref_mod_p(_int_array(rows), p).rank


def _int_array(rows):
    """An int matrix as an int64 array, or as an object array of Python
    ints when an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


class GrowingRREF:
    """The reduced row echelon form mod the prime ``p`` of a matrix that
    grows by blocks of rows, each of which may also bring new columns: a
    whole matrix in row blocks (:func:`_rref_mod_p`), or a level scan.

    The rows already held must vanish on the new columns of a block; then
    the grown matrix is [[M, 0], [B, C]], and the RREF of M, padded with
    zeros, still spans the rows of [M, 0].  So a block is reduced against
    the RREF with one matrix product, its remainder is put in RREF by
    Gauss-Jordan over its few rows, and the remainder's pivot columns are
    cleared from the old rows with one more product: the matrix itself is
    never rebuilt.  The rank mod p does not depend on the order of
    elimination, so :attr:`rank` is the rank mod p of the whole matrix
    after every block.  Each held row's first nonzero entry is its pivot,
    whose column is zero in the other rows, so the rows sorted by pivot
    (:meth:`reduced`) are the unique RREF, however the rows were blocked.

    The RREF is stored as int32 residues in an array that grows
    geometrically and is updated in place.  Residues are below 2^20, so
    a product of two is below 2^40, and a row sum of fewer than 2^23 such
    products, as every product here is, stays below 2^63 in int64.
    """

    def __init__(self, p: int):
        if not 1 < p < 1 << 20:
            raise ValueError("GrowingRREF needs a prime below 2^20")
        self.p = p
        self.rank = 0
        self._rows = np.zeros((0, 0), dtype=np.int32)
        self._pivots = np.zeros(0, dtype=np.intp)

    def add_rows(self, block) -> int:
        """Append ``block``, an int64 array of residues mod p with at least
        as many columns as every earlier block (the old rows are zero on
        the extra ones), and return the rank mod p.  ``block`` is
        overwritten."""
        p, r = self.p, self.rank
        nrows, ncols = block.shape
        if r + nrows >= 1 << 23:
            raise ValueError("2^23 rows or more: int64 row sums could overflow")
        self._reserve(r + nrows, ncols)
        old = self._rows[:r, :ncols]
        if r:
            coef = block[:, self._pivots]
            used = np.flatnonzero(coef.any(axis=0))
            if used.size:
                block -= coef[:, used] @ old[used]
                block %= p
        cols = np.flatnonzero(block.any(axis=0))
        sub = block[:, cols]
        keep, pivots = [], []
        for i in range(sub.shape[0]):
            if len(keep) == len(cols):
                break  # each column has its pivot: the other rows are zero
            nz = np.flatnonzero(sub[i])
            if not nz.size:
                continue
            c = nz[0]
            sub[i] = sub[i] * pow(int(sub[i, c]), -1, p) % p
            others = np.flatnonzero(sub[:, c])
            others = others[others != i]
            if others.size:
                sub[others] = (sub[others] - sub[others, c, None] * sub[i]) % p
            keep.append(i)
            pivots.append(c)
        if not keep:
            return r
        new, new_pivots = sub[keep], cols[pivots]
        if r:
            hit = np.flatnonzero(old[:, new_pivots].any(axis=1))
            if hit.size:
                at = np.ix_(hit, cols)
                old[at] = (old[at] - old[np.ix_(hit, new_pivots)] @ new) % p
        self._rows[r:r + len(keep), cols] = new
        self._pivots = np.concatenate([self._pivots, new_pivots])
        self.rank = r + len(keep)
        return self.rank

    def reduced(self):
        """The pivot columns, ascending, and the held RREF rows in that
        order, as int32 residues."""
        order = np.argsort(self._pivots)
        return self._pivots[order].tolist(), self._rows[:self.rank][order]

    def _reserve(self, nrows: int, ncols: int):
        # each dimension doubles when it runs out, so rows are copied
        # O(log) times in all
        held = self._rows.shape
        shape = tuple(have if need <= have else max(need, 2 * have)
                      for need, have in zip((nrows, ncols), held))
        if shape != held:
            grown = np.zeros(shape, dtype=np.int32)
            grown[:self.rank, :held[1]] = self._rows[:self.rank]
            self._rows = grown


#: rows per block in :func:`_rref_mod_p`: on the mdr matrices at d = 16
#: and 20, 16 was as fast as 8 and faster than 32, 64 and 128
_BLOCK_ROWS = 16


def _rref_mod_p(ints, p: int) -> GrowingRREF:
    """The RREF mod ``p`` of the :func:`_int_array` ``ints``: one
    :class:`GrowingRREF` fed its int64 residues, _BLOCK_ROWS rows a time."""
    echelon, ncols = GrowingRREF(p), ints.shape[1]
    residues = (ints % p).astype(np.int64, copy=False)
    for start in range(0, len(residues), _BLOCK_ROWS):
        # at full column rank the RREF is the identity: no row adds to it
        if echelon.add_rows(residues[start:start + _BLOCK_ROWS]) == ncols:
            break
    return echelon


def _kernel_primes():
    """The primes from PRIME down to 2^_PRIME_BITS, by trial division once."""
    for i in itertools.count():
        if i == len(_prime_memo):
            q = _prime_memo[-1] - 2
            while not all(q % k for k in range(3, math.isqrt(q) + 1, 2)):
                q -= 2
            if q < 1 << _PRIME_BITS:
                return
            _prime_memo.append(q)
        yield _prime_memo[i]


def _prime_budget(ints) -> int:
    """How many primes :func:`kernel_basis_blockwise` may try on ``ints``;
    ``bits`` >= log2 H, H = prod max(1, |row|) Hadamard's bound."""
    if ints.dtype == object:
        # ceil(bit_length / 2) >= log2 of the root of a squared norm
        bits = sum((int(s).bit_length() + 1) // 2
                   for s in (ints * ints).sum(axis=1))
    else:
        # float norms are off by a relative n 2^-53: far under the bit added
        norms = np.linalg.norm(ints.astype(np.float64), axis=1)
        bits = math.ceil(float(np.log2(np.maximum(norms, 1.0)).sum())) + 1
    return -(-(2 * bits + 1) // _PRIME_BITS) + bits // _PRIME_BITS


def _reconstruct(residues, modulus: int):
    """Ints ``w`` and ``den > 0`` with w_i = den * residues_i (mod
    ``modulus``) and every |w_i|, den at most sqrt(modulus / 2), or None.

    Rational reconstruction (von zur Gathen-Gerhard, *Modern Computer
    Algebra*, 5.10) runs only where the denominator found so far does not
    already give a small numerator, so a vector with one common
    denominator costs one half gcd."""
    bound = math.isqrt(modulus // 2)
    den, w = 1, []
    for a in residues:
        b = int(a) * den % modulus
        if modulus - b <= bound:
            b -= modulus
        elif b > bound:
            r0, r1, s0, s1 = modulus, b, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            den *= s1
            if den > bound:
                return None
            w = [x * s1 for x in w]
            b = r1
        w.append(b)
    return w, den


def _certified(rows, vectors, free) -> bool:
    """Checks (i) and (ii) of :func:`kernel_basis_blockwise`: every
    ``w / den`` is in the kernel of the int matrix ``rows``, and its last
    nonzero entry is its own free column, with value 1, among zeros at the
    other free columns."""
    for (w, den), fc in zip(vectors, free):
        if (w[fc] != den or any(w[fc + 1:])
                or any(w[c] for c in free if c != fc)):
            return False
    product = np.array(rows, dtype=object).dot(
        np.array([w for w, _ in vectors], dtype=object).T)
    return not any(product.flat)


# ------------------------------------------------------- entry points

def rank_blockwise(rows) -> int:
    """Exact rank of the int matrix ``rows``, by :func:`_int_echelon`, which
    divides each pivot and updated row by its gcd itself.  Its one caller
    is the exact level of the local algebras; the benchmark's span
    recorder wraps it by name, as it does :func:`kernel_basis_blockwise`."""
    return _int_echelon(rows)[0]


def kernel_basis_blockwise(rows):
    """The reduced kernel basis over Q of the int matrix M = ``rows``, in
    the order of its free columns, by a certified multi-prime kernel.

    The RREF of M mod p (:func:`_rref_mod_p`, read off with no
    back-substitution) gives, for each free column fc, the vector with 1
    at fc, 0 at the other free columns and the pivot values that put it
    in ker_p M.  The primes of :func:`_kernel_primes` are combined by the
    CRT, and after each one the vectors are rationally reconstructed and
    accepted only when (i) M v = 0 exactly over Z, and (ii) each v has its
    last nonzero entry, 1, at its own free column and 0 at the others.
    Then they are a basis of ker_Q M: by (ii) they are independent, by (i)
    in ker_Q M, and there are dim ker_p M >= dim ker_Q M of them (a unit
    minor mod p is a nonzero minor).  The last positions of the nonzero
    vectors of ker_Q M are the non-pivot columns of its RREF, and a kernel
    vector is fixed by its values there, so (ii) makes the basis the RREF
    basis of the exact elimination, in its order.  A prime with no free
    column proves an empty kernel.

    The i-th pivot mod p is never before the i-th over Q (a column prefix
    has rank mod p at most its rank over Q), so the pivots over Q are the
    least under the key (-len(pivots), pivots).  A prime with them is good
    (its RREF is that over Q mod p); any other divides the pivot minor
    over Q.  A prime with a lesser key than the best so far restarts the
    CRT, one with a greater key is skipped, so every good prime is
    combined.  By Cramer's rule the vectors are w / den with den and each
    |w_i| at most a minor, so at most Hadamard's bound H
    (:func:`_prime_budget`).  So ceil((2 log2 H + 1) / 19) good primes
    above 2^19, a modulus above 2 H^2, make the reconstruction unique (von
    zur Gathen-Gerhard, *Modern Computer Algebra*, 5.10), and at most
    floor(log2 H / 19) primes are bad: within that budget the checks pass,
    and past it the loop raises :class:`QConicError`, which by this bound
    never happens.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ints = _int_array(rows)
    best, budget = None, 1
    for tried, p in enumerate(_kernel_primes(), 1):
        if tried > budget:
            break
        pivots, reduced = _rref_mod_p(ints, p).reduced()
        if len(pivots) == ncols:
            return []  # rank_p is full, so rank over Q is too
        key = (-len(pivots), pivots)
        if best is None:
            # the kernel is nonempty mod p: only now is H worth its cost
            budget = _prime_budget(ints)
        elif key > best:
            continue  # a bad prime
        if key != best:
            # the first prime, or one that shows the earlier ones bad
            best, kernel, modulus = key, 0, 1
            free = sorted(set(range(ncols)) - set(pivots))
        # column fc: 1 at fc, 0 at the other free columns and minus the
        # RREF entry of each pivot row at fc
        k = np.zeros((ncols, len(free)), dtype=np.int64)
        k[pivots] = -reduced[:, free] % p
        k[free, range(len(free))] = 1
        # the CRT: residues mod modulus * p that agree with kernel and k
        inverse = pow(modulus, -1, p)
        lift = (k - np.asarray(kernel % p, dtype=np.int64)) * inverse % p
        kernel = kernel + modulus * lift.astype(object)
        modulus *= p
        vectors = [_reconstruct(col, modulus) for col in kernel.T]
        if all(vectors) and _certified(rows, vectors, free):
            return [tuple(QQ(x, den) for x in w) for w, den in vectors]
    raise QConicError(f"modular kernel did not certify in {budget} primes")

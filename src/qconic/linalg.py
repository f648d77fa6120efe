"""Exact linear algebra over the rationals.

Rows are scaled to integers and reduced by fraction-free elimination with
gcd stripping, so every certified rank and kernel vector is exact.  This
is the one exact eliminator: a linear system is solved as a kernel too
(:func:`qconic.numberfield.power_basis_solve` appends its right-hand
sides as columns).  Word-size primes serve two certificates.  The rank
:func:`rank_mod_p` is a lower bound on the rank over Q (a nonvanishing
minor mod p is nonvanishing over the rationals): it certifies a rank in
:func:`qconic.freeness.global_tjurina` when exact relations give the
matching upper bound.  :class:`GrowingRREF` keeps the same bound for a
matrix that grows by rows; it finds the truncation level of
:func:`qconic.localalg.truncated_quotient_dimension`, where one exact rank
then proves it.  The kernel of :func:`kernel_basis_blockwise` is
combined from RREFs modulo the primes of ``PRIMES`` by the CRT and
rational reconstruction, and accepted only after an exact check over Z
that also pins it to the exact basis; the exact elimination is its
fallback.  Full rank mod its first prime proves an empty kernel, which is
how :func:`qconic.freeness.mdr` skips the degrees without a relation.

Matrices are lists of rows with int or ``QQ`` entries.  Int rows are the
native input: the callers on the hot paths (the Jacobian map and the
local truncation matrices) scale their coefficients to ints once per curve
or generator, and int rows are only divided by their gcd here.  Rows with
``QQ`` entries are scaled once per row by the lcm of their denominators
(:func:`qconic.rationals.clear_denominators`).  Matrices over a number
field are reduced to this case by :func:`qconic.localalg._rank_over_field`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .rationals import QQ, clear_denominators

#: the word-size prime of the modular rank bound, and the first of the
#: primes of the modular kernel; all are below 2^20, so a residue product
#: fits an int64 with room to spare
PRIME = 999983
PRIMES = (PRIME, 999979, 999961, 999959, 999953, 999931, 999917, 999907,
          999883, 999863, 999853, 999809, 999773, 999769, 999763, 999749)


# ------------------------------------------------------------ rational path

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
        nxt = []
        for r in active:
            v = r[col]
            if v:
                g = math.gcd(abs(pval), abs(v))
                a, b = pval // g, v // g
                r = _strip_row([a * x - b * y for x, y in zip(r, piv)])
                if not any(r):
                    continue
            nxt.append(r)
        active = nxt
        echelon.append(piv)
        piv_cols.append(col)
    return len(piv_cols), piv_cols, echelon


def kernel_basis_rational(rows):
    int_rows = _to_int_rows(rows)
    ncols = len(int_rows[0])
    _, piv_cols, echelon = _int_echelon(int_rows)
    free_cols = [c for c in range(ncols) if c not in set(piv_cols)]
    basis = []
    for fc in free_cols:
        v = [QQ(0)] * ncols
        v[fc] = QQ(1)
        # echelon rows are in increasing pivot-column order; solve bottom-up
        for i in range(len(echelon) - 1, -1, -1):
            row = echelon[i]
            pc = piv_cols[i]
            s = QQ(0)
            for c in range(pc + 1, ncols):
                if row[c] and v[c]:
                    s += QQ(row[c]) * v[c]
            v[pc] = -s / row[pc]
        basis.append(tuple(v))
    return basis


# ------------------------------------------------------------- modular path

def has_full_column_rank_certified(rows) -> bool:
    """True only with an exact certificate (a unit minor mod p); False means
    "maybe not" and callers must fall back to exact elimination.

    No pipeline code calls it: :func:`qconic.freeness.mdr` reads full rank
    off the first prime of :func:`kernel_basis_blockwise`.  It stays only
    because the benchmark's span recorder wraps it by name; deleting it
    waits for the declared benchmark change that moves that recorder."""
    rows = [list(r) for r in rows]
    if not rows:
        return False
    ncols = len(rows[0])
    if len(rows) < ncols:
        return False
    return rank_mod_p(_to_int_rows(rows), PRIME) == ncols


def rank_mod_p(rows, p: int) -> int:
    """Rank of an int matrix reduced mod the prime ``p``.

    A lower bound on the rank over Q: a minor that is a unit mod p is a
    nonzero integer.  Callers never read it as more than that bound.
    """
    if not rows:
        return 0
    return len(_echelon_mod_p(_residues(_int_array(rows), p), p))


def _int_array(rows):
    """An int matrix as an int64 array, or as an object array of Python
    ints when an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _residues(array, p: int):
    """The entries of an :func:`_int_array` mod ``p``, as int64."""
    return (array % p).astype(np.int64, copy=False)


def _echelon_mod_p(m, p: int) -> list:
    """Row-reduce the int64 residues ``m`` mod ``p`` in place to echelon
    form with unit pivots; return the pivot columns."""
    nrows, ncols = m.shape
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, col])
        if nz.size == 0:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        # rows r and below vanish left of col, so only col: changes
        m[r, col:] = m[r, col:] * pow(int(m[r, col]), -1, p) % p
        below = r + nz[1:]
        if below.size:
            m[below, col:] = (m[below, col:]
                              - m[below, col, None] * m[r, col:]) % p
        pivots.append(col)
    return pivots


class GrowingRREF:
    """The reduced row echelon form mod the prime ``p`` of a matrix that
    grows by blocks of rows, each of which may also bring new columns.

    The rows already held must vanish on the new columns of a block; then
    the grown matrix is [[M, 0], [B, C]], and the RREF of M, padded with
    zeros, still spans the rows of [M, 0].  So a block is reduced against
    the RREF with one matrix product, its remainder is put in RREF by
    Gauss-Jordan over its few rows, and the remainder's pivot columns are
    cleared from the old rows with one more product: the matrix itself is
    never rebuilt.  The rank mod p does not depend on the order of
    elimination, so :attr:`rank` is the rank mod p of the whole matrix
    after every block.

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


def _kernel_mod_primes(rows):
    """The reduced kernel basis of the int matrix ``rows`` from its RREF
    modulo the primes of ``PRIMES``, certified over Q; None when the primes
    run out first.  See :func:`kernel_basis_blockwise` for the proof."""
    ncols = len(rows[0])
    ints = _int_array(rows)
    free, kernel, modulus = None, 0, 1
    for p in PRIMES:
        m = _residues(ints, p)
        pivots = _echelon_mod_p(m, p)
        free_p = sorted(set(range(ncols)) - set(pivots))
        if free is None:
            if not free_p:
                return []  # rank_p is full, so rank over Q is too
            free = free_p
        elif free_p != free:
            continue
        # the RREF at the free columns, by back-substitution through the
        # unit upper triangular pivot block; sums of fewer than 2^23
        # products of residues stay below 2^63
        rref = m[:len(pivots)][:, free]
        for i in range(len(pivots) - 2, -1, -1):
            rref[i] = (rref[i] - m[i, pivots[i + 1:]] @ rref[i + 1:]) % p
        # column fc: 1 at fc, 0 at the other free columns and minus the
        # RREF entry of each pivot row at fc
        k = np.zeros((ncols, len(free)), dtype=np.int64)
        k[pivots] = -rref % p
        k[free, range(len(free))] = 1
        # the CRT: residues mod modulus * p that agree with kernel and k
        inverse = pow(modulus, -1, p)
        lift = (k - np.asarray(kernel % p, dtype=np.int64)) * inverse % p
        kernel = kernel + modulus * lift.astype(object)
        modulus *= p
        vectors = [_reconstruct(col, modulus) for col in kernel.T]
        if all(vectors) and _certified(rows, vectors, free):
            return [tuple(QQ(x, den) for x in w) for w, den in vectors]
    return None


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


# ------------------------------------------------------- block decomposition

def split_components(rows):
    """Connected components of the bipartite row/column support graph.

    Returns a list of (row_indices, col_indices) pairs, in the order of
    their first columns; rank and kernel computations decompose across
    them.  Zero rows are dropped; columns with empty support form
    singleton components (free kernel directions).

    Each column carries a label, a column of its own component no later
    than itself.  A sweep lowers the label of every column, and of every
    column named as a label, to the least label on a row through it, then
    replaces each label by its own label.  Labels only fall, and a sweep
    that changes none leaves one label on every row, hence on every
    component: its first column.
    """
    if not rows or not len(rows[0]):
        return []
    r, c = np.nonzero(np.array(rows, dtype=bool))
    label = np.arange(len(rows[0]))
    starts = np.flatnonzero(np.diff(r, prepend=-1))   # each row's first entry
    while r.size:
        low = np.repeat(np.minimum.reduceat(label[c], starts),
                        np.diff(starts, append=r.size))
        new = label.copy()
        np.minimum.at(new, c, low)
        np.minimum.at(new, label[c], low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    comps = {}   # a component's first column is the first to carry its label
    for j, first in enumerate(label.tolist()):
        comps.setdefault(first, ([], []))[1].append(j)
    for i, first in zip(r[starts].tolist(), label[c[starts]].tolist()):
        comps[first][0].append(i)
    return list(comps.values())


def rank_blockwise(rows) -> int:
    """Exact rational rank via independent support components.

    A component of int rows goes to :func:`_int_echelon` as it is, which
    divides each pivot and updated row by its gcd itself; only rows with
    ``QQ`` entries are scaled by :func:`_to_int_rows`."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    total = 0
    for ridx, cols in split_components(rows):
        if not ridx:
            continue
        sub = [[rows[i][j] for j in cols] for i in ridx]
        if not set(map(type, itertools.chain.from_iterable(sub))) <= {int}:
            sub = _to_int_rows(sub)
        rk, _, _ = _int_echelon(sub)
        total += rk
    return total


def kernel_basis_blockwise(rows):
    """The kernel basis of :func:`kernel_basis_rational`, in its order,
    one support component at a time, by a certified multi-prime kernel.

    Per component, with M its int matrix: the RREF of M mod p gives, for
    each free column fc, the vector with 1 at fc, 0 at the other free
    columns and the pivot values that put it in ker_p M.  The primes of
    ``PRIMES`` are combined by the CRT, and after each one the vectors are
    rationally reconstructed.  A prime whose free columns differ from the
    first prime's is dropped.  The vectors are accepted only when

    (i) M v = 0 exactly over Z, after clearing denominators, and
    (ii) each v has its last nonzero entry, equal to 1, at its own free
         column fc, and 0 at the other free columns.

    Then they are a basis of ker_Q M: by (ii) their last positions differ,
    so they are independent; by (i) they lie in ker_Q M; and there are
    dim ker_p M >= dim ker_Q M of them, as rank_p M <= rank_Q M (a unit
    minor mod p is a nonzero minor).  The set of last positions of the
    nonzero vectors of ker_Q M is an invariant, the non-pivot columns of
    the RREF over Q, and a kernel vector is fixed by its values on those
    columns, so (ii) makes the basis exactly the one
    :func:`kernel_basis_rational` returns, in the same order.  An empty
    kernel mod the first prime proves an empty kernel over Q.  When the
    primes run out first, the component is eliminated exactly by
    :func:`kernel_basis_rational`: a bad prime costs time, never the
    answer.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    for ridx, cols in split_components(rows):
        if not ridx:
            for j in cols:
                v = [QQ(0)] * ncols
                v[j] = QQ(1)
                basis.append(tuple(v))
            continue
        sub = _to_int_rows([[rows[i][j] for j in cols] for i in ridx])
        kernel = _kernel_mod_primes(sub)
        for kv in kernel_basis_rational(sub) if kernel is None else kernel:
            v = [QQ(0)] * ncols
            for j, val in zip(cols, kv):
                v[j] = val
            basis.append(tuple(v))
    return basis

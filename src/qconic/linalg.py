"""Exact linear algebra over the rationals.

Rows are scaled to integers and reduced by fraction-free elimination with
gcd stripping, so every certified rank and kernel vector is exact.  This
is the one exact eliminator: a linear system is solved as a kernel too
(:func:`qconic.numberfield.power_basis_solve` appends its right-hand
sides as columns).  The modular rank :func:`rank_mod_p` (over a
word-size prime) is only ever read as a lower bound on the rank: a
nonvanishing minor mod p is nonvanishing over the rationals.  It
certifies *full column rank* here, and a rank in
:func:`qconic.freeness.global_tjurina` when exact relations give the
matching upper bound; otherwise the exact elimination runs.

Matrices are lists of rows with int or ``QQ`` entries.  Int rows are the
native input: the callers on the hot paths (the Jacobian map and the
local truncation matrices) scale their coefficients to ints once per form
or generator, and int rows are only divided by their gcd here.  Rows with
``QQ`` entries are scaled once per row by the lcm of their denominators
(:func:`qconic.rationals.clear_denominators`).  Matrices over a number
field are reduced to this case by :func:`qconic.localalg._rank_over_field`.
"""

from __future__ import annotations

import math

import numpy as np

from .rationals import QQ, clear_denominators

#: the word-size prime of the modular rank bound
PRIME = 999983


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
    "maybe not" and callers must fall back to exact elimination."""
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
    m = np.array([[v % p for v in r] for r in rows], dtype=np.int64)
    nrows, ncols = m.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, col]), p - 2, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1:, col] != 0
        if below.any():
            factors = m[r + 1:, col][below][:, None]
            m[r + 1:][below] = (m[r + 1:][below] - factors * m[r][None, :]) % p
        r += 1
    return r


# ------------------------------------------------------- block decomposition

def split_components(rows):
    """Connected components of the bipartite row/column support graph.

    Returns a list of (row_indices, col_indices) pairs; rank and kernel
    computations decompose across them.  Zero rows are dropped; columns
    with empty support form singleton components (free kernel directions).
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    parent = list(range(ncols))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    supports = []
    for r in rows:
        sup = [j for j, v in enumerate(r) if v]
        supports.append(sup)
        for j in sup[1:]:
            union(sup[0], j)
    groups: dict[int, list[int]] = {}
    for j in range(ncols):
        groups.setdefault(find(j), []).append(j)
    comps = []
    for cols in groups.values():
        colset = set(cols)
        ridx = [i for i, sup in enumerate(supports) if sup and sup[0] in colset]
        comps.append((ridx, sorted(cols)))
    comps.sort(key=lambda rc: rc[1][0])
    return comps


def rank_blockwise(rows) -> int:
    """Exact rational rank via independent support components."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    total = 0
    for ridx, cols in split_components(rows):
        if not ridx:
            continue
        sub = [[rows[i][j] for j in cols] for i in ridx]
        rk, _, _ = _int_echelon(_to_int_rows(sub))
        total += rk
    return total


def kernel_basis_blockwise(rows):
    """Exact rational kernel basis via independent support components."""
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
        sub = [[rows[i][j] for j in cols] for i in ridx]
        for kv in kernel_basis_rational(sub):
            v = [QQ(0)] * ncols
            for j, val in zip(cols, kv):
                v[j] = val
            basis.append(tuple(v))
    return basis

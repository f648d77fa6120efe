"""Dense univariate polynomial arithmetic over exact scalars.

A polynomial is a list of coefficients indexed by degree with no trailing
zeros; the zero polynomial is the empty list.  Coefficients are ``QQ``;
:func:`evaluate` also takes a :class:`qconic.numberfield.FieldElement`
point (the fiber point P(xi)/L(xi) of a conic pair).  :func:`add`,
:func:`sub`, :func:`mul`, :func:`divmod_poly` and :func:`gcd` use only
exact field arithmetic and would work over a number field too, but every
gcd the program runs is over Q.  The real-root routines need ordered
``QQ`` coefficients; Sturm chains only count roots, in isolation, and an
isolated root is refined by the sign of p.  Every sign is taken on ints:
a polynomial (or chain member) is scaled to ints by a positive factor,
never by a sign flip, and p(a/b) has the sign of sum c_i a^i b^(n-i),
evaluated by int Horner (von zur Gathen-Gerhard, *Modern Computer
Algebra*, ch. 5).  The bisection endpoints themselves stay ``QQ``.
Everything here is exact; these routines back the root-isolation and
number-field layers.
"""

from __future__ import annotations

from .rationals import QQ, ZERO, ONE, clear_denominators

Poly = list  # coefficients, index = degree


def strip(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def from_coeffs(coeffs) -> Poly:
    return strip([QQ(c) for c in coeffs])


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [ZERO] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return strip(out)


def sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [ZERO] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    return strip(out)


def neg(p: Poly) -> Poly:
    return [-c for c in p]


def scale(p: Poly, c) -> Poly:
    c = QQ(c)
    if not c:
        return []
    return [x * c for x in p]


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return strip(out)


def divmod_poly(p: Poly, q: Poly):
    """Exact quotient and remainder over the coefficient field."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    lead = q[-1]
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    while len(r) >= len(q):
        c = r[-1] / lead
        k = len(r) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            r[i + k] -= c * b
        strip(r)
    return strip(quot), r


def rem(p: Poly, q: Poly) -> Poly:
    return divmod_poly(p, q)[1]


def monic(p: Poly) -> Poly:
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = list(p), list(q)
    while b:
        a, b = b, rem(a, b)
    return monic(a)


def derivative(p: Poly) -> Poly:
    return strip([p[i] * i for i in range(1, len(p))])


def evaluate(p: Poly, x):
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def shift(p: Poly, a) -> Poly:
    """Taylor shift: returns q with q(x) = p(x + a)."""
    a = QQ(a)
    out = list(p)
    n = len(out)
    # synthetic division by (x - (-a)), repeated
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return strip(out)


def primitive_integer(p: Poly):
    """Scale to integer coefficients with content 1; returns ints list.
    The factor is positive, so every sign of p is kept."""
    ints, _ = clear_denominators(p)
    return ints


def squarefree_part(p: Poly) -> Poly:
    if degree(p) < 1:
        return monic(p)
    g = gcd(p, derivative(p))
    return monic(divmod_poly(p, g)[0])


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: returns [(g_i, i)] with p = lc * prod g_i^i,
    the g_i monic, squarefree and pairwise coprime."""
    if degree(p) < 1:
        return []
    p = monic(p)
    dp = derivative(p)
    a = gcd(p, dp)
    b = divmod_poly(p, a)[0]
    c = divmod_poly(dp, a)[0]
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        g = gcd(b, d)
        if degree(g) > 0:
            out.append((monic(g), i))
        b2 = divmod_poly(b, g)[0]
        c2 = divmod_poly(d, g)[0]
        b, c = b2, c2
        d = sub(c, derivative(b))
        i += 1
    return out


# --------------------------------------------------------------- real roots

def root_bound(p: Poly):
    """Cauchy bound: every (real or complex) root has |z| < bound."""
    if degree(p) < 1:
        raise ValueError("constant polynomial")
    lead = p[-1]
    return ONE + max(abs(c / lead) for c in p[:-1]) if len(p) > 1 else ONE


def sturm_chain(p: Poly):
    chain = [list(p), derivative(p)]
    while chain[-1]:
        chain.append(neg(rem(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _sign_at(ints, x) -> int:
    """Sign of p(x) for the int coefficients of p and an exact rational
    x = a/b (b > 0): the sign of sum c_i a^i b^(n-i), by int Horner."""
    a, b = x.numerator, x.denominator
    acc = 0
    if b == 1:
        for c in reversed(ints):
            acc = acc * a + c
    else:
        bk = 1
        for c in reversed(ints):
            acc = acc * a + c * bk
            bk *= b
    return (acc > 0) - (acc < 0)


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(sequence, a, b) -> int:
    """Number of distinct real roots in (a, b], from a :func:`sturm_chain`
    (its members may come scaled to ints by positive factors)."""
    sequence = [primitive_integer(f) for f in sequence]
    va = _sign_changes(_sign_at(f, a) for f in sequence)
    vb = _sign_changes(_sign_at(f, b) for f in sequence)
    return va - vb


def isolate_real_roots(p: Poly):
    """Disjoint open-ish rational intervals, one per distinct real root.

    ``p`` must be squarefree.  Returns a sorted list of (lo, hi) pairs;
    a root that happens to be rational may come back as a degenerate
    (r, r) interval, and p is nonzero at the ends of every other one.
    Certified by Sturm counts (interval bisection); the chain is scaled to
    ints once, so every sign is taken by int Horner.
    """
    if degree(p) < 1:
        return []
    chain = [primitive_integer(f) for f in sturm_chain(p)]
    ints = chain[0]
    bound = root_bound(p)
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = sturm_count(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            # shrink away an endpoint root on hi (count is for (lo, hi])
            if not _sign_at(ints, hi):
                out.append((hi, hi))
                continue
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if not _sign_at(ints, mid):
            out.append((mid, mid))
            # shrink a gap around mid until Sturm certifies it holds only mid
            delta = (hi - lo) / 4
            while sturm_count(chain, mid - delta, mid + delta) != 1:
                delta /= 2
            stack.append((lo, mid - delta))
            stack.append((mid + delta, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(out)


def refine_root_interval(p: Poly, lo, hi):
    """One bisection step keeping the unique root of squarefree p inside:
    (lo, hi) isolates a simple root and p(lo) != 0, so p changes sign on
    the half that holds it, and both halves keep the two properties.
    ``p`` may be given scaled to ints by a positive factor; the signs are
    taken by int Horner."""
    if lo == hi:
        return lo, hi
    ints = primitive_integer(p)
    at_lo = _sign_at(ints, lo)
    if not at_lo:
        raise ValueError("lower endpoint of an isolating interval is a root")
    mid = (lo + hi) / 2
    at_mid = _sign_at(ints, mid)
    if not at_mid:
        return mid, mid
    if at_lo != at_mid:
        return lo, mid
    return mid, hi


# ------------------------------------------------------------ rational roots

def rational_roots(p: Poly):
    """All rational roots of p (any multiplicity), without factoring integers.

    Let B be the leading coefficient of the primitive integer form of the
    squarefree part.  By the rational-root theorem every rational root is
    y/B for an integer y, so once an isolating interval (lo, hi) is
    narrower than 1/B it holds at most one such number, y = floor(B*hi),
    which is tested exactly (by int Horner, as every sign here).
    """
    if degree(p) < 1:
        return []
    ints = primitive_integer(squarefree_part(p))
    bden = abs(ints[-1])
    width = QQ(1, bden)
    roots = []
    for lo, hi in isolate_real_roots(from_coeffs(ints)):
        while hi - lo >= width:
            lo, hi = refine_root_interval(ints, lo, hi)
        if lo == hi:
            roots.append(lo)
            continue
        cand = QQ(bden * hi.numerator // hi.denominator, bden)
        if lo < cand and not _sign_at(ints, cand):
            roots.append(cand)
    return sorted(roots)


def to_string(p: Poly, var: str = "t") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out

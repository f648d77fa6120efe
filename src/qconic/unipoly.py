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
Algebra*, ch. 5); a Sturm chain is built on ints by pseudo-remainders,
once per isolation.  Sturm isolation keeps its endpoints ``QQ``; an
isolated root is refined by :func:`bisection`, on int numerators over one
denominator with the sign at the lower endpoint carried, which serves
rational roots, root boxes and their refinement alike.  Everything here
is exact; these routines back the root-isolation and number-field
layers.
"""

from __future__ import annotations

from math import gcd as gcd_int, lcm

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
    return ONE + QQ(max(abs(c) for c in p[:-1])) / abs(p[-1])


def sturm_chain(p: Poly):
    """The Sturm chain p, p', -rem(p, p'), ... of p (``QQ`` or int
    coefficients), each member scaled to coprime ints by a positive
    factor: every remainder is a pseudo-remainder on ints (as in
    :func:`_negated_remainder`), so no rational is formed."""
    chain = [primitive_integer(p)]
    chain.append(primitive_integer([c * i for i, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _negated_remainder(a, b):
    """-rem(a, b) times a positive factor, as coprime ints, for int
    coefficient lists (b not constant): each step scales the remainder by
    |lc(b)| and subtracts sign(lc(b)) c t^k b, which clears its leading
    coefficient c and keeps it a positive multiple of a mod b."""
    lead = b[-1]
    scale, sign = abs(lead), (lead > 0) - (lead < 0)
    r = list(a)
    while len(r) >= len(b):
        c = sign * r[-1]
        k = len(r) - len(b)
        r = [x * scale for x in r]
        for i, y in enumerate(b):
            r[i + k] -= c * y
        strip(r)
    if not r:
        return r
    g = gcd_int(*r)
    return [-x // g for x in r]


def _sign_at(ints, x) -> int:
    """Sign of p(x) for the int coefficients of p and an exact rational
    x = a/b (b > 0): the sign of sum c_i a^i b^(n-i), by int Horner."""
    return _sign_at_ratio(ints, x.numerator, x.denominator)


def _sign_at_ratio(ints, a, b) -> int:
    """Sign of p(a/b) for ints a and b > 0, a/b in any terms."""
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


def _variations(chain, x) -> int:
    """Sign variations of a Sturm chain at x, zeros skipped."""
    signs = [s for s in (_sign_at(f, x) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(sequence, a, b) -> int:
    """Number of distinct real roots in (a, b], from a :func:`sturm_chain`
    (its members may come scaled by positive factors; on ints, as
    :func:`sturm_chain` gives them, every sign is an int Horner)."""
    return _variations(sequence, a) - _variations(sequence, b)


def isolate_real_roots(p: Poly):
    """Disjoint open-ish rational intervals, one per distinct real root.

    ``p`` must be squarefree (ValueError otherwise: the chain's last
    member is gcd(p, p')).  Returns a sorted list of (lo, hi) pairs;
    a root that happens to be rational may come back as a degenerate
    (r, r) interval, and p is nonzero at the ends of every other one.
    Certified by Sturm counts (interval bisection); the chain is on ints,
    so every sign is taken by int Horner, and the variations at an
    endpoint are counted once and carried to both halves.
    """
    if degree(p) < 1:
        return []
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        raise ValueError("polynomial must be squarefree")
    ints = chain[0]
    bound = root_bound(p)
    out = []
    stack = [(-bound, _variations(chain, -bound), bound, _variations(chain, bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        n = v_lo - v_hi
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
            while True:
                left, right = mid - delta, mid + delta
                v_left, v_right = _variations(chain, left), _variations(chain, right)
                if v_left - v_right == 1:
                    break
                delta /= 2
            stack.append((lo, v_lo, left, v_left))
            stack.append((right, v_right, hi, v_hi))
        else:
            v_mid = _variations(chain, mid)
            stack.append((lo, v_lo, mid, v_mid))
            stack.append((mid, v_mid, hi, v_hi))
    return sorted(out)


def bisection(ints, lo, hi):
    """The isolating intervals of repeated :func:`refine_root_interval`
    steps from (lo, hi), the first being (lo, hi) itself, as int triples
    (a, b, d) for the interval (a/d, b/d); forever, a degenerate interval
    repeating.  ``ints`` are p's coefficients scaled to ints by a positive
    factor.  The endpoints sit over one denominator, doubled per step, so
    the midpoint is (a + b) / 2d and no rational is built; the sign of p
    at lo is taken once and carried, since the root stays right of every
    lower endpoint (ValueError when it is 0 on a proper interval)."""
    lo, hi = QQ(lo), QQ(hi)
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    yield a, b, d
    if a == b:
        while True:
            yield a, b, d
    at_lo = _sign_at_ratio(ints, a, d)
    if not at_lo:
        raise ValueError("lower endpoint of an isolating interval is a root")
    while True:
        mid, d = a + b, 2 * d
        at_mid = _sign_at_ratio(ints, mid, d)
        if not at_mid:
            a = b = mid
            while True:
                yield a, b, d
        if at_mid == at_lo:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
        yield a, b, d


def refine_root_interval(p: Poly, lo, hi):
    """One bisection step keeping the unique root of squarefree p inside:
    (lo, hi) isolates a simple root and p(lo) != 0, so p changes sign on
    the half that holds it, and both halves keep the two properties.
    ``p`` may be given scaled to ints by a positive factor, and is then
    used as it is; the step is the first of :func:`bisection`."""
    ints = p if all(type(c) is int for c in p) else primitive_integer(p)
    walk = bisection(ints, lo, hi)
    next(walk)
    a, b, d = next(walk)
    return QQ(a, d), QQ(b, d)


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
    roots = []
    for lo, hi in isolate_real_roots(from_coeffs(ints)):
        a, b, d = next(iv for iv in bisection(ints, lo, hi)
                       if (iv[1] - iv[0]) * bden < iv[2])
        if a == b:
            roots.append(QQ(a, d))
            continue
        y = bden * b // d
        if a * bden < y * d and not _sign_at_ratio(ints, y, bden):
            roots.append(QQ(y, bden))
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

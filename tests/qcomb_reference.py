"""Reference refined q-trinomial: the defining sum evaluated term by term
with QPoly products and sums, as a differential oracle for
``qtrin.qcomb.refined_T``'s packed-integer kernel."""

from fractions import Fraction

from qtrin.qcomb import qbinomial
from qtrin.qpoly import QPoly


def refined_T_reference(L: int, M: int, a: int, b: int) -> QPoly:
    """Sum over n from 0 to min(L-|a|, M) with n+a+L even of
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b]."""
    out = QPoly.zero()
    for n in range(0, min(L - abs(a), M) + 1):
        if (n + a + L) % 2:
            continue
        u = (L - a - n) // 2
        v = (L + a - n) // 2
        t = qbinomial(M, n) * qbinomial(M + b + u, M + b) * qbinomial(M - b + v, M - b)
        if t:
            out = out + t.shift(Fraction(n * n, 2))
    return out

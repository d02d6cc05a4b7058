"""Reference q-trinomials, refined q-trinomial and their sums: the defining
sums evaluated term by term with QPoly products and sums, as differential
oracles for ``qtrin.qcomb``'s positive-sum kernel (``qtrinomial_T``,
``qtrinomial2``, ``refined_T``, ``invariance_sum``, ``refinement_sum`` and
con10's left side)."""

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


def invariance_sum_reference(L: int, M: int, a: int, b: int) -> QPoly:
    """Sum over i from |b| to min(L-|a|, M) of
    q^{i^2/2} [L+M-i, L] T(L-i, i, a, b)."""
    out = QPoly.zero()
    for i in range(abs(b), min(L - abs(a), M) + 1):
        t = refined_T_reference(L - i, i, a, b)
        if t:
            out = out + (qbinomial(L + M - i, L) * t).shift(Fraction(i * i, 2))
    return out


def refinement_sum_reference(L: int, a: int, b: int, swap: bool) -> QPoly:
    """Sum over i from |b| to L-|a-b| of q^{(i^2-b^2)/2} T(L-i, i, a-b, b),
    or of q^{(i^2-b^2)/2} T(i, L-i, b, a-b) with ``swap``."""
    out = QPoly.zero()
    for i in range(abs(b), L - abs(a - b) + 1):
        args = (i, L - i, b, a - b) if swap else (L - i, i, a - b, b)
        t = refined_T_reference(*args)
        if t:
            out = out + t.shift(Fraction(i * i - b * b, 2))
    return out


def qtrinomial2_reference(L: int, a: int) -> QPoly:
    """Sum over k from 0 to L of q^{k(k+a)} [L, k] [L-k, k+a]."""
    out = QPoly.zero()
    for k in range(0, L + 1):
        t = qbinomial(L, k) * qbinomial(L - k, k + a)
        if t:
            out = out + t.shift(k * (k + a))
    return out


def qtrinomial_T_reference(L: int, a: int) -> QPoly:
    """Sum over n from 0 to L-|a| with n+a+L even of
    q^{n^2/2} [L, n] [L-n, (L-a-n)/2]."""
    out = QPoly.zero()
    for n in range(0, L - abs(a) + 1):
        if (n + a + L) % 2:
            continue
        t = qbinomial(L, n) * qbinomial(L - n, (L - a - n) // 2)
        if t:
            out = out + t.shift(Fraction(n * n, 2))
    return out


def con10_lhs_reference(L: int, b: int) -> QPoly:
    """Sum over i from 0 to L of q^{i^2/2} [L, i] T(i, b)."""
    out = QPoly.zero()
    for i in range(0, L + 1):
        t = qbinomial(L, i) * qtrinomial_T_reference(i, b)
        if t:
            out = out + t.shift(Fraction(i * i, 2))
    return out

"""logpoly's precision-independent tables, built in integers, against their
direct forms in Fraction and iv arithmetic (tests/oracles.py), bit for bit:
the Bernoulli numbers, the log-polynomial rows, the tail weights, the root
intervals, the root enclosures and the certificates.  Also the order loop's
first-order test."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_rational

import stieltjes.logpoly as logpoly
from oracles import (bernoulli_ref, certificate_ref, isolated_ref, log_poly_row,
                     real_roots_ref, root_table_ref, tail_integral_ref, tail_row_ref)
from stieltjes.logpoly import (J_PLAN_MAX, _below, _certificate, _isolated, _log_polys,
                               _real_roots, _root_table, _tail_rows, _tangent, bernoulli,
                               em_tail_shifted)

# a 53-bit dyadic s, as hurwitz_em and zeta_prime_int read a float s, and
# a p that is not dyadic, whose enclosures round the denominators 3^k
S53 = Fraction(*to_rational(mpf(2 + 1 / 7)._mpf_))
PS = [1, 2, 3, Fraction(1, 2), Fraction(5, 4), S53, Fraction(1, 3)]
P_IDS = ["1", "2", "3", "1/2", "5/4", "s53", "1/3"]
ORDERS = list(range(1, 17)) + [23, 40, 64]


def _bits(table):
    return [(hi, g._mpf_) for hi, g in table]


def _certificate_bits(cert):
    his, suffix, g_row = cert
    return his, [s._mpf_ for s in suffix], g_row


def test_bernoulli_numbers_are_the_reference():
    # every index the order cap reads, B_(2 J_PLAN_MAX + 2), and past it
    for idx in range(2 * J_PLAN_MAX + 9):
        assert bernoulli(idx) == bernoulli_ref(idx), idx


def test_tangent_table_extends_step_by_step(monkeypatch):
    # from an empty table, extended out of order, each T_n is the one the
    # full recurrence gives
    monkeypatch.setattr(logpoly, "_TANGENTS", [0, 1])
    monkeypatch.setattr(logpoly, "_ZIGZAG", [0, 1])
    for n in (3, 1, 40, 7, 66, 41):
        want = bernoulli_ref(2 * n) * 4 ** n * (4 ** n - 1) / (2 * n) * (-1) ** (n - 1)
        assert _tangent(n) == want, n
    assert len(logpoly._TANGENTS) == 67 and len(logpoly._ZIGZAG) == 2 * 66


@pytest.mark.parametrize("p", PS, ids=P_IDS)
def test_log_poly_rows_are_the_fraction_chain_over_b_to_the_k(p):
    # integer rows R_k = b^k P_k through row 2 J_PLAN_MAX + 5, the last a
    # certificate reads; at an int p the rows themselves
    b = Fraction(p).denominator
    for m in range(9):
        rows = _log_polys(m, p)
        for k in range(2 * J_PLAN_MAX + 6):
            R, P = rows[k], log_poly_row(m, p, k)
            assert all(type(c) is int for c in R)
            # c / b^k == P_k[j] = num / den in lowest terms, in integers
            assert all(c * Fraction(w).denominator == Fraction(w).numerator * b ** k
                       for c, w in zip(R, P)) and len(R) == len(P), (m, k)


@pytest.mark.parametrize("p", PS, ids=P_IDS)
def test_tail_weights_are_the_fraction_weights(p):
    # the rows each listed order reads (j = J) and its omitted one (J + 1),
    # the integral and the rule-(8) bound A
    js = sorted({0} | {j for J in ORDERS for j in (J, J + 1)})
    for m in range(9):
        rows, integral, A = _tail_rows(m, p)
        for j in js:
            assert rows[j] == tail_row_ref(m, p, j), (m, j)
        want, A_integral = tail_integral_ref(m, p)
        assert integral == want
        assert A == max(A_integral, *(tail_row_ref(m, p, j)[1]
                                      for j in range(logpoly.DIRECT + 2)))


def _certificate_cases(p_index):
    """Each order with each d, n running through 0..8 across them, from a
    different n at each p."""
    pairs = [(J, d) for J in ORDERS for d in (-1, 0, 1)]
    return [((i + p_index) % 9, J, d) for i, (J, d) in enumerate(pairs)]


@pytest.mark.parametrize("p_index", range(len(PS)), ids=P_IDS)
def test_root_tables_and_certificates_are_the_reference(p_index):
    p = PS[p_index]
    for n, J, d in _certificate_cases(p_index):
        for k in (2 * J + 2 + d, 2 * J + 4 + d):
            assert _isolated(n, k, p) == isolated_ref(n, k, p), (n, J, d, k)
        assert _bits(_root_table(n, J, d, p)) == _bits(root_table_ref(n, J, d, p)), (n, J, d)
        assert (_certificate_bits(_certificate(n, J, d, p))
                == _certificate_bits(certificate_ref(n, J, d, p))), (n, J, d)


def _from_roots(roots, lead=1):
    P = [lead]
    for r in map(Fraction, roots):
        P = [-r.numerator * a + r.denominator * b for a, b in zip(P + [0], [0] + P)]
    return P


@pytest.mark.parametrize("roots", [
    [Fraction(3, 2 ** 10)],  # one root, met at a midpoint of its refinement
    [Fraction(5, 2 ** 16), Fraction(7, 3)],  # at the last midpoint
    [1, 2, 3],  # 2 at the lower end of a node of the bisection
    [0, Fraction(1, 3), 5],  # a root at lo = 0 itself, which is dropped
    [Fraction(1, 2 ** 17), Fraction(1, 7), 1],  # finer than the width
])
@pytest.mark.parametrize("lead", [1, -3])
def test_real_roots_at_midpoints_and_lower_ends(roots, lead):
    P = _from_roots(roots, lead)
    got = _real_roots(P)
    assert got == real_roots_ref(P)
    positive = [Fraction(r) for r in roots if r > 0]
    assert len(got) == len(positive)
    for (lo, hi), r in zip(got, sorted(positive)):
        assert lo <= r <= hi and hi - lo <= logpoly._ROOT_WIDTH
        if r.denominator & (r.denominator - 1) == 0 and r.denominator <= 2 ** 16:
            assert lo == hi == r  # an exact dyadic root of the width's grid


def test_real_roots_of_random_polynomials_are_the_reference():
    rng = random.Random(31)
    dens = [1, 2, 3, 4, 7, 8, 16, 2 ** 10, 2 ** 16, 2 ** 17, 12345]
    for _ in range(150):
        roots = set()
        while len(roots) < rng.randint(1, 6):
            roots.add(Fraction(rng.randint(-50, 400), rng.choice(dens)))
        P = _from_roots(sorted(roots), rng.choice([1, -2, 5]))
        assert _real_roots(P) == real_roots_ref(P), sorted(roots)


def test_below_reads_the_bound_exactly():
    rng = random.Random(7)
    for bound in (mpf("1e-30"), mpf("0.75"), mpf(3), mpf(2) ** -200, mpf(0), mpf(-1),
                  mp.inf, -mp.inf, mp.nan):
        for _ in range(200):
            w = rng.randint(0, 800)
            X = rng.getrandbits(rng.randint(0, 900))
            want = mp.make_mpf(logpoly.from_man_exp(X, -w)) < bound
            assert _below(X, w, bound) == want
        if bound > 0 and bound != mp.inf:  # X 2^-w equal to the bound is not below it
            _, man, exp, _ = bound._mpf_
            w = max(0, -exp) + 5
            assert not _below(man << exp + w, w, bound)
            assert _below((man << exp + w) - 1, w, bound)


def test_first_order_reads_the_omitted_correction_before_its_certificate(monkeypatch):
    # log t / t from 32.25 at bound 1e-40: order 4's omitted correction is
    # far above the bound, so its certificate is not read, while the order
    # the loop settles at reads its own; counting the reads leaves the bits
    calls = []
    real = logpoly.em_tail_error

    def counted(n, a, J, *args, **kwargs):
        calls.append(J)
        return real(n, a, J, *args, **kwargs)

    start, bound = mpf("32.25"), mpf("1e-40")
    want = em_tail_shifted([(1, 0, 1, 1)], start, 4, bound, (1, start, 0, 1))
    monkeypatch.setattr(logpoly, "em_tail_error", counted)
    got = em_tail_shifted([(1, 0, 1, 1)], start, 4, bound, (1, start, 0, 1))
    assert (got.value._mpf_, got.abs_err._mpf_, got.order) == (
        want.value._mpf_, want.abs_err._mpf_, want.order)
    assert got.order > 4 and 4 not in calls and calls[-1] == got.order


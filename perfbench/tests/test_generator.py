"""The request generators: seeded, in the domain, and spanning what the
workloads promise."""

import random
from fractions import Fraction

from workloads import (HASSE_TOL, N5_WINDOW, RUNGS, TOLS, X_RANGE, ladder_round,
                       point_mix_block)


def _stream(seed, blocks=3):
    rng = random.Random(seed)
    return [req for _ in range(blocks) for req in point_mix_block(rng)]


def test_same_seed_same_list_other_seed_other_list():
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)
    assert ladder_round(7) == ladder_round(7)
    assert ladder_round(7)[0].x != ladder_round(8)[0].x


def test_blocks_hold_the_same_mix():
    def mix(reqs):
        return sorted((r.fn, r.params, r.tol) for r in reqs)
    rng = random.Random(3)
    first = mix(point_mix_block(rng))
    assert mix(point_mix_block(rng)) == first
    assert mix(point_mix_block(random.Random(4))) == first
    assert len(first) == 118


def _in_domain(req):
    if req.tol is not None:
        assert req.tol in TOLS + (HASSE_TOL,) + tuple(f"1e-{d}" for d in RUNGS)
    if req.fn in ("gamma1_rational", "digamma_rational"):
        p, q = map(int, req.x.split("/"))
        assert 0 < p < q <= 7 and Fraction(p, q).denominator == q
        return
    if req.x is not None:
        x = float(req.x)
        lo, hi = (3.0, X_RANGE[1]) if req.fn == "hurwitz_hasse" else X_RANGE
        assert lo <= x <= hi, req
    if req.fn == "gamma_n":
        n, route = req.params
        assert 0 <= n <= 8 and route in ("series_b", "series_c", "coffey")
    elif req.fn == "zeta_deriv0_diff":
        assert 0 <= req.params[0] <= 6
    elif req.fn == "dilcher_log_gamma_k":
        assert 0 <= req.params[0] <= 4
    elif req.fn == "eta":
        assert 0 <= req.params[0] <= 6
    elif req.fn == "delta":
        assert req.params[0] in (0, 1, 2)
    elif req.fn in ("hurwitz_em", "hurwitz_hasse"):
        assert float(req.params[0]) != 1 and float(req.params[0]) > -11


def test_every_request_in_domain():
    for seed in range(5):
        for req in _stream(seed) + ladder_round(seed):
            _in_domain(req)


def test_ladder_rungs_run_at_twice_the_digits():
    for req in ladder_round(11):
        digits = int(req.tol[3:])
        assert digits in RUNGS and req.dps == 2 * digits
        assert 1 <= float(req.x) <= 2


def test_drawn_set_spans_orders_and_the_n5_window():
    for seed in range(5):
        reqs = _stream(seed, blocks=1)
        gammas = [r for r in reqs if r.fn == "gamma_n"]
        assert {r.params[0] for r in gammas} == set(range(9))
        assert any(r.params == (5, "series_b") and r.tol == "1e-12"
                   and N5_WINDOW[0] <= float(r.x) <= N5_WINDOW[1] for r in gammas)
        assert sum(r.fn == "gamma_n" for r in reqs) > len(reqs) / 2

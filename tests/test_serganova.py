import gc
import random
import time
from itertools import starmap, zip_longest
from operator import eq

import pytest
from hypothesis import given, settings, strategies as st

from verlinde_gl import serganova, suites
from verlinde_gl.enumeration import monotone_tuples, residue_representatives
from verlinde_gl.errors import ValidationError
from verlinde_gl.fusion import check_prime
from verlinde_gl.serganova import (
    SERGANOVA_HAT_MAX_ROOTS,
    check_blocks,
    check_oddroot_lemma,
    column_step,
    odd_root_order,
    rho_pair_root,
    serganova_hat,
    serganova_hats,
    sh_nonzero,
    sum_odd_roots,
)

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


def root_leq(r1, r2):
    """r1 precedes r2 when their difference is a sum of positive roots."""
    return r1[0] >= r2[0] and r1[1] <= r2[1]


def is_linear_extension(order, m, n):
    """Whether order lists every odd root once and root_leq(order[i], order[j]) forces i <= j."""
    if sorted(order) != sorted(odd_root_order(m, n)):
        return False
    pos = {root: k for k, root in enumerate(order)}
    return all(pos[r1] <= pos[r2] for r1 in order for r2 in order if root_leq(r1, r2))


def random_odd_root_order(m, n, rng):
    """A random linear extension of the odd-root order: each pick is minimal among the rest."""
    remaining = set(odd_root_order(m, n))
    out = []
    while remaining:
        minimal = [r for r in remaining if all(not root_leq(o, r) for o in remaining if o != r)]
        pick = rng.choice(sorted(minimal))
        out.append(pick)
        remaining.remove(pick)
    return tuple(out)


def hat_by_roots(mu, nu, p, order):
    """Reference walk, one root at a time in the given linear extension; no column_step."""
    cur_mu, cur_nu = list(mu), list(nu)
    for i, j in order:
        if (cur_mu[i - 1] + cur_nu[j - 1]) % p != 0:
            cur_mu[i - 1] -= 1
            cur_nu[j - 1] += 1
    return tuple(cur_mu), tuple(cur_nu)


def sh_nonzero_by_roots(mu, nu, p):
    """The definition root by root: <lam + rho, eps_i - delta_j> != 0 mod p."""
    m, n = len(mu), len(nu)
    return all(
        (mu[i - 1] + nu[j - 1] + rho_pair_root(m, n, (i, j))) % p != 0
        for i, j in odd_root_order(m, n)
    )


@st.composite
def classical_pairs(draw):
    """A prime 5..31 and a pair of nonincreasing blocks of shape up to (6, 6)."""
    p = draw(st.sampled_from(PRIMES))
    blocks = []
    for _ in range(2):
        rank = draw(st.integers(1, 6))
        entries = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=rank, max_size=rank))
        blocks.append(tuple(sorted(entries, reverse=True)))
    return blocks[0], blocks[1], p


def test_odd_root_order_examples():
    assert odd_root_order(1, 1) == ((1, 1),)
    assert odd_root_order(2, 2) == ((2, 1), (1, 1), (2, 2), (1, 2))
    assert odd_root_order(2, 1) == ((2, 1), (1, 1))


def test_order_is_linear_extension():
    rng = random.Random(3)
    for m in range(1, 5):
        for n in range(1, 5):
            assert is_linear_extension(odd_root_order(m, n), m, n)
            assert is_linear_extension(random_odd_root_order(m, n, rng), m, n)
    for bad_order in (((1, 1), (2, 1)), (), ((2, 1),), ((2, 1), (1, 1), (3, 1))):
        assert not is_linear_extension(bad_order, 2, 1)


def test_oddroot_lemma_all_small_shapes():
    for m in range(1, 7):
        for n in range(1, 7):
            assert check_oddroot_lemma(m, n)


def test_oddroot_lemma_check_fails_on_a_wrong_order(monkeypatch):
    # Column 1 read with i ascending: root (1, 1) comes first, and the empty
    # partial sum pairs with it as 0, not -<rho, (1, 1)> = -1.
    real_order = serganova.odd_root_order

    def swapped(m, n):
        order = real_order(m, n)
        return (order[1], order[0]) + order[2:]

    monkeypatch.setattr(serganova, "odd_root_order", swapped)
    assert swapped(2, 2) == ((1, 1), (2, 1), (2, 2), (1, 2))
    assert not check_oddroot_lemma(2, 2)


def test_serganova_hat_examples():
    assert serganova_hat((0,), (0,), 5) == ((0,), (0,))
    assert serganova_hat((1,), (0,), 5) == ((0,), (1,))
    # Conservation pins the final value; see the acceptance goldens.
    assert serganova_hat((18, 18, 15, 12, 12), (-13, -13, -17, -18), 11) == (
        (15, 15, 11, 10, 8),
        (-9, -9, -12, -15),
    )
    with pytest.raises(ValidationError):
        serganova_hat((0, 1), (0,), 5)


def test_sh_nonzero_examples():
    assert sh_nonzero((1,), (0,), 5)
    assert not sh_nonzero((0,), (0,), 5)


def test_hat_equals_full_subtraction_iff_sh_nonzero():
    for p in (5, 7):
        for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
            full = sum_odd_roots(m, n)
            for mu in monotone_tuples(m, -p, p):
                for nu in monotone_tuples(n, -p, p):
                    want = (
                        tuple(x - full[0][i] for i, x in enumerate(mu)),
                        tuple(x - full[1][j] for j, x in enumerate(nu)),
                    )
                    assert sh_nonzero(mu, nu, p) == (serganova_hat(mu, nu, p) == want)


def test_order_independence_random():
    rng = random.Random(7)
    for p in (5, 7):
        for m, n in ((2, 2), (3, 2), (2, 3)):
            for mu in residue_representatives(m, p)[:: max(1, p)]:
                for nu in residue_representatives(n, p)[:: max(1, p * 2)]:
                    ref = serganova_hat(mu, nu, p)
                    for _ in range(3):
                        order = random_odd_root_order(m, n, rng)
                        assert hat_by_roots(mu, nu, p, order) == ref


def test_degree_conservation():
    for p in (5, 7):
        for mu in monotone_tuples(2, -4, 4):
            for nu in monotone_tuples(2, -4, 4):
                hmu, hnu = serganova_hat(mu, nu, p)
                assert sum(hmu) + sum(hnu) == sum(mu) + sum(nu)


@settings(max_examples=300, deadline=None)
@given(classical_pairs())
def test_sh_nonzero_masks_match_root_definition(pair):
    mu, nu, p = pair
    assert sh_nonzero(mu, nu, p) == sh_nonzero_by_roots(mu, nu, p)


@settings(max_examples=200, deadline=None)
@given(classical_pairs(), st.randoms(use_true_random=False))
def test_column_fold_matches_root_walks(pair, rng):
    mu, nu, p = pair
    m, n = len(mu), len(nu)
    folded = serganova_hat(mu, nu, p)
    assert folded == hat_by_roots(mu, nu, p, odd_root_order(m, n))
    assert folded == hat_by_roots(mu, nu, p, random_odd_root_order(m, n, rng))


@st.composite
def block_lists(draw):
    """A prime, a list of mus of mixed ranks and a list of nus of one rank.

    Blocks are drawn from a small pool, then shuffled and repeated, so the
    nus share prefixes in no particular order and some follow themselves.
    """
    p = draw(st.sampled_from(PRIMES[:4]))
    entries = st.integers(-2 * p, 2 * p)

    def block(rank):
        return tuple(sorted(draw(st.lists(entries, min_size=rank, max_size=rank)), reverse=True))

    mus = [block(draw(st.integers(1, 4))) for _ in range(draw(st.integers(1, 4)))]
    n = draw(st.integers(1, 4))
    pool = [block(n) for _ in range(draw(st.integers(1, 4)))]
    if n > 1:
        pool += [pool[0][:-1] + (pool[0][-1] - k,) for k in range(1, 3)]
    nus = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return draw(st.permutations(mus + mus[:1])), nus, p


@settings(max_examples=200, deadline=None)
@given(block_lists())
def test_serganova_hats_match_root_walks_pair_by_pair(lists):
    mus, nus, p = lists
    got = list(serganova_hats(mus, nus, p))
    want = [hat_by_roots(mu, nu, p, odd_root_order(len(mu), len(nu))) for mu in mus for nu in nus]
    assert got == want


def test_serganova_hats_edge_inputs():
    assert list(serganova_hats([], [(0,)], 5)) == []
    assert list(serganova_hats([(0,)], [], 5)) == []
    assert list(serganova_hats([], [], 5)) == []
    with pytest.raises(ValidationError, match="every nu must have length 2"):
        list(serganova_hats([(0,)], [(1, 0), (1,)], 5))
    hats = serganova_hats([(0,)], [(1, 0), (0, 0), (2, 1), (1,)], 5)
    with pytest.raises(ValidationError, match=r"every nu must have length 2, got nu=\(1,\)"):
        next(hats)
    with pytest.raises(ValidationError, match="not nonincreasing"):
        list(serganova_hats([(0,)], [(1, 0), (0, 1)], 5))
    with pytest.raises(ValidationError, match="p must be prime"):
        list(serganova_hats([(0,)], [(0,)], 9))


def test_residue_representatives_one_per_residue_tuple():
    for p in (5, 7):
        for rank in range(1, 4):
            reps = residue_representatives(rank, p)
            assert len(reps) == p**rank
            assert len({tuple(x % p for x in rep) for rep in reps}) == p**rank
            assert all(rep[k - 1] - p < rep[k] <= rep[k - 1] for rep in reps for k in range(1, rank))


def test_suite_serganova_coverage():
    result = suites.suite_serganova((5,))
    assert result.ok and result.checked == 675617


def test_suite_serganova_checks_every_pair(monkeypatch):
    # Corrupt the walk of one typical residue pair of shape (4, 1); blocks of
    # rank 4 occur only in the residue-class stage, where (4, 1) is swept
    # first, so the first column step from (mu, 0) is that pair's own.
    mu = next(mu for mu in residue_representatives(4, 5) if sh_nonzero(mu, (0,), 5))
    real_step = serganova.column_step
    corrupted = []

    def corrupt(state, y, p):
        out, y_out = real_step(state, y, p)
        if (state, y, p) == (mu, 0, 5) and not corrupted:
            corrupted.append(state)
            y_out += 1
        return out, y_out

    monkeypatch.setattr(serganova, "column_step", corrupt)
    result = suites.suite_serganova((5,))
    assert corrupted
    assert not result.ok and result.failures == 1 and result.checked == 675617
    assert result.details == f"residue-class mismatch at p=5, {(mu, (0,))}"


def test_suite_serganova_sweeps_the_shipped_walk(monkeypatch):
    # A column step that meets the roots (1, j), .., (m, j) in the wrong
    # order breaks the shipped fold; criterion 7 must see it.
    def wrong_order(state, y, p):
        out = []
        for x in state:
            if (x + y) % p:
                x -= 1
                y += 1
            out.append(x)
        return tuple(out), y

    monkeypatch.setattr(serganova, "column_step", wrong_order)
    result = suites.suite_serganova((5,))
    assert not result.ok and result.checked == 675617


def test_serganova_walk_leaves_no_reference_cycles():
    # A walk state whose column step keeps it holds its own row; the rows are
    # cleared when the walk ends, also when a sweep stops pulling early as
    # criterion 7's zip does, so nothing is left for the cyclic collector.
    reps = residue_representatives(2, 5)
    gc.collect()
    gc.disable()
    try:
        hats = serganova_hats(reps, reps, 5)
        for _mu in reps:
            for _pair in zip(reps, hats):
                pass
        del hats
        assert gc.collect() == 0
        serganova_hat((0, 0), (0, 0), 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_suite_serganova_steps_each_distinct_input_once_per_sweep(monkeypatch):
    # Within one serganova_hats call a (state, nu_j) input is stepped once,
    # however many pairs reach it; a new call starts an empty table.
    real_hats, real_step = serganova.serganova_hats, serganova.column_step
    sweeps = []
    calls = []

    def counting_hats(mus, nus, p):
        sweeps.append(set())
        yield from real_hats(mus, nus, p)

    def counting_step(state, y, p):
        calls.append(None)
        sweeps[-1].add((state, y))
        return real_step(state, y, p)

    monkeypatch.setattr(suites, "serganova_hats", counting_hats)
    monkeypatch.setattr(serganova, "column_step", counting_step)
    result = suites.suite_serganova((5,))
    assert result.ok and result.checked == 675617
    assert len(calls) == sum(map(len, sweeps)) == 51657


def test_serganova_hats_table_lives_for_one_call(monkeypatch):
    blocks = monotone_tuples(2, -5, 5)
    want = [hat_by_roots(mu, nu, 5, odd_root_order(2, 2)) for mu in blocks for nu in blocks]
    real_step = serganova.column_step

    def corrupt(state, y, p):
        out, y_out = real_step(state, y, p)
        return out, y_out + 1

    monkeypatch.setattr(serganova, "column_step", corrupt)
    assert list(serganova_hats(blocks, blocks, 5)) != want
    monkeypatch.setattr(serganova, "column_step", real_step)
    assert list(serganova_hats(blocks, blocks, 5)) == want


def _row_fold(mus, nus, p):
    """Reference: the row walk before the walk program, every nu walked from its mu's row."""
    check_prime(p)
    check_blocks(mus, nus)
    n = len(nus[0]) if nus else 0
    rows = {}
    try:
        for mu in mus:
            mu = tuple(mu)
            if len(mu) * n > SERGANOVA_HAT_MAX_ROOTS:
                limit = SERGANOVA_HAT_MAX_ROOTS
                raise ValidationError(f"{len(mu)}x{n} odd roots exceed SERGANOVA_HAT_MAX_ROOTS = {limit}")
            mu_row = rows.setdefault(mu, {})
            for nu in nus:
                state, row, hat_nu = mu, mu_row, []
                for y in nu:
                    step = row.get(y)
                    if step is None:
                        nxt, y_out = column_step(state, y, p)
                        step = row[y] = nxt, rows.setdefault(nxt, {}), y_out
                    state, row, y_out = step
                    hat_nu.append(y_out)
                yield state, tuple(hat_nu)
    finally:
        for row in rows.values():
            row.clear()


def test_walk_program_equals_the_row_fold_on_every_criterion7_stage():
    # The window and residue-class stages of criterion 7 at p = 5, as
    # suite_serganova builds them; consecutive nus share their first n - 1
    # entries, so nearly every pair runs from its run's head state.
    window = {rank: monotone_tuples(rank, -10, 10) for rank in (1, 2)}
    reps = {rank: residue_representatives(rank, 5) for rank in range(1, 5)}
    stages = [(blocks[m], blocks[n]) for blocks in (window, reps) for m in blocks for n in blocks]
    assert sum(len(mus) * len(nus) for mus, nus in stages) == 671904
    for mus, nus in stages:
        assert all(starmap(eq, zip_longest(serganova_hats(mus, nus, 5), _row_fold(mus, nus, 5))))


@pytest.mark.parametrize(
    "mus, nus, p",
    [
        ([(0,), (2, 1), (1, 1, 0)], [(1, 0), (0, 0), (1, -1)], 5),  # equal heads, not adjacent
        ([(3, 1), (0, 0)], [(2, 1, 0)] * 3, 7),  # one nu repeated
        ([(0,), (4, 2)], [(1, 0), (2, 1), (1, 0), (1, 0)], 5),  # a repeat after a new head
        ([(2, 0, -1), (5,)], [(3,), (1,), (1,), (-2,)], 5),  # n = 1: every nu is its own run
        ([(1, 1), (0,)], [(0, 0)], 11),  # a single nu
        ([[1, 0], [2]], [[1, 0], [1, -1], [0, 0], [0, -3]], 7),  # nus given as lists
    ],
)
def test_walk_program_on_hand_picked_nus(mus, nus, p):
    want = [hat_by_roots(mu, nu, p, odd_root_order(len(mu), len(nu))) for mu in mus for nu in nus]
    assert list(serganova_hats(mus, nus, p)) == list(_row_fold(mus, nus, p)) == want


def test_walk_program_is_linear_in_a_long_nu():
    # One mu against one nu of 100,000 distinct entries: every column is a
    # miss, and building the hat must cost O(n), as the row fold's list
    # does.  A head hat copied at every column takes O(n^2), about a hundred
    # times the row fold's time here.
    nus = [tuple(range(100_000, 0, -1))]
    spent = {}
    for walk in (_row_fold, serganova_hats):
        start = time.process_time()
        hats = list(walk([(0,)], nus, 5))
        spent[walk] = time.process_time() - start, hats
    (fold_s, want), (walk_s, got) = spent[_row_fold], spent[serganova_hats]
    assert got == want
    assert walk_s <= 4 * fold_s + 0.1

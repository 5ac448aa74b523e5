"""Serganova's algorithm for classical GL(m|n) weights in characteristic p.

Weights here are pairs of nonincreasing integer vectors with no alcove
bound.  The positive odd roots eps_i - delta_j are processed in a linear
extension of the order (eps_i - delta_j precedes eps_a - delta_b when i >= a
and j <= b); at each step the root is subtracted iff the running weight
pairs with it to a nonzero residue mod p.  The terminal weight is the lowest
block-equivariant weight of the simple head of the Kac module.

The walk takes the canonical order, column by column: j ascending, and
within column j the roots (m, j), .., (1, j).  Root (i, j) reads and moves
only mu_i and nu_j, so no root before column j touches nu_j, and column j
sees the running mu and the original nu_j alone.  One column step
(mu_state, nu_j) -> (mu_state', nu_j') therefore carries the whole walk:
the state after column j depends only on (mu, nu_1, .., nu_j), and the
hat is a left fold of the column step over nu.  serganova_hats is that
fold, the only one: it walks many pairs and keeps one row of column steps
per walk state in a dict local to the call, so one sweep steps each
distinct (state, nu_j) once however many pairs reach it, and clears the
rows when the walk ends; serganova_hat is its one-pair case.  The last
column's step gives the hat but is never folded further, so a run of nus
that share their first n - 1 entries shares one state after column n - 1,
its head state: serganova_hats walks the nus as one program, built once
per call, in which such a run walks its first n - 1 columns once and then
takes only each nu's last step from the head state.  The root-by-root
walk in an arbitrary linear extension, which gives the same terminal
weight, is the reference oracle of tests/test_serganova.py.

The degree-mn Shapovalov scalar is nonzero iff <lam + rho, eps_i - delta_j>
= (mu_i + m - i + 1) - (j - nu_j) is nonzero mod p for every root, that is,
iff the residue sets {mu_i + m - i + 1 mod p} and {j - nu_j mod p} are
disjoint.  sh_nonzero tests this on two bitmasks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import lt

from .errors import ValidationError
from .fusion import check_prime

OddRoot = tuple[int, int]  # (i, j), both 1-indexed


def check_blocks(mus: Sequence[tuple[int, ...]], nus: Sequence[tuple[int, ...]]) -> None:
    """Validate blocks: each nonempty and nonincreasing, and every nu in nus of one length."""
    if not all(mus) or not all(nus):
        raise ValidationError("both blocks must be nonempty")
    for name, blocks in (("mu", mus), ("nu", nus)):
        for block in blocks:
            if any(map(lt, block, block[1:])):
                raise ValidationError(f"{name}={block} is not nonincreasing")
    for nu in nus:
        if len(nu) != len(nus[0]):
            raise ValidationError(f"every nu must have length {len(nus[0])}, got nu={nu}")


def odd_root_order(m: int, n: int) -> tuple[OddRoot, ...]:
    """Canonical linear extension: j ascending, i descending."""
    if m < 1 or n < 1:
        raise ValidationError("block sizes must be positive")
    return tuple((i, j) for j in range(1, n + 1) for i in range(m, 0, -1))


def rho_pair_root(m: int, n: int, root: OddRoot) -> int:
    """<rho, eps_i - delta_j> = m - i - j + 1, half of rho2_i + rho2_(m+j)."""
    i, j = root
    return m - i - j + 1


# check_oddroot_lemma makes one pass over the m*n roots; blocks above this size are refused.
ODDROOT_LEMMA_MAX_BLOCK = 16


def check_oddroot_lemma(m: int, n: int) -> bool:
    """Partial sums of the root order pair with the next root as -<rho, root>.

    Block sizes above ODDROOT_LEMMA_MAX_BLOCK are refused.
    """
    if m > ODDROOT_LEMMA_MAX_BLOCK or n > ODDROOT_LEMMA_MAX_BLOCK:
        raise ValidationError(f"block sizes must be at most {ODDROOT_LEMMA_MAX_BLOCK}, got ({m}, {n})")
    in_row, in_column = [0] * (m + 1), [0] * (n + 1)  # earlier roots in row i and in column j
    for i, j in odd_root_order(m, n):
        if in_row[i] - in_column[j] != -rho_pair_root(m, n, (i, j)):
            return False
        in_row[i] += 1
        in_column[j] += 1
    return True


def column_step(state: tuple[int, ...], y: int, p: int) -> tuple[tuple[int, ...], int]:
    """Apply the roots (m, j), .., (1, j) of one column to the walk state.

    state is the running mu after the earlier columns and y the original
    nu_j; returns the new mu state and the terminal nu_j.  Nothing is
    validated here: callers check p and the blocks once.
    """
    out = []
    for x in reversed(state):
        if (x + y) % p:
            x -= 1
            y += 1
        out.append(x)
    out.reverse()
    return tuple(out), y


# A pair walks m*n odd roots, one column step per distinct (state, nu_j).
# With distinct nu entries, m = n = 1,000 takes 0.12 s, 2,000 takes 0.50 s
# and 3,000 takes 1.15 s; pairs of more than this many roots are refused.
SERGANOVA_HAT_MAX_ROOTS = 4_000_000


def serganova_hats(
    mus: Sequence[tuple[int, ...]], nus: Sequence[tuple[int, ...]], p: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield serganova_hat(mu, nu, p) for every mu in mus and nu in nus, mu outer.

    The hat is column_step folded over nu.  rows, a dict local to this call,
    maps each walk state to its row {nu_j: (next state, next state's row,
    terminal nu_j)}, and a walk takes one row lookup per column, so a sweep
    runs column_step once per distinct (state, nu_j) it meets.  The nus
    become one walk program of (j, nu_j) steps: a nu adds (1, nu_1), ..,
    (n, nu_n), but a nu whose first n - 1 entries equal those of the nu
    before it adds only (n, nu_n).  Each mu runs the program: j = 1 starts
    at mu's row with an empty head hat, j < n moves the state and appends
    the terminal nu_j to the head hat, and j = n yields (next state, head
    hat + (terminal nu_n,)) without moving, so the head state stays valid
    for the whole run.  The head hat is a list, copied once per yield, so
    each hat costs O(n) to build.  The program holds at most n * len(nus)
    steps.  p and every block are validated once, and the nus must share
    one length.  A mu whose pairs have more than SERGANOVA_HAT_MAX_ROOTS odd
    roots raises ValidationError before its walk.
    """
    check_prime(p)
    check_blocks(mus, nus)
    n = len(nus[0]) if nus else 0
    program: list[tuple[int, int]] = []  # (depth j, nu_j) steps; depth n steps leave the state be
    prefix = None
    for nu in nus:
        if prefix == (prefix := nu[:-1]):  # this nu's first n - 1 entries are those of the nu before
            program.append((n, nu[-1]))
        else:
            program += enumerate(nu, 1)
    rows: dict[tuple[int, ...], dict[int, tuple]] = {}
    try:
        for mu in mus:
            mu = tuple(mu)
            if len(mu) * n > SERGANOVA_HAT_MAX_ROOTS:
                limit = SERGANOVA_HAT_MAX_ROOTS
                raise ValidationError(f"{len(mu)}x{n} odd roots exceed SERGANOVA_HAT_MAX_ROOTS = {limit}")
            mu_row = rows.setdefault(mu, {})
            for j, y in program:
                if j == 1:
                    state, row, head = mu, mu_row, []
                step = row.get(y)
                if step is None:
                    nxt, y_out = column_step(state, y, p)
                    step = row[y] = nxt, rows.setdefault(nxt, {}), y_out
                if j == n:
                    yield step[0], (*head, step[2])
                else:
                    state, row, y_out = step
                    head.append(y_out)
    finally:  # a state whose column step keeps it holds its own row: break those cycles
        for row in rows.values():
            row.clear()


def serganova_hat(mu: tuple[int, ...], nu: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Terminal weight of the root-subtraction recursion: the one pair of serganova_hats."""
    (hat,) = serganova_hats((mu,), (nu,), p)
    return hat


def sh_mu_mask(mu: tuple[int, ...], p: int) -> int:
    """Bitmask of the residues (mu_i + m - i + 1) mod p, i = 1..m."""
    m = len(mu)
    mask = 0
    for i, x in enumerate(mu, start=1):
        mask |= 1 << ((x + m - i + 1) % p)
    return mask


def sh_nu_mask(nu: tuple[int, ...], p: int) -> int:
    """Bitmask of the residues (j - nu_j) mod p, j = 1..n."""
    mask = 0
    for j, y in enumerate(nu, start=1):
        mask |= 1 << ((j - y) % p)
    return mask


def sh_nonzero(mu: tuple[int, ...], nu: tuple[int, ...], p: int) -> bool:
    """Degree-mn Shapovalov scalar nonzero: <lam + rho, root> != 0 mod p for all roots."""
    check_prime(p)
    check_blocks((mu,), (nu,))
    return not sh_mu_mask(mu, p) & sh_nu_mask(nu, p)


def sum_odd_roots(m: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sum of all positive odd roots, split into blocks: (n,..,n | -m,..,-m)."""
    return (n,) * m, (-m,) * n

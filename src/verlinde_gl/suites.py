"""Batch self-check suites backing the acceptance criteria and the CLI.

Each suite tallies its run in one SuiteResult and returns it; nothing here
raises on a mathematical failure, so the CLI can print a full report and the
acceptance tests can fail on the verdict.  A failing run still runs to the
end: every failure is counted, and the first three messages are kept.
Enumeration windows default to [-p, p].

The heavy sweeps share work between checks.  Sharing is sound because every
shared function is pure: each distinct input is still computed by the real
code path exactly once.  Every counted check runs library code.  What each
sweep shares:

- codec (criteria 2, 3): the codec factorizes into block ladders and one
  assembly, so each block weight and each residue-set pair is checked once,
  not once per pair it appears in; stage (d) runs the shipped encode and
  decode once per weight.
- equivariance (criterion 4): one encode and one loop vector per window
  weight, shared by all p residues; the two-term order is read off the
  terms the equivariance core already returned.
- filtration (criterion 5): kac_composition once per distinct alpha, and
  the sweep's own p_set images answer BGG's converse for window weights.
- serganova (criterion 7): the walk states along common nu prefixes.
- kac-moody (criterion 9): one encode and one translation table per window
  weight: the 2p single steps once, then each ordered composition x(y d)
  once, shared by every relation that reads it.  Like every diagram the
  library derives, the encode and the functor outputs skip WeightDiagram's
  checks (see diagrams).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

from .alcove import GLWeight, ladder_weight, level_rank_D, psi_data, weight_ladder
from .borel import GLXShape, TupleWeight, borel_translate, check_permutation, conjugate_relabel, w_integrable
from .caps import (
    cap_diagram,
    hat,
    kac_composition,
    lowest_weight,
    p_set,
    projective_filtration,
    projective_word,
    replay_word,
    sigma_to_standard,
    standard_to_sigma,
)
from .diagrams import CROSS, assemble_symbols, decode, encode, symbol_residues
from .enumeration import (
    SELFCHECK_MAX_P,
    admissible_tuples,
    default_window,
    monotone_tuples,
    residue_representatives,
    super_shapes,
    window_weights,
)
from .errors import ContractError, ValidationError
from .fusion import check_prime, fuse_simples
from .serganova import (
    check_blocks,
    check_oddroot_lemma,
    column_step,
    serganova_hat,
    sh_mu_mask,
    sh_nonzero,
    sh_nu_mask,
    sum_odd_roots,
)
from .superweights import (
    SuperWeight,
    atypicality,
    casimir_scalar,
    dominance_leq,
    form,
    is_typical,
    rho2,
    second_block,
    super_weight,
)
from .translation import _equivariant_terms, loop_vector, translation


@dataclass
class SuiteResult:
    """The tally of one suite run: checks and failures counted in full, the
    messages of the first three failures kept in details."""

    name: str
    checked: int = 0
    failures: int = 0
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, message: str) -> None:
        """Count one failed check."""
        self.failures += 1
        if self.failures <= 3:
            self.details = f"{self.details}; {message}" if self.details else message

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f" [{self.details}]" if self.details else ""
        return f"{status} {self.name}: {self.checked} checks, {self.failures} failures{tail}"


def suite_golden() -> SuiteResult:
    """Criterion 1: the worked examples, exact equality.

    Each value is computed inside its check, so a library error on a worked
    example is one failed check carrying its message, not a raise.
    """
    res = SuiteResult("golden examples")

    def expect(label: str, compute: Callable[[], object], want) -> None:
        res.checked += 1
        try:
            got = compute()
        except (ValidationError, ContractError) as exc:
            res.fail(f"{label}: {type(exc).__name__}: {exc}")
            return
        if got != want:
            res.fail(f"{label}: got {got!r}, want {want!r}")

    expect("fusion L3*L3 at p=5", lambda: fuse_simples(3, 3, 5), [1, 3])
    expect("level-rank image", lambda: level_rank_D(GLWeight((6, 5, 2), 7))[0].entries, (5, 4, 2, 2))
    expect("level-rank parity", lambda: level_rank_D(GLWeight((6, 5, 2), 7))[1], 1)
    expect("psi weight p=7 n=3", lambda: psi_data(3, 7).psi_weight.entries, (3, -1, -1))

    fig = super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))
    expect("figure diagram cut", lambda: encode(fig).symbols[3:] + encode(fig).symbols[:3], "o<ox>>x<oo>")
    expect("figure label", lambda: (encode(fig).s, encode(fig).r), (3, 2))
    expect("figure decode", lambda: (decode(encode(fig)).mu, decode(encode(fig)).nu), (fig.mu, fig.nu))
    expect("caps", lambda: tuple(cap_diagram(encode(fig)).caps), ((9, 0), (6, 1)))
    expect("free circles", lambda: sorted(cap_diagram(encode(fig)).free_circles), [3, 5])
    want_ps = set()
    for syms3, s, r in (
        ("o<ox>>x<oo>", 3, 2),
        ("o<ox>>o<xo>", 4, 3),
        ("o<oo>>x<ox>", 4, 3),
        ("o<oo>>o<xx>", 5, 4),
    ):
        want_ps.add((syms3[-3:] + syms3[:-3], s, r))
    expect("p-set diagrams", lambda: {(d.symbols, d.s, d.r) for d in map(encode, p_set(fig))}, want_ps)
    expect("hat", lambda: (hat(fig).mu, hat(fig).nu), ((19, 19, 15, 15, 15), (-15, -15, -17, -22)))
    expect("hat label", lambda: (encode(hat(fig)).s, encode(hat(fig)).r), (5, 4))
    expect(
        "lowest weight",
        lambda: lowest_weight(fig),
        ((15, 15, 11, 11, 11), (-10, -10, -12, -17)),
    )
    # Every subtraction step moves one unit between the blocks, so the total
    # degree 14 is conserved; that pins the second block at (-9,-9,-12,-15).
    classical = ((18, 18, 15, 12, 12), (-13, -13, -17, -18), 11)
    expect("classical hat", lambda: serganova_hat(*classical), ((15, 15, 11, 10, 8), (-9, -9, -12, -15)))
    expect("classical hat degree", lambda: sum(map(sum, serganova_hat(*classical))), 14)
    return res


def _mask(residues) -> int:
    out = 0
    for k in residues:
        out |= 1 << k
    return out


# Stage (d) of the codec suite runs encode and decode once per weight, about
# 18 us each: the whole window at p = 5 and 7 (3,677 and 127,555 weights),
# [-2, 2] at p = 11 (164,651 of the window's 87.4M) and [-1, 1] at p = 13.
CODEC_DECODE_MAX_WEIGHTS = 200_000


def suite_codec(p: int, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criteria 2 and 3: codec roundtrip and atypicality agreement.

    The codec factorizes.  Encode runs the ladder of each block on its own
    (weight_ladder, through second_block for the second) and then assembles
    the symbols from the two residue sets (assemble_symbols); decode
    extracts the two sets (symbol_residues) and inverts each block on its
    own (ladder_weight, then second_block).  So decode o encode = id on a
    window follows from its parts, which the suite verifies exhaustively:

      (a) block roundtrips for every windowed block weight of every rank,
      (b) assembly/extraction and cross counting over *all* residue-set
          pairs of every shape (a superset of what the window produces),
      (c) the form-route atypicality count against the block ladders,
      (d) decode(encode(lam)) == lam with the shipped encode and decode, on
          the widest window [-k, k] inside the suite's whose weights number
          at most CODEC_DECODE_MAX_WEIGHTS.

    The identity also gives injectivity of encode over the window, and (b)
    with (c) gives the cross-count agreement of the two atypicality routes
    for every pair.
    """
    lo, hi = window if window is not None else default_window(p)
    res = SuiteResult(f"codec+atypicality suite p={p}")
    blocks = {rank: admissible_tuples(rank, p, lo, hi) for rank in range(1, p - 1)}

    # Stage (a): block roundtrips, both as a first and as a second block.
    # Rows keep (weight, residues); a second block's rows are keyed (m, rank).
    mu_rows: dict[int, list[tuple]] = {rank: [] for rank in blocks}
    for rank, weights in blocks.items():
        for w in weights:
            res.checked += 1
            a, s = weight_ladder(w, p)
            if ladder_weight(a, s, p) != w:
                res.fail(f"mu-block roundtrip failed at p={p}, {w}")
            mu_rows[rank].append((w, a))
    nu_rows: dict[tuple[int, int], list[tuple]] = {shape: [] for shape in super_shapes(p)}
    for m, rank in nu_rows:
        for w in blocks[rank]:
            res.checked += 1
            b, r = weight_ladder(second_block(w, m), p)
            if second_block(ladder_weight(b, r, p), m) != w:
                res.fail(f"nu-block roundtrip failed at p={p}, m={m}, {w}")
            nu_rows[(m, rank)].append((w, b))

    # Stage (b): assembly, extraction and cross count over all set pairs.
    for m, n in super_shapes(p):
        b_sets = [(list(b), _mask(b)) for b in combinations(range(p), n)]
        for a, amask in [(list(a), _mask(a)) for a in combinations(range(p), m)]:
            res.checked += len(b_sets)
            for b, bmask in b_sets:
                text = assemble_symbols(a, b, p)
                if symbol_residues(text) != (a, b) or text.count(CROSS) != (amask & bmask).bit_count():
                    res.fail(f"assembly failed at p={p}, masks {amask:b}/{bmask:b}")

    # Stage (c): the form-route count uses masks shifted by m, the rank of
    # the first block; equality with the ladder masks is checked per block,
    # making the two atypicality routes agree pairwise.
    for m in range(1, p - 1):
        for w, a in mu_rows[m]:
            res.checked += 1
            if sh_mu_mask(w, p) != _mask([(k + m) % p for k in a]):
                res.fail(f"form-route mu mask mismatch at p={p}, {w}")
        for n in range(1, p - m):
            for w, b in nu_rows[(m, n)]:
                res.checked += 1
                if sh_nu_mask(w, p) != _mask([(k + m) % p for k in b]):
                    res.fail(f"form-route nu mask mismatch at p={p}, m={m}, {w}")

    # Stage (d): the shipped codec end to end, one weight at a time, on the
    # widest window [-k, k] inside the suite's that fits the budget.
    k = max(-lo, hi)
    while True:
        clipped = {rank: [w for w in ws if -k <= w[-1] and w[0] <= k] for rank, ws in blocks.items()}
        if sum(len(clipped[m]) * len(clipped[n]) for m, n in super_shapes(p)) <= CODEC_DECODE_MAX_WEIGHTS:
            break
        k -= 1
    for lam in window_weights(p, (max(lo, -k), min(hi, k))):
        res.checked += 1
        try:
            got = decode(encode(lam))
        except (ValidationError, ContractError) as exc:
            got = exc
        if got != lam:
            res.fail(f"decode(encode(lam)) != lam at p={p}, {(lam.mu, lam.nu)}: got {got!r}")
    return res


def _two_term_order_ok(terms) -> bool:
    """A two-term output has equal cross counts and a strictly dominance-smaller first term."""
    if len(terms) < 2:
        return True
    lo, hi = map(decode, terms)
    same_crosses = terms[0].cross_count == terms[1].cross_count
    return same_crosses and dominance_leq(lo, hi) and not dominance_leq(hi, lo)


def suite_equivariance(p: int, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criterion 4: diagram action equals loop action for every residue, and
    every two-term F/E output lists its dominance-smaller term first."""
    res = SuiteResult(f"equivariance suite p={p}")
    for lam in window_weights(p, window):
        d, v = encode(lam), loop_vector(lam)
        for c in range(p):
            res.checked += 1
            terms = _equivariant_terms(d, v, c)
            if terms is None:
                res.fail(f"equivariance failed at {(lam.mu, lam.nu)}, c={c}")
            elif not all(map(_two_term_order_ok, terms)):
                res.fail(f"two-term order failed at {(lam.mu, lam.nu)}, c={c}")
    return res


def _form_atypicality(lam: SuperWeight) -> int:
    """Witness route: odd roots eps_i - delta_j with <lam + rho, root> = 0 mod p.

    Each pairing goes through the bilinear form with 2*(lam + rho), whose
    pairing with an odd root is even, so halving it is exact.
    """
    sh = lam.shape
    k = sh.m + sh.n
    vec = tuple(2 * x + r for x, r in zip(lam.vector, rho2(sh)))
    count = 0
    for i in range(sh.m):
        for j in range(sh.m, k):
            root = tuple(1 if t == i else -1 if t == j else 0 for t in range(k))
            count += form(vec, root, sh) // 2 % sh.p == 0
    return count


def suite_filtration(p: int, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criterion 5: atypicality routes, p-set size, BGG both ways, dominance/degree/Casimir linkage.

    Each window weight's atypicality is compared with the bilinear-form
    count of _form_atypicality before it sizes the p-set.

    BGG reciprocity: each window weight lam lies in kac_composition(alpha)
    for every alpha in p_set(lam); conversely, once per distinct alpha,
    every reported factor lam has alpha in p_set(lam).  For window weights
    the sweep's own p_set images answer that; factors outside the window
    are checked through p_set directly.
    """
    res = SuiteResult(f"filtration/BGG suite p={p}")
    kac_cache: dict[SuperWeight, tuple[set[SuperWeight], int]] = {}  # alpha -> (factors, Casimir residue)
    covers: dict[SuperWeight, set[SuperWeight]] = {}  # alpha -> window lam with alpha in p_set(lam)
    in_window: set[SuperWeight] = set()
    for lam in window_weights(p, window):
        in_window.add(lam)
        ps = p_set(lam)
        for alpha in ps:
            covers.setdefault(alpha, set()).add(lam)
        atyp = atypicality(lam)
        res.checked += 2
        if atyp != _form_atypicality(lam):
            res.fail(f"atypicality routes disagree at {(lam.mu, lam.nu)}")
        if len(ps) != 2 ** atyp:
            res.fail(f"p-set size wrong at {(lam.mu, lam.nu)}")
            continue
        cas = casimir_scalar(lam).residue
        for alpha in ps:
            res.checked += 1
            cached = kac_cache.get(alpha)
            if cached is None:
                cached = kac_cache[alpha] = (kac_composition(alpha), casimir_scalar(alpha).residue)
            comp, alpha_cas = cached
            if not dominance_leq(lam, alpha):
                res.fail(f"dominance fails: {(lam.mu, lam.nu)} vs {alpha}")
            if alpha.degree != lam.degree or alpha_cas != cas:
                res.fail(f"linkage fails: {(lam.mu, lam.nu)} vs {alpha}")
            if alpha != lam and sum(alpha.mu) <= sum(lam.mu):
                res.fail(f"strictness fails: {(lam.mu, lam.nu)} vs {alpha}")
            if lam not in comp:
                res.fail(f"BGG inversion misses {(lam.mu, lam.nu)} for {alpha}")
    for alpha, (comp, _) in kac_cache.items():
        res.checked += 1
        for lam in comp:
            is_factor = lam in covers[alpha] if lam in in_window else alpha in p_set(lam)
            if not is_factor:
                res.fail(f"BGG inversion reports a non-factor {(lam.mu, lam.nu)} for {alpha}")
                break
    return res


def suite_projective_word(
    p: int = 5, max_atypicality: int = 2, window: tuple[int, int] | None = None
) -> SuiteResult:
    """Criterion 6: replaying the translation word rebuilds the filtration."""
    res = SuiteResult(f"projective-word suite p={p}")
    for lam in window_weights(p, window):
        if atypicality(lam) > max_atypicality:
            continue
        res.checked += 1
        base, word = projective_word(lam)
        if not is_typical(base):
            res.fail(f"base not typical for {(lam.mu, lam.nu)}")
        elif replay_word(base, word) != projective_filtration(lam):
            res.fail(f"replay mismatch at {(lam.mu, lam.nu)}")
    return res


def _hat_pairs(p: int, mus: list[tuple[int, ...]], nus: list[tuple[int, ...]]):
    """Yield (mu, nu, sh, hat, sub_all) for every mu in mus and nu in nus, in order.

    sh is the Shapovalov mask test, hat the canonical Serganova walk and
    sub_all the weight minus every odd root.  The walk is a fold of
    column_step over nu, so the walk states of the prefix a nu shares with
    the nu before it are kept and only the later columns are stepped; in
    the depth-first order of the enumerations that is one column step per
    trie node.  p and every block are validated once per sweep.
    """
    check_prime(p)
    check_blocks(mus, nus)
    m, n = len(mus[0]), len(nus[0])
    full_mu, full_nu = sum_odd_roots(m, n)
    nu_rows = []
    prev: tuple = (None,) * n
    for nu in nus:
        shared = 0
        while shared < n - 1 and nu[shared] == prev[shared]:
            shared += 1
        sub_nu = tuple(y - f for y, f in zip(nu, full_nu))
        nu_rows.append((nu, shared, sh_nu_mask(nu, p), sub_nu))
        prev = nu
    for mu in mus:
        mu_bits = sh_mu_mask(mu, p)
        sub_mu = tuple(x - f for x, f in zip(mu, full_mu))
        states = [tuple(mu)] + [()] * n  # running mu after j columns
        hat_nu = [()] * (n + 1)  # terminal nu_1..nu_j after j columns
        for nu, shared, nu_bits, sub_nu in nu_rows:
            for j in range(shared, n):
                states[j + 1], y = column_step(states[j], nu[j], p)
                hat_nu[j + 1] = hat_nu[j] + (y,)
            yield mu, nu, not mu_bits & nu_bits, (states[n], hat_nu[n]), (sub_mu, sub_nu)


def suite_serganova(ps: tuple[int, ...] = (5, 7)) -> SuiteResult:
    """Criterion 7: odd-root lemma, hat/Shapovalov equivalence, typicality transfer.

    The equivalence is checked literally on windowed weights for blocks up to
    (2, 2), and through one monotone representative per residue class for
    blocks up to (4, 4); both sides of the equivalence only depend on the
    entries mod p, so the representative sweep covers every window.  Both
    sweeps check every pair, sharing the walk along common nu prefixes.
    """
    res = SuiteResult("serganova suite")
    for m in range(1, 7):
        for n in range(1, 7):
            res.checked += 1
            if not check_oddroot_lemma(m, n):
                res.fail(f"odd-root lemma fails at ({m}, {n})")
    stages = []  # (message label, p, mus, nus), literal sweeps first
    for p in ps:
        window = {rank: monotone_tuples(rank, -2 * p, 2 * p) for rank in (1, 2)}
        stages += [("hat/Sh", p, window[m], window[n]) for m in window for n in window]
    for p in ps:
        reps = {rank: residue_representatives(rank, p) for rank in range(1, 5)}
        stages += [("residue-class", p, reps[m], reps[n]) for m in reps for n in reps]
    for label, p, mus, nus in stages:
        # The pairs are counted once per stage, keeping the loop lean.
        pairs = 0
        for pairs, (mu, nu, sh, hat, sub_all) in enumerate(_hat_pairs(p, mus, nus), 1):
            if sh != (hat == sub_all):
                res.fail(f"{label} mismatch at p={p}, {(mu, nu)}")
        res.checked += pairs
    for p in ps:
        for lam in window_weights(p, shapes=[s for s in super_shapes(p) if s[0] <= 4 and s[1] <= 4]):
            res.checked += 1
            if sh_nonzero(lam.mu, lam.nu, p) != is_typical(lam):
                res.fail(f"typicality transfer fails at p={p}, {(lam.mu, lam.nu)}")
    return res


def _random_admissible(rank: int, p: int, rng: random.Random) -> GLWeight:
    top = rng.randint(-p, p)
    entries = [top]
    for _ in range(rank - 1):
        entries.append(rng.randint(max(entries[-1] - 2, top - (p - rank)), entries[-1]))
    return GLWeight(tuple(entries), p)


def _random_tuple_weight(
    shape: GLXShape, w: tuple[int, ...], rng: random.Random
) -> TupleWeight:
    """Random parts arranged to make the weight w-integrable."""
    parts = [_random_admissible(t, shape.p, rng) for t in shape.types]
    arranged = list(parts)
    for block in shape.blocks():
        members = sorted(block, key=lambda i: w[i])
        block_parts = sorted((parts[i] for i in block), key=lambda g: -g.degree)
        for i, part in zip(members, block_parts):
            arranged[i] = part
    return TupleWeight(shape, tuple(arranged))


def suite_odd_reflection(
    p: int = 5, window: tuple[int, int] | None = None, trials: int = 1000, seed: int = 2024
) -> SuiteResult:
    """Criterion 8: sigma roundtrip, conjugate relabeling, factorization probe."""
    res = SuiteResult("odd-reflection suite")
    for lam in window_weights(p, window):
        res.checked += 1
        if sigma_to_standard(standard_to_sigma(lam)) != lam:
            res.fail(f"sigma roundtrip fails at {(lam.mu, lam.nu)}")
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(2, 4)
        base_type = rng.randint(1, p - 1)
        shape = GLXShape(p, (base_type,) * k)
        w = list(range(k))
        rng.shuffle(w)
        w = check_permutation(tuple(w), k)
        lam = _random_tuple_weight(shape, w, rng)
        res.checked += 1
        if borel_translate(lam, w) != conjugate_relabel(lam, w):
            res.fail(f"W0 mismatch for types {shape.types}, w={w}")
    for _ in range(trials // 4):
        types = tuple(sorted(rng.randint(1, p - 1) for _ in range(rng.randint(2, 4))))
        shape = GLXShape(p, types)
        w = list(range(shape.k))
        rng.shuffle(w)
        w = tuple(w)
        lam = _random_tuple_weight(shape, w, rng)
        if not w_integrable(lam, w):
            continue
        res.checked += 1
        left = borel_translate(lam, w)
        right = borel_translate(lam, w, rightmost_first=True)
        if left != right:
            res.fail(
                f"factorization discrepancy: types={types}, w={w}, "
                f"parts={[g.entries for g in lam.parts]}, "
                f"left={[g.entries for g in left.parts]}, right={[g.entries for g in right.parts]}"
            )
    return res


def suite_kac_moody(p: int = 5, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criterion 9: [e_a, f_b] = 0 (a != b) and non-adjacent same-kind commuting.

    Per window weight, one translation table holds every ordered composition
    x(y d) the relations read, each built once on the shared single steps;
    [x, y] d = 0 exactly when the entries of (x, y) and (y, x) are equal.
    """
    res = SuiteResult(f"kac-moody suite p={p}")
    ef_pairs = [(a, b) for a in range(p) for b in range(p) if a != b]
    far_pairs = [
        (a, b)
        for a in range(p)
        for b in range(p)
        if (a - b) % p not in (0, 1, p - 1)
    ]
    # Every ordered composition the relations read; far_pairs holds both orders.
    compositions = [c for a, b in ef_pairs for c in ((("E", a), ("F", b)), (("F", b), ("E", a)))]
    compositions += [((kind, a), (kind, b)) for a, b in far_pairs for kind in "EF"]
    for lam in window_weights(p, window):
        table = translation(encode(lam), compositions)

        def commute(x, y) -> bool:
            return table[x, y] == table[y, x]

        for a, b in ef_pairs:
            res.checked += 1
            if not commute(("E", a), ("F", b)):
                res.fail(f"[e_{a}, f_{b}] != 0 on {(lam.mu, lam.nu)}")
        for a, b in far_pairs:
            res.checked += 2
            if not (commute(("E", a), ("E", b)) and commute(("F", a), ("F", b))):
                res.fail(f"distant generators fail to commute on {(lam.mu, lam.nu)}")
    return res


SUITE_BUILDERS = {
    "golden": lambda p: suite_golden(),
    "roundtrip": suite_codec,
    "equivariance": suite_equivariance,
    "filtration": suite_filtration,
    "projective-word": lambda p: suite_projective_word(p),
    "serganova": lambda p: suite_serganova((p,)),
    "odd-reflection": lambda p: suite_odd_reflection(p),
    "kac-moody": lambda p: suite_kac_moody(p),
}


def run_suite(name: str, p: int) -> SuiteResult:
    """Run one suite by name at a prime 5 <= p <= SELFCHECK_MAX_P."""
    try:
        builder = SUITE_BUILDERS[name]
    except KeyError:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(SUITE_BUILDERS)}") from None
    check_prime(p)
    if p > SELFCHECK_MAX_P:
        raise ValidationError(f"selfcheck needs p <= {SELFCHECK_MAX_P}, got {p}")
    return builder(p)

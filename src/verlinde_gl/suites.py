"""Batch self-check suites backing the acceptance criteria and the CLI.

Each suite tallies its run in one SuiteResult and returns it; nothing here
raises on a mathematical failure, so the CLI can print a full report and the
acceptance tests can fail on the verdict.  A failing run still runs to the
end: every failure is counted, and the first three messages are kept.
Enumeration windows default to [-p, p].

The heavy sweeps share work between checks.  Sharing is sound because every
shared function is pure: each distinct input is still computed by the real
code path exactly once, or once per symbol string where a core reads the
label only as a shift (criteria 4, 5, 6 and 9; see caps.label_rows).  Every
counted check runs library code.  What each sweep shares:

- codec (criteria 2, 3): the codec factorizes into block ladders and one
  assembly, so each block weight and each residue-set pair is checked once,
  not once per pair it appears in; one ladder per block weight drives both
  its roundtrip and its form-route mask, and stage (c) runs the shipped
  encode and decode once per weight.
- equivariance (criterion 4): one label_rows row per symbol string, the
  functor/loop comparison of every residue and the two-term order on the
  terms it returned; each weight is encoded once, for its string, and
  each string's loop vector is built once, from its label-(0, 0) diagram.
  Each distinct two-term output of the rows is decoded once per sweep.
- filtration (criterion 5): both directions of BGG read label_rows rows of
  p_set_diagrams and kac_diagrams and compare keys relative to the label;
  each distinct alpha is decoded once.
- projective-word (criterion 6): one label_rows verdict per symbol string
  (the word, its replay and the p-set row); each weight is encoded once,
  for its cross count and its string, and the suite decodes nothing.
- serganova (criterion 7): the shipped batch walk serganova_hats, which
  steps each distinct (walk state, nu_j) once per sweep and walks each run
  of nus that share their first n - 1 entries from one head state.  Every
  stage lists its nus in such runs: the residue stage in runs of p, the
  rank-2 window in runs of 11 on average at p = 5.  Each block's mask and
  block of mu - sum_odd_roots are built once per stage.  Each mu adds
  its len(nus) pairs to the count at once and reads its row of hats as
  one islice of the walk.
- kac-moody (criterion 9): one encode per window weight and one
  label_rows verdict per symbol string, on one translation table: the 2p
  single steps once, then each ordered composition x(y d) once, shared by
  every relation that reads it.  Relation keys are built once per sweep;
  each weight adds its checks at once and reports each failing relation
  under its own (mu, nu).  Like every diagram the library derives, the
  encode and the functor outputs skip WeightDiagram's checks (see
  diagrams).

Criteria 4, 5 and 6 share the diagram space of caps and translation, where
a diagram compares as the tuple (p, symbols, s, r): all three read
label-(0, 0) rows, criterion 4's loop witness builds no diagram, and a
diagram is decoded only for a check that reads its weight, for criterion
4's loop vector or for a failure message; criterion 6 decodes none.
Labels are tuples, validated at the boundary
(see diagrams, superweights): window and decoded weights are one
tuple.__new__ each, skipping SuperWeight's checks, as encoded and derived
diagrams skip WeightDiagram's; a label compares as the tuple of its fields.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, islice

from .alcove import GLWeight, ladder_weight, level_rank_D, psi_data, weight_ladder
from .borel import GLXShape, TupleWeight, borel_translate, conjugate_relabel
from .caps import (
    cap_diagram,
    hat,
    kac_diagrams,
    label_rows,
    lowest_weight,
    p_set,
    p_set_diagrams,
    projective_word_diagrams,
    replay_diagrams,
    sigma_to_standard,
    standard_to_sigma,
)
from .diagrams import CROSS, WeightDiagram, _trusted, assemble_symbols, decode, encode, render_ascii, symbol_residues
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
    check_oddroot_lemma,
    serganova_hat,
    serganova_hats,
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
    expect("figure diagram cut", lambda: render_ascii(encode(fig), 3), "o<ox>>x<oo> @3 t1^-3 t2^2")
    expect("figure label", lambda: encode(fig)[2:], (3, 2))
    expect("figure decode", lambda: decode(encode(fig))[1:], (fig.mu, fig.nu))
    expect("caps", lambda: tuple(cap_diagram(encode(fig)).caps), ((9, 0), (6, 1)))
    expect("free circles", lambda: sorted(cap_diagram(encode(fig)).free_circles), [3, 5])
    want_ps = {
        "o<ox>>x<oo> @3 t1^-3 t2^2",
        "o<ox>>o<xo> @3 t1^-4 t2^3",
        "o<oo>>x<ox> @3 t1^-4 t2^3",
        "o<oo>>o<xx> @3 t1^-5 t2^4",
    }
    expect("p-set diagrams", lambda: {render_ascii(encode(alpha), 3) for alpha in p_set(fig)}, want_ps)
    expect("hat", lambda: hat(fig)[1:], ((19, 19, 15, 15, 15), (-15, -15, -17, -22)))
    expect("hat label", lambda: encode(hat(fig))[2:], (5, 4))
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


# Stage (c) of the codec suite runs encode and decode once per weight, about
# 18 us each: the whole window at p = 5 and 7 (3,677 and 127,555 weights),
# [-2, 2] at p = 11 (164,651 of the window's 87.4M) and [-1, 1] at p = 13.
CODEC_DECODE_BUDGET = 200_000


def suite_codec(p: int, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criteria 2 and 3: codec roundtrip and atypicality agreement.

    The codec factorizes.  Encode runs the ladder of each block on its own
    (weight_ladder, through second_block for the second) and then assembles
    the symbols from the two residue sets (assemble_symbols); decode
    extracts the two sets (symbol_residues) and inverts each block on its
    own (ladder_weight, then second_block).  So decode o encode = id on a
    window follows from its parts, which the suite verifies exhaustively:

      (a) one ladder per windowed block weight of every rank, as a first
          block and as a second block of every shape: its roundtrip, and
          the form-route atypicality mask against its residues,
      (b) assembly/extraction and cross counting over *all* residue-set
          pairs of every shape (a superset of what the window produces),
      (c) decode(encode(lam)) == lam with the shipped encode and decode, on
          the widest window [-k, k] inside the suite's whose weights number
          at most CODEC_DECODE_BUDGET.

    The identity also gives injectivity of encode over the window, and (a)
    with (b) gives the cross-count agreement of the two atypicality routes
    for every pair.
    """
    lo, hi = window if window is not None else default_window(p)
    res = SuiteResult(f"codec+atypicality suite p={p}")
    blocks = {rank: admissible_tuples(rank, p, lo, hi) for rank in range(1, p - 1)}

    # Stage (a): each ladder checks its block's roundtrip and its form-route
    # mask, which shifts the residues by m, the rank of the first block; a
    # first block of rank m is its own shift.
    for m, weights in blocks.items():
        for w in weights:
            res.checked += 2
            a, s = weight_ladder(w, p)
            if ladder_weight(a, s, p) != w:
                res.fail(f"mu-block roundtrip failed at p={p}, {w}")
            if sh_mu_mask(w, p) != _mask([(k + m) % p for k in a]):
                res.fail(f"form-route mu mask mismatch at p={p}, {w}")
    for m, n in super_shapes(p):
        for w in blocks[n]:
            res.checked += 2
            b, r = weight_ladder(second_block(w, m), p)
            if second_block(ladder_weight(b, r, p), m) != w:
                res.fail(f"nu-block roundtrip failed at p={p}, m={m}, {w}")
            if sh_nu_mask(w, p) != _mask([(k + m) % p for k in b]):
                res.fail(f"form-route nu mask mismatch at p={p}, m={m}, {w}")

    # Stage (b): assembly, extraction and cross count over all set pairs.
    for m, n in super_shapes(p):
        b_sets = [(list(b), _mask(b)) for b in combinations(range(p), n)]
        for a, amask in [(list(a), _mask(a)) for a in combinations(range(p), m)]:
            res.checked += len(b_sets)
            for b, bmask in b_sets:
                text = assemble_symbols(a, b, p)
                if symbol_residues(text) != (a, b) or text.count(CROSS) != (amask & bmask).bit_count():
                    res.fail(f"assembly failed at p={p}, masks {amask:b}/{bmask:b}")

    # Stage (c): the shipped codec end to end, one weight at a time, on the
    # widest window [-k, k] inside the suite's that fits the budget.
    k = max(-lo, hi)
    while True:
        clipped = {rank: [w for w in ws if -k <= w[-1] and w[0] <= k] for rank, ws in blocks.items()}
        if sum(len(clipped[m]) * len(clipped[n]) for m, n in super_shapes(p)) <= CODEC_DECODE_BUDGET:
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


def _two_term_order_ok(terms, weights: dict[WeightDiagram, SuperWeight]) -> bool:
    """A two-term output has equal cross counts and a strictly dominance-smaller first term.

    weights holds the sweep's decoded terms; a term not in it is decoded
    and added, so each distinct term is decoded once per sweep.
    """
    if len(terms) < 2:
        return True
    for t in terms:
        if t not in weights:
            weights[t] = decode(t)
    lo, hi = terms
    wlo, whi = weights[lo], weights[hi]
    return lo.cross_count == hi.cross_count and dominance_leq(wlo, whi) and not dominance_leq(whi, wlo)


def _equivariance_row(d: WeightDiagram, weights: dict[WeightDiagram, SuperWeight]) -> tuple[tuple[object, bool], ...]:
    """Criterion 4's core on one diagram: for each residue c, what
    _equivariant_terms returns on d and its loop vector (the F and E terms,
    or None), and whether both of its two-term outputs list the
    dominance-smaller term first (False where the terms are None)."""
    v = loop_vector(decode(d))
    row = []
    for c in range(d.p):
        terms = _equivariant_terms(d, v, c)
        row.append((terms, terms is not None and all(_two_term_order_ok(t, weights) for t in terms)))
    return tuple(row)


def suite_equivariance(p: int, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criterion 4: diagram action equals loop action for every residue, and
    every two-term F/E output lists its dominance-smaller term first.

    Both verdicts are a label_rows row per symbol string: _equivariance_row
    on d0 = (p, symbols, 0, 0), whose loop vector is that of decode(d0).
    Each side reads a label only as a shift.  apply_functor reads only the
    symbols (see caps.label_rows).  loop_vector(lam) and encode(lam) come
    from the same residue_data, so lam's loop vector carries the diagram's
    (s, r); _loop_move adds its twist to s and r whatever their values and
    reads the residues only as sets, as assemble_symbols does, though their
    weight order turns with s and r.  So at label (s, r) both sides are the
    row's terms moved by (s, r), and they agree exactly where the row's do.
    The order check holds at every label too: a term's sum(mu) is
    sum(a) + p*s + m(m-1)/2, and sum(nu) is likewise a function of the
    residues and r (through second_block), so a shift adds the same amount
    to the degree and to sum(mu) of both terms, which share m and n, and
    cross counts are read off the symbols.

    Each weight is encoded once, for its string, adds its p checks at once
    and reports each failing (check, c) of its string under its own
    (mu, nu).  Each distinct two-term output of the rows is decoded once
    per sweep, and each string once more for its loop vector.
    """
    res = SuiteResult(f"equivariance suite p={p}")
    weights: dict[WeightDiagram, SuperWeight] = {}
    rows = label_rows(lambda d: _equivariance_row(d, weights))
    for lam in window_weights(p, window):
        res.checked += p
        for c, (terms, ordered) in enumerate(rows(encode(lam).symbols)):
            if terms is None:
                res.fail(f"equivariance failed at {(lam.mu, lam.nu)}, c={c}")
            elif not ordered:
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

    BGG reciprocity is checked on diagrams, which stand for their weights
    because encode is injective (criterion 2): each window weight's diagram
    d lies in kac_diagrams(alpha) for every alpha in p_set_diagrams(d);
    conversely, once per distinct alpha, every reported factor lam has
    alpha in p_set_diagrams(lam).  Both cores are read as label_rows rows:
    for (p, t, ds, dr) in the row of d = (p, symbols, s, r), alpha is
    (p, t, s + ds, r + dr), and d in kac_diagrams(alpha) reads
    (p, symbols, -ds, -dr) in the Kac row of t.  Each distinct alpha is
    decoded once, for the dominance, degree, Casimir and strictness checks.
    """
    res = SuiteResult(f"filtration/BGG suite p={p}")
    psets, kacs = label_rows(p_set_diagrams), label_rows(kac_diagrams)
    # alpha's (symbols, s, r) -> (its weight, degree, sum(mu) and Casimir residue)
    alphas: dict[tuple[str, int, int], tuple[SuperWeight, int, int, int]] = {}
    for lam in window_weights(p, window):
        _, symbols, s, r = encode(lam)
        ps = psets(symbols)
        atyp = atypicality(lam)
        res.checked += 2
        if atyp != _form_atypicality(lam):
            res.fail(f"atypicality routes disagree at {(lam.mu, lam.nu)}")
        if len(ps) != 2 ** atyp:
            res.fail(f"p-set size wrong at {(lam.mu, lam.nu)}")
            continue
        degree, mu_sum, cas = lam.degree, sum(lam.mu), casimir_scalar(lam).residue
        for _, t, ds, dr in ps:
            res.checked += 1
            key = (t, s + ds, r + dr)
            cached = alphas.get(key)
            if cached is None:
                alpha = decode(_trusted(p, *key))
                cached = alphas[key] = (alpha, alpha.degree, sum(alpha.mu), casimir_scalar(alpha).residue)
            alpha, alpha_degree, alpha_mu_sum, alpha_cas = cached
            if not dominance_leq(lam, alpha):
                res.fail(f"dominance fails: {(lam.mu, lam.nu)} vs {alpha}")
            if alpha_degree != degree or alpha_cas != cas:
                res.fail(f"linkage fails: {(lam.mu, lam.nu)} vs {alpha}")
            if alpha != lam and alpha_mu_sum <= mu_sum:
                res.fail(f"strictness fails: {(lam.mu, lam.nu)} vs {alpha}")
            if (p, symbols, -ds, -dr) not in kacs(t):
                res.fail(f"BGG inversion misses {(lam.mu, lam.nu)} for {alpha}")
    for (t, s, r), (alpha, *_) in alphas.items():
        res.checked += 1
        for _, u, ds, dr in kacs(t):
            if (p, t, -ds, -dr) not in psets(u):
                lam = decode(_trusted(p, u, s + ds, r + dr))
                res.fail(f"BGG inversion reports a non-factor {(lam.mu, lam.nu)} for {alpha}")
                break
    return res


def suite_projective_word(p: int, max_atypicality: int = 2, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criterion 6: replaying the translation word rebuilds the filtration.

    The verdict is a label_rows row per symbol string: at label (0, 0) the
    replay of projective_word_diagrams' word on its base must be the p-set
    row, each diagram with multiplicity 1, and the base typical, which is
    no cross (a cross count is an atypicality, criterion 3).  A library
    error in the core is the string's failure, its message naming the
    exception.  Each weight is encoded once, for its cross count and its
    string, and reports a failure under its own (mu, nu).  The suite
    decodes nothing.
    """
    res = SuiteResult(f"projective-word suite p={p}")

    def failure(d: WeightDiagram) -> str | None:
        try:
            base, word = projective_word_diagrams(d)
            if base.cross_count:
                return "base not typical for"
            if replay_diagrams(base, word) != dict.fromkeys(p_set_diagrams(d), 1):
                return "replay mismatch at"
        except (ValidationError, ContractError) as exc:
            return f"{type(exc).__name__} ({exc}) at"
        return None

    verdicts = label_rows(failure)
    for lam in window_weights(p, window):
        d = encode(lam)
        if d.cross_count > max_atypicality:
            continue
        res.checked += 1
        message = verdicts(d.symbols)
        if message:
            res.fail(f"{message} {(lam.mu, lam.nu)}")
    return res


def suite_serganova(ps: tuple[int, ...] = (5, 7)) -> SuiteResult:
    """Criterion 7: odd-root lemma, hat/Shapovalov equivalence, typicality transfer.

    The equivalence is checked literally on windowed weights for blocks up to
    (2, 2), and through one monotone representative per residue class for
    blocks up to (4, 4); both sides of the equivalence only depend on the
    entries mod p, so the representative sweep covers every window.  Both
    sweeps check every pair with serganova_hats, the shipped walk.
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
        # The pairs are counted once per mu, len(nus) at a time, keeping the loop lean.
        full_mu, full_nu = sum_odd_roots(len(mus[0]), len(nus[0]))
        nu_rows = [(nu, sh_nu_mask(nu, p), tuple(y - f for y, f in zip(nu, full_nu))) for nu in nus]
        hats = serganova_hats(mus, nus, p)
        for mu in mus:
            mu_bits = sh_mu_mask(mu, p)
            sub_mu = tuple(x - f for x, f in zip(mu, full_mu))
            res.checked += len(nus)
            for (nu, nu_bits, sub_nu), (hat_mu, hat_nu) in zip(nu_rows, islice(hats, len(nus))):
                if (not mu_bits & nu_bits) != (hat_nu == sub_nu and hat_mu == sub_mu):
                    res.fail(f"{label} mismatch at p={p}, {(mu, nu)}")
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


def _random_probe(p: int, types: tuple[int, ...], rng: random.Random) -> tuple[TupleWeight, tuple[int, ...]]:
    """A random block permutation w and random parts arranged to make the weight w-integrable."""
    shape = GLXShape(p, types)
    w = list(range(shape.k))
    rng.shuffle(w)
    parts = [_random_admissible(t, p, rng) for t in types]
    arranged = list(parts)
    for block in shape.blocks():
        members = sorted(block, key=lambda i: w[i])
        block_parts = sorted((parts[i] for i in block), key=lambda g: -g.degree)
        for i, part in zip(members, block_parts):
            arranged[i] = part
    return TupleWeight(shape, tuple(arranged)), tuple(w)


def suite_odd_reflection(p: int, window: tuple[int, int] | None = None, trials: int = 1000) -> SuiteResult:
    """Criterion 8: sigma roundtrip, conjugate relabeling, factorization probe."""
    res = SuiteResult("odd-reflection suite")
    for lam in window_weights(p, window):
        res.checked += 1
        if sigma_to_standard(standard_to_sigma(lam)) != lam:
            res.fail(f"sigma roundtrip fails at {(lam.mu, lam.nu)}")
    rng = random.Random(2024)
    for _ in range(trials):
        k = rng.randint(2, 4)
        lam, w = _random_probe(p, (rng.randint(1, p - 1),) * k, rng)
        res.checked += 1
        if borel_translate(lam, w) != conjugate_relabel(lam, w):
            res.fail(f"W0 mismatch for types {lam.shape.types}, w={w}")
    for _ in range(trials // 4):
        types = tuple(sorted(rng.randint(1, p - 1) for _ in range(rng.randint(2, 4))))
        lam, w = _random_probe(p, types, rng)
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


def suite_kac_moody(p: int, window: tuple[int, int] | None = None) -> SuiteResult:
    """Criterion 9: [e_a, f_b] = 0 (a != b) and non-adjacent same-kind commuting.

    One translation table holds every ordered composition x(y d) the
    relations read, each built once on the shared single steps; [x, y] d = 0
    exactly when the entries of (x, y) and (y, x) are equal.  The table keys
    of each relation are built once per sweep, and the failing relations
    are a label_rows row of the table at label (0, 0).  Each weight counts
    its checks at once, one per [e_a, f_b] and two per distant pair (its E
    and F relations), and reports each failing relation of its symbol
    string under its own (mu, nu).
    """
    res = SuiteResult(f"kac-moody suite p={p}")
    # Each relation's (a, b) and table keys, built once per sweep: [e_a, f_b]
    # reads E_a F_b and F_b E_a, a distant pair both orders of E_a E_b and F_a F_b.
    ef_keys = [(a, b, (("E", a), ("F", b)), (("F", b), ("E", a))) for a in range(p) for b in range(p) if a != b]
    far_keys = [
        (a, b, (("E", a), ("E", b)), (("E", b), ("E", a)), (("F", a), ("F", b)), (("F", b), ("F", a)))
        for a in range(p)
        for b in range(p)
        if (a - b) % p not in (0, 1, p - 1)
    ]
    # Every ordered composition the relations read, once each: far pairs come in both orders.
    compositions = [key for _, _, ef, fe in ef_keys for key in (ef, fe)]
    compositions += [key for _, _, eab, _, fab, _ in far_keys for key in (eab, fab)]
    checks = len(ef_keys) + 2 * len(far_keys)

    def failing(d: WeightDiagram) -> list[str]:
        table = translation(d, compositions)
        messages = [f"[e_{a}, f_{b}] != 0" for a, b, ef, fe in ef_keys if table[ef] != table[fe]]
        messages += [
            "distant generators fail to commute"
            for _, _, eab, eba, fab, fba in far_keys
            if table[eab] != table[eba] or table[fab] != table[fba]
        ]
        return messages

    verdicts = label_rows(failing)
    for lam in window_weights(p, window):
        res.checked += checks
        for message in verdicts(encode(lam).symbols):
            res.fail(f"{message} on {(lam.mu, lam.nu)}")
    return res


SUITE_BUILDERS = {
    "golden": lambda p: suite_golden(),
    "roundtrip": suite_codec,
    "equivariance": suite_equivariance,
    "filtration": suite_filtration,
    "projective-word": suite_projective_word,
    "serganova": lambda p: suite_serganova((p,)),
    "odd-reflection": suite_odd_reflection,
    "kac-moody": suite_kac_moody,
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

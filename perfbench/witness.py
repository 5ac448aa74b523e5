"""Independent checks of library results, and the canonical form used for digests.

Each check recomputes a property of a timed result through a different
public route of the library (or, for fusion, through the Verlinde formula),
outside the timed interval.  A check returns None when the result holds and a
short reason when it does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math


def canon(obj):
    """Plain JSON-ready form of a library value; sets and dicts are sorted."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted((canon(x) for x in obj), key=_key)
    if isinstance(obj, dict):
        return sorted(([canon(k), canon(v)] for k, v in obj.items()), key=_key)
    if isinstance(obj, (tuple, list)):
        return [canon(x) for x in obj]
    return obj


def _key(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Digest:
    """sha256 over the canonical records of a run's fixed digest prefix."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.records = 0

    def add(self, *parts) -> None:
        self._h.update(_key(canon(list(parts))).encode())
        self._h.update(b"\n")
        self.records += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def verlinde_multiplicity(i: int, j: int, k: int, p: int) -> int:
    """N_ij^k of Ver_p from the Verlinde formula over the S-matrix sin(pi*a*b/p)."""
    total = 0.0
    for s in range(1, p):
        total += (
            math.sin(math.pi * i * s / p)
            * math.sin(math.pi * j * s / p)
            * math.sin(math.pi * k * s / p)
            / math.sin(math.pi * s / p)
        )
    return round(total * 2 / p)


class Witness:
    """Checks bound to a library namespace (the package module)."""

    def __init__(self, lib) -> None:
        self.lib = lib

    def check(self, kind: str, args: tuple, result) -> str | None:
        return getattr(self, "w_" + kind.replace("-", "_"))(*args, result)

    # --- codec -------------------------------------------------------------
    def w_encode(self, lam, d):
        if self.lib.decode(d) != lam:
            return "decode(encode(lam)) != lam"
        if d.cross_count != self.lib.atypicality(lam):
            return "cross count != atypicality"
        return None

    def w_decode(self, d, lam):
        if self.lib.encode(lam) != d:
            return "encode(decode(d)) != d"
        return None

    def w_render_ascii(self, d, k, text):
        symbols, at, e1, e2 = text.split(" ")
        if at != f"@{k}" or symbols != d.symbols[k:] + d.symbols[:k]:
            return "cut view is not the diagram read from the cut vertex"
        if (e1, e2) != (f"t1^{-d.s}", f"t2^{d.r}"):
            return "label exponents differ"
        return None

    def w_atypicality(self, lam, k):
        return None if k == self.lib.encode(lam).cross_count else "atypicality != crosses"

    def w_casimir_scalar(self, lam, cas):
        m, n = lam.shape.m, lam.shape.n
        value = sum(x * (x + m - n - 2 * i + 1) for i, x in enumerate(lam.mu, 1))
        value -= sum(y * (y + n + m - 2 * j + 1) for j, y in enumerate(lam.nu, 1))
        if (cas.value, cas.residue) != (value, value % lam.shape.p):
            return "Casimir differs from <lam + 2 rho, lam>"
        return None

    # --- caps --------------------------------------------------------------
    def w_cap_diagram(self, d, cd):
        crosses = {k for k, sym in enumerate(d.symbols) if sym == "x"}
        circles = {k for k, sym in enumerate(d.symbols) if sym == "o"}
        if {c.source for c in cd.caps} != crosses:
            return "cap sources are not the crosses"
        tails = {c.tail for c in cd.caps}
        if len(tails) != len(cd.caps) or not tails <= circles:
            return "cap tails are not distinct circles"
        if cd.free_circles != circles - tails:
            return "free circles wrong"
        return None

    def w_p_set(self, lam, ps):
        if len(ps) != 2 ** self.lib.atypicality(lam) or lam not in ps:
            return "|p_set| != 2^atypicality"
        return None

    def w_hat(self, lam, h):
        ps = self.lib.p_set(lam)
        if h not in ps or sum(h.mu) != max(sum(a.mu) for a in ps):
            return "hat is not the top of p_set"
        return None

    def w_lowest_weight(self, lam, low):
        h = self.lib.hat(lam)
        b = self.lib.beta(lam.shape)
        m = lam.shape.m
        want = (
            tuple(h.mu[i] - b[i] for i in range(m)),
            tuple(h.nu[j] - b[m + j] for j in range(lam.shape.n)),
        )
        return None if low == want else "lowest weight != hat - beta"

    def w_dual_simple_label(self, lam, dual):
        return None if self.lib.dual_simple_label(dual) == lam else "dual label is not an involution"

    def w_standard_to_sigma(self, lam, kappa):
        return None if self.lib.sigma_to_standard(kappa) == lam else "sigma roundtrip fails"

    def w_sigma_to_standard(self, kappa, lam):
        return None if self.lib.standard_to_sigma(lam) == kappa else "sigma roundtrip fails"

    def w_kac_composition(self, alpha, factors):
        if alpha not in factors:
            return "alpha missing from its own composition factors"
        for lam in factors:
            if alpha not in self.lib.p_set(lam):
                return "alpha not in p_set(lam) for a returned factor"
        return None

    def w_projective_word(self, lam, out):
        base, word, classes = out
        if not self.lib.is_typical(base):
            return "projective word base is not typical"
        if classes != self.lib.projective_filtration(lam):
            return "replay_word != projective_filtration"
        return None

    def w_projective_filtration(self, lam, table):
        if set(table.values()) != {1} or set(table) != self.lib.p_set(lam):
            return "filtration is not multiplicity one on p_set"
        return None

    # --- translation ------------------------------------------------------
    def w_translate_kac(self, kind, c, lam, ext):
        lib = self.lib
        if not lib.phi_equivariance_check(lam, c):
            return "phi equivariance fails"
        loop = (lib.loop_f if kind == "F" else lib.loop_e)(c, lib.loop_vector(lam))
        want = sorted((sorted(v.a), v.s, sorted(v.b), v.r) for v in loop)
        terms = () if ext is None else ext.terms
        got = []
        for t in terms:
            v = lib.loop_vector(t)
            got.append((sorted(v.a), v.s, sorted(v.b), v.r))
        return None if sorted(got) == want else "Kac terms differ from the loop action"

    # --- serganova ---------------------------------------------------------
    def _full_subtraction(self, mu, nu):
        return tuple(x - len(nu) for x in mu), tuple(y + len(mu) for y in nu)

    def w_serganova_hat(self, mu, nu, p, hat):
        full = self._full_subtraction(mu, nu)
        if self.lib.sh_nonzero(mu, nu, p) != (hat == full):
            return "sh_nonzero <=> full subtraction fails"
        if sum(hat[0]) + sum(hat[1]) != sum(mu) + sum(nu):
            return "degree not conserved"
        return None

    def w_sh_nonzero(self, mu, nu, p, nz):
        full = self._full_subtraction(mu, nu)
        return None if nz == (self.lib.serganova_hat(mu, nu, p) == full) else "sh_nonzero <=> full subtraction fails"

    # --- borel, fusion, alcove --------------------------------------------
    def w_borel_translate(self, lam, w, out):
        lib = self.lib
        if len(set(lam.shape.types)) == 1:
            return None if out == lib.conjugate_relabel(lam, w) else "borel_translate != conjugate_relabel"
        if out != lib.borel_translate(lam, w, rightmost_first=True):
            return "borel_translate depends on the factorization"
        return None

    def w_fuse_simples(self, i, j, p, out):
        want = [k for k in range(1, p) if verlinde_multiplicity(i, j, k, p)]
        return None if out == want else "fusion differs from the Verlinde formula"

    def w_level_rank_D(self, lam, out):
        image, parity = out
        back, _ = self.lib.level_rank_D(image)
        if back != lam or parity != lam.degree % 2:
            return "level-rank is not an involution"
        if lam.degree == 0 and self.lib.alcove.level_rank_degree_zero(lam) != image:
            return "level-rank differs from the degree-zero oracle"
        return None

    def w_tensor_with_V(self, lam, out):
        by_content = {self.lib.add_box(lam, c) for c in range(lam.p)} - {None}
        return None if set(out) == by_content and len(out) == len(by_content) else "V summands differ from box addition"


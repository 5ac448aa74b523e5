"""Acceptance gate: one test per criterion, printing a pass/fail line each.

All checks are exact (integer combinatorics); the enumeration window is
[-p, p] entrywise.  The heavier sweeps take a few minutes combined.
"""

from verlinde_gl.suites import (
    suite_codec,
    suite_equivariance,
    suite_filtration,
    suite_golden,
    suite_kac_moody,
    suite_odd_reflection,
    suite_projective_word,
    suite_serganova,
)


def _report(criterion: str, results, checks: int) -> None:
    """Print the criterion's lines; assert its verdict and its pinned check
    count, so a sweep that shrinks fails the gate."""
    if not isinstance(results, list):
        results = [results]
    ok = all(r.ok for r in results)
    checked = sum(r.checked for r in results)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({checked} checks)")
    for r in results:
        print(f"  - {r.line()}")
    assert ok, "; ".join(r.details for r in results if not r.ok)
    assert checked == checks, f"{checked} checks, want {checks}"


def test_criterion_1_golden_examples():
    _report("1 golden examples", suite_golden(), 15)


def test_criterion_2_and_3_codec_and_atypicality():
    # Roundtrip + injectivity (criterion 2) and the cross-count agreement
    # (criterion 3) share one staged enumeration per characteristic.
    _report("2+3 codec/atypicality", [suite_codec(p) for p in (5, 7, 11)], 2_239_090)


def test_criterion_4_phi_equivariance():
    _report("4 phi-equivariance", [suite_equivariance(p) for p in (5, 7)], 911_270)


def test_criterion_5_filtration_bgg():
    _report("5 filtration/BGG", [suite_filtration(p) for p in (5, 7)], 702_829)


def test_criterion_6_projective_word_replay():
    _report("6 projective-word replay", suite_projective_word(5, max_atypicality=2), 3_677)


def test_criterion_7_serganova():
    _report("7 serganova", suite_serganova((5, 7)), 8_852_438)


def test_criterion_8_odd_reflection():
    _report("8 odd reflection / borel", suite_odd_reflection(5, trials=1000), 4_927)


def test_criterion_9_kac_moody():
    _report("9 kac-moody relations", suite_kac_moody(5), 147_080)

"""The CRT fold, the coprimality check on moduli, and the
congruence/avoidance solver."""

import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from triplepack.dioph import DiophInstance, _crt_fold, solve_avoidance
from triplepack.errors import InvalidParameterError

M31, M61, M89 = 2**31 - 1, 2**61 - 1, 2**89 - 1  # Mersenne primes


@pytest.fixture(scope="module")
def sympy():
    """Reference implementation; a test-time oracle only."""
    return pytest.importorskip("sympy")


def accepted(*moduli: int) -> bool:
    """Whether DiophInstance takes these moduli, as equalities on residue
    0, that is, whether they are pairwise coprime; any other refusal
    propagates."""
    try:
        DiophInstance(equalities=[(m, 0) for m in moduli], avoidances=())
    except InvalidParameterError as exc:
        if "not coprime" in str(exc):
            return False
        raise
    return True


def prime_power(m: int) -> bool:
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return m == 1


def pairwise_coprime(moduli) -> bool:
    return all(gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1:])


class TestCrt:
    def test_frozen_triple(self):
        # x=1 (4), x=2 (9), x=3 (5): least non-negative solution mod 180
        assert _crt_fold([(4, 1), (9, 2), (5, 3)]) == (173, 180)

    def test_single(self):
        assert _crt_fold([(7, 5)]) == (5, 7)

    def test_zero_residue_gives_modulus(self):
        # the solver's answer is the least POSITIVE representative
        assert solve_avoidance(DiophInstance(equalities=((7, 0),), avoidances=())) == 7

    def test_rejects_common_factor(self):
        # the fold needs coprime moduli; an instance whose moduli share a
        # factor is refused before any fold, at small and at large moduli
        # and when neither modulus is a prime power
        with pytest.raises(InvalidParameterError, match="not coprime"):
            DiophInstance(equalities=((4, 1), (8, 5)), avoidances=())
        with pytest.raises(InvalidParameterError, match="not coprime"):
            DiophInstance(equalities=((M31, 1),), avoidances=((M31**2, (0,)),))
        with pytest.raises(InvalidParameterError, match="not coprime"):
            DiophInstance(equalities=((6, 1), (9, 4)), avoidances=())

    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip(self, x):
        moduli = (7, 9, 11, 13)
        got, prod = _crt_fold([(m, x % m) for m in moduli])
        assert prod == 7 * 9 * 11 * 13
        assert 0 <= got < prod
        assert all(got % m == x % m for m in moduli)


class TestPrimePowers:
    """Moduli need not be prime powers: only coprimality is checked."""

    def test_is_prime_power(self):
        # prime powers and composites alike, as long as they are coprime
        assert accepted(8) and accepted(27) and accepted(13)
        assert accepted(12) and accepted(6, 35, 143) and accepted(8, 27, 25, 77)
        assert not accepted(12, 18) and not accepted(6, 35, 143, 91)
        assert accepted(1009 * M31**2, 2 * M61)  # a small factor and a large cofactor
        with pytest.raises(InvalidParameterError, match="< 2"):
            accepted(1)

    @pytest.mark.parametrize("call, expected", [
        (lambda: accepted(M61), True),
        (lambda: accepted(M31**3), True),
        (lambda: accepted(M31 * M61, M61**2), False),
        (lambda: DiophInstance(((M31, 1),), ((M61, (0,)),)).avoidances, ((M61, (0,)),)),
        (lambda: DiophInstance(((1009, 1),), ((M31**2, (0,)),)).avoidances, ((M31**2, (0,)),)),
    ])
    def test_large_moduli_within_budget(self, call, expected):
        start = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - start < 1.0

    def test_huge_moduli_solve(self):
        # no primality test limits the moduli
        assert solve_avoidance(DiophInstance(equalities=((M89, 1),), avoidances=())) == 1
        inst = DiophInstance(equalities=((2 * M89, 1),), avoidances=((M61, (1,)),))
        assert solve_avoidance(inst) == 2 * M89 + 1

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(2, 60), st.booleans()), max_size=6))
    def test_accepted_iff_pairwise_coprime(self, drawn):
        # any moduli of the right size, each an equality or (from 4 up)
        # an avoidance: accepted exactly when a gcd oracle finds them
        # pairwise coprime
        eqs = [(m, m - 1) for m, avoid in drawn if not (avoid and m >= 4)]
        avs = [(m, (0,)) for m, avoid in drawn if avoid and m >= 4]
        try:
            DiophInstance(equalities=eqs, avoidances=avs)
        except InvalidParameterError as exc:
            assert "not coprime" in str(exc)
            ok = False
        else:
            ok = True
        assert ok == pairwise_coprime([m for m, _ in drawn])


class TestAgainstSympy:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(1, 10**4), st.integers(-10**6, 10**6)),
                    min_size=1, max_size=6))
    def test_crt(self, sympy, drawn):
        pairs = []
        for m, a in drawn:  # keep a pairwise coprime subset
            if all(gcd(m, other) == 1 for other, _ in pairs):
                pairs.append((m, a))
        x, modulus = sympy.ntheory.modular.crt(
            [m for m, _ in pairs], [a for _, a in pairs]
        )
        assert _crt_fold(pairs) == (int(x) % int(modulus), int(modulus))


class TestInstanceValidation:
    def test_rejects_composite_modulus(self):
        # a composite modulus is refused only for a factor it shares
        assert solve_avoidance(DiophInstance(equalities=((6, 1),), avoidances=())) == 1
        inst = DiophInstance(equalities=((6, 5),), avoidances=((35, (5, 11)),))
        assert solve_avoidance(inst) == 17
        with pytest.raises(InvalidParameterError, match="not coprime"):
            DiophInstance(equalities=((6, 1),), avoidances=((15, (1,)),))

    def test_rejects_shared_base(self):
        with pytest.raises(InvalidParameterError):
            DiophInstance(equalities=((4, 1),), avoidances=((8, (1,)),))

    def test_rejects_full_avoidance(self):
        with pytest.raises(InvalidParameterError):
            DiophInstance(equalities=(), avoidances=((5, (0, 1, 2, 3, 4)),))

    @pytest.mark.parametrize("eqs, avs", [
        (((4, 1.5),), ()),
        (((4.7, 1),), ()),
        (((True, 0),), ()),
        (((4, 1),), ((7, (1, 2.0)),)),
        ((), ((7, (1.5, 2, 3)),)),
        ((), ((7.0, (1,)),)),
        ((), ((5, (False,)),)),
    ])
    def test_rejects_non_integers(self, eqs, avs):
        # refused, not truncated: (4, 1.5) used to become (4, 1)
        with pytest.raises(InvalidParameterError, match="expected an integer"):
            DiophInstance(equalities=eqs, avoidances=avs)

    def test_rejects_small_avoidance_modulus(self):
        with pytest.raises(InvalidParameterError):
            DiophInstance(equalities=(), avoidances=((3, (1,)),))


# prime powers by prime base; an avoidance modulus must be at least 4
PRIME_POWERS = {2: (2, 4, 8, 16, 32), 3: (3, 9, 27), 5: (5, 25), 7: (7, 49),
                11: (11,), 13: (13,), 17: (17,), 19: (19,), 23: (23,)}


@st.composite
def instances(draw):
    """Equalities and avoidances on prime powers with distinct bases."""
    bases = draw(st.lists(st.sampled_from(sorted(PRIME_POWERS)), unique=True,
                          min_size=1, max_size=5))
    eqs, avs = [], []
    for base in bases:
        m = draw(st.sampled_from(PRIME_POWERS[base]))
        if m >= 4 and draw(st.booleans()):
            forb = draw(st.lists(st.integers(0, m - 1), unique=True,
                                 min_size=1, max_size=min(m - 1, 5)))
            avs.append((m, tuple(forb)))
        else:
            eqs.append((m, draw(st.integers(0, m - 1))))
    return DiophInstance(equalities=tuple(eqs), avoidances=tuple(avs))


def check_least_in_class(inst, scan_up_to=10**5) -> bool:
    """Assert that solve_avoidance gives a solution within N'(F + 2), and
    when that bound is at most ``scan_up_to`` that a scan of 1, 2, ...
    finds no smaller member of the class.  The class: every equality, and
    each avoidance modulus below the window F + 1 pinned to its least
    allowed residue.  True when the scan ran."""
    forbidden = sum(len(f) for _, f in inst.avoidances)
    pinned = [(q, next(e for e in range(q) if e not in f))
              for q, f in inst.avoidances if q < forbidden + 1]
    n_prime = 1
    for m, _ in list(inst.equalities) + pinned:
        n_prime *= m
    bound = n_prime * (forbidden + 2)
    x = solve_avoidance(inst)
    assert inst.satisfied_by(x) and 1 <= x <= bound
    if bound > scan_up_to:
        return False
    first = next(
        y for y in range(1, bound + 1)
        if inst.satisfied_by(y) and all(y % q == e for q, e in pinned)
    )
    assert x == first
    return True


class TestSolver:
    @settings(max_examples=300)
    @given(instances())
    def test_least_solution_of_the_class_within_the_bound(self, inst):
        check_least_in_class(inst)

    def test_composite_moduli_against_scan(self):
        # coprime moduli in 2..59, most instances with one that is not a
        # prime power: the answer is the least member of its class, as a
        # scan of 1, 2, ... finds it
        rng = random.Random(20261019)
        scanned = composite = 0
        for _ in range(400):
            moduli = []
            for m in rng.sample(range(2, 60), 6):
                if len(moduli) < 4 and all(gcd(m, other) == 1 for other in moduli):
                    moduli.append(m)
            eqs, avs = [], []
            for m in moduli:
                if m >= 4 and rng.random() < 0.6:
                    avs.append((m, tuple(rng.sample(range(m), rng.randint(1, min(3, m - 1))))))
                else:
                    eqs.append((m, rng.randrange(m)))
            inst = DiophInstance(equalities=eqs, avoidances=avs)
            if check_least_in_class(inst):
                scanned += 1
                composite += not all(prime_power(m) for m in moduli)
        assert scanned >= 300 and composite >= 250

    def test_equalities_only(self):
        inst = DiophInstance(equalities=((4, 3), (9, 4)), avoidances=())
        x = solve_avoidance(inst)
        assert inst.satisfied_by(x)
        assert x == 31

    def test_mixed(self):
        inst = DiophInstance(
            equalities=((4, 1), (9, 2)),
            avoidances=((5, (0, 2, 4)), (7, (1, 2, 3))),
        )
        x = solve_avoidance(inst)
        assert inst.satisfied_by(x)

    def test_minimality_within_class(self):
        inst = DiophInstance(equalities=((4, 1),), avoidances=((5, (1,)),))
        x = solve_avoidance(inst)
        # nothing smaller in the solved congruence class also works
        for y in range(1, x):
            if y % 4 == 1 and inst.satisfied_by(y):
                # smaller solutions may exist outside the constructed
                # class; within the class x must be first
                assert (y - x) % 4 != 0 or y >= x
        assert inst.satisfied_by(x)

    def test_random_instances_against_scan(self):
        rng = random.Random(20250825)
        prime_powers = [4, 8, 16, 5, 25, 7, 49, 9, 27, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        base_of = {m: min(p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if m % p == 0) for m in prime_powers}
        for _ in range(300):
            pool = [m for m in prime_powers if m <= 50]
            rng.shuffle(pool)
            used_bases = set()
            eqs, avs = [], []
            n_eq = rng.randint(0, 3)
            n_av = rng.randint(0, 4)
            for m in pool:
                if base_of[m] in used_bases:
                    continue
                if len(eqs) < n_eq:
                    used_bases.add(base_of[m])
                    eqs.append((m, rng.randrange(m)))
                elif len(avs) < n_av and m >= 4:
                    used_bases.add(base_of[m])
                    count = rng.randint(1, min(3, m - 1))
                    avs.append((m, tuple(rng.sample(range(m), count))))
            if not eqs and not avs:
                continue
            inst = DiophInstance(equalities=tuple(eqs), avoidances=tuple(avs))
            x = solve_avoidance(inst)
            assert inst.satisfied_by(x)
            total_forbidden = sum(len(f) for _, f in inst.avoidances)
            n_prime = 1
            for m, _ in eqs:
                n_prime *= m
            for q, f in avs:
                if q < total_forbidden + 1:
                    n_prime *= q
            assert x <= n_prime * (total_forbidden + 2)
            # brute scan agrees that x is a solution and none is missed
            scan = next(
                y for y in range(1, x + 1) if inst.satisfied_by(y)
            )
            assert scan <= x

    def test_postconditions_survive_optimize_flag(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # "assert 0" proves the flag took effect; the solver's own checks
        # must still run and raise once satisfied_by is broken
        script = (
            "from triplepack.dioph import DiophInstance, solve_avoidance\n"
            "from triplepack.errors import TriplepackError\n"
            "inst = DiophInstance(equalities=((4, 1), (9, 2)),"
            " avoidances=((5, (0, 2, 4)), (7, (1, 2, 3))))\n"
            "x = solve_avoidance(inst)\n"
            "assert 0, 'assert statements are stripped'\n"
            "print(x, inst.satisfied_by(x))\n"
            "DiophInstance.satisfied_by = lambda self, x: False\n"
            "try:\n"
            "    solve_avoidance(inst)\n"
            "except TriplepackError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        x, ok, raised = proc.stdout.split()
        assert int(x) >= 1 and ok == "True" and raised == "raised"


# ---------------------------------------------------------------------------
# the loop-based satisfied_by and solve_avoidance against generator-based
# references, on criterion 8's instances
# ---------------------------------------------------------------------------


def _reference_satisfied_by(inst, x) -> bool:
    """satisfied_by as generator expressions, kept here only as the
    reference that the loop-based method must agree with."""
    return (
        x >= 1
        and all(x % p == a for p, a in inst.equalities)
        and all(x % q not in forb for q, forb in inst.avoidances)
    )


def _reference_solve(inst) -> tuple:
    """(answer, N') of solve_avoidance written with generators: pin each
    avoidance modulus below the window to its least allowed residue, fold,
    and scan the class up to N'(F + 2)."""
    forbidden = sum(len(forb) for _, forb in inst.avoidances)
    pinned = [(q, next(e for e in range(q) if e not in forb))
              for q, forb in inst.avoidances if q < forbidden + 1]
    r, n_prime = _crt_fold(list(inst.equalities) + pinned)
    bound = n_prime * (forbidden + 2)
    x = next(y for y in range(r or n_prime, bound + 1, n_prime)
             if _reference_satisfied_by(inst, y))
    return x, n_prime


CRITERION_8_MODULI = (4, 8, 16, 32, 5, 25, 7, 49, 9, 27, 11, 13, 17,
                      19, 23, 29, 31, 37, 41, 43, 47)
_BASE_OF = {m: next(p for p in range(2, m + 1) if m % p == 0) for m in CRITERION_8_MODULI}


def criterion_8_instance(rng: random.Random) -> DiophInstance:
    """Criterion 8's generator: up to 3 equalities and 4 avoidances (1 to
    3 forbidden residues each) on prime powers with distinct bases."""
    while True:
        pool = list(CRITERION_8_MODULI)
        rng.shuffle(pool)
        used = set()
        eqs, avs = [], []
        n_eq, n_av = rng.randint(0, 3), rng.randint(0, 4)
        for m in pool:
            if _BASE_OF[m] in used:
                continue
            if len(eqs) < n_eq:
                used.add(_BASE_OF[m])
                eqs.append((m, rng.randrange(m)))
            elif len(avs) < n_av:
                used.add(_BASE_OF[m])
                avs.append((m, tuple(rng.sample(range(m), rng.randint(1, min(3, m - 1))))))
        if eqs or avs:
            return DiophInstance(equalities=tuple(eqs), avoidances=tuple(avs))


@settings(max_examples=400)
@given(st.data())
def test_satisfied_by_agrees_with_the_reference(data):
    # x anywhere from -5 to 5 past the scan bound N'(F + 2), plus every x
    # in -5..5, where the x >= 1 rule decides
    inst = criterion_8_instance(random.Random(data.draw(st.integers(0, 2**32))))
    forbidden = sum(len(f) for _, f in inst.avoidances)
    n_prime = _reference_solve(inst)[1]
    drawn = data.draw(st.integers(-5, n_prime * (forbidden + 2) + 5))
    for x in [drawn, *range(-5, 6)]:
        assert inst.satisfied_by(x) is _reference_satisfied_by(inst, x), (inst, x)


def test_solver_matches_the_reference_on_criterion_8_instances():
    # seeds 1-10, 400 instances each: the same answer, which the instance
    # accepts, while the class member N' below it (0 or less when the
    # answer is the first positive member) is refused
    for seed in range(1, 11):
        rng = random.Random(seed)
        for _ in range(400):
            inst = criterion_8_instance(rng)
            x, n_prime = _reference_solve(inst)
            assert solve_avoidance(inst) == x, (seed, inst)
            verdicts = [inst.satisfied_by(y) for y in (x - n_prime, x)]
            assert verdicts == [False, True], (seed, inst)

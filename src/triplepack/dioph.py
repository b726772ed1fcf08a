"""Systems of congruences plus avoidance constraints (x must miss given
residues modulo further prime powers): the instance type, whose moduli
must be prime powers, and its solver.

The solver fixes one CRT class r (mod N') and scans it upward; a
counting lemma bounds the scan by N' * (forbidden count + 2).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import isqrt

from .errors import InvalidParameterError, TriplepackError


def _primes_below(n: int) -> tuple:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_TRIAL_LIMIT = 1000
_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)
# Miller-Rabin with the first 13 prime bases (2..41) is a proof of
# primality below this bound (Sorenson & Webster 2015).
_MR_BASES = _SMALL_PRIMES[:13]
_MR_PROVEN_BELOW = 3317044064679887385961981


def _crt_fold(pairs) -> tuple:
    """(x, N) with 0 <= x < N = product of the moduli and x = a (mod m)
    for every (m, a) pair; the moduli must be positive and pairwise
    coprime, which the caller has established."""
    x, modulus = 0, 1
    for m, a in pairs:
        # invariant: 0 <= x < modulus and x meets every congruence so far
        x += modulus * ((a - x) * pow(modulus, -1, m) % m)
        modulus *= m
    return x, modulus


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_root(n: int):
    """(r, k) with r ** k == n and k as large as possible, for n >= 2."""
    for k in range(n.bit_length() - 1, 1, -1):
        r = _iroot(n, k)
        if r ** k == n:
            return r, k
    return n, 1


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41.

    A witness proves n composite at any size; "no witness" proves n
    prime only below _MR_PROVEN_BELOW, so above it a probable prime is
    refused instead of trusted.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BELOW:
        raise InvalidParameterError(
            f"cannot prove {n} prime: above the Miller-Rabin bound {_MR_PROVEN_BELOW}"
        )
    return True


def _prime_power_base(m: int):
    """The prime p with m = p ** e for some e >= 1, or None.

    Trial division by the primes below _TRIAL_LIMIT settles every m with
    a small prime factor; otherwise m is a prime power exactly when its
    largest perfect-power root is prime, so no composite is ever split.
    """
    if m < 2:
        return None
    for p in _SMALL_PRIMES:
        if p * p > m:
            return m  # no prime factor up to sqrt(m): m is prime
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    root, _ = _perfect_root(m)
    return root if _is_prime(root) else None


class DiophInstance(namedtuple("DiophInstance", "equalities avoidances")):
    """Equalities x = a_i (mod p_i) plus avoidances x != b (mod q_j) for
    each forbidden residue b.

    All p_i and q_j are prime powers with pairwise distinct prime bases;
    each q_j is at least 4 and forbids between 1 and q_j - 1 residues.
    The classical statement forbids exactly three residues per q_j; any
    shorter or longer list works by the same counting argument as long
    as some residue stays allowed.  Every modulus and residue must be an
    int (bool is not one); nothing is rounded.

    Fields: ``equalities`` ((p, a), ...) and ``avoidances``
    ((q, (b1, b2, ...)), ...), normalised to tuples when built.
    """

    __slots__ = ()

    def __new__(cls, equalities, avoidances):
        eqs = tuple((p, a) for p, a in equalities)
        avs = []
        for entry in avoidances:
            rest = entry[1]
            if not isinstance(rest, Iterable):  # (q, b, c, d) form
                rest = entry[1:]
            avs.append((entry[0], tuple(rest)))
        for x in [v for e in eqs for v in e] + [v for q, f in avs for v in (q, *f)]:
            if type(x) is not int:
                raise InvalidParameterError(f"expected an integer, got {x!r}")

        def base_of(m):
            base = _prime_power_base(m)
            if base is None:
                raise InvalidParameterError(f"{m} is not a prime power")
            return base

        bases = []
        for p, a in eqs:
            bases.append(base_of(p))
            if not 0 <= a < p:
                raise InvalidParameterError(f"residue {a} out of range mod {p}")
        for q, forb in avs:
            bases.append(base_of(q))
            if q < 4:
                raise InvalidParameterError(f"avoidance modulus {q} < 4")
            if not 1 <= len(forb) < q:
                raise InvalidParameterError(
                    f"need between 1 and {q - 1} forbidden residues mod {q}"
                )
            if len(set(forb)) != len(forb) or any(not 0 <= b < q for b in forb):
                raise InvalidParameterError(f"bad forbidden residues mod {q}")
        if len(set(bases)) != len(bases):
            raise InvalidParameterError("moduli must have pairwise distinct bases")
        return super().__new__(cls, eqs, tuple(avs))

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)

    def satisfied_by(self, x: int) -> bool:
        return (
            x >= 1
            and all(x % p == a for p, a in self.equalities)
            and all(x % q not in forb for q, forb in self.avoidances)
        )


def solve_avoidance(inst: DiophInstance) -> int:
    """The least positive x satisfying a DiophInstance within one CRT class.

    Let F be the total number of forbidden residues and W = F + 1.  Each
    avoidance modulus q < W becomes the congruence x = e (mod q) on its
    least allowed residue e; with the equalities these fold by CRT to
    x = r (mod N').  The moduli have pairwise distinct prime bases, so
    they are coprime and need no check.  The answer is the first of r,
    r + N', r + 2N', ... (r itself only when positive) that meets every
    constraint.  Counting lemma: every remaining modulus q >= W is prime
    to N', so among F + 1 consecutive members of the class each forbidden
    residue rules out at most one; the scan therefore stops by
    N' * (F + 2), and a TriplepackError past that bound means a
    constraint was checked wrongly.
    """
    total_forbidden = sum(len(forb) for _, forb in inst.avoidances)
    window = total_forbidden + 1
    congruences = list(inst.equalities)
    for q, forb in inst.avoidances:
        if q < window:
            congruences.append((q, next(e for e in range(q) if e not in forb)))
    r, n_prime = _crt_fold(congruences)
    bound = n_prime * (total_forbidden + 2)
    for x in range(r or n_prime, bound + 1, n_prime):
        if inst.satisfied_by(x):
            return x
    raise TriplepackError(
        f"no solution up to the proven bound {n_prime} * {total_forbidden + 2}"
    )

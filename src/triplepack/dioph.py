"""Systems of congruences plus avoidance constraints (x must miss given
residues modulo further moduli): the instance type, whose moduli must be
pairwise coprime, and its solver.

The solver fixes one CRT class r (mod N') and scans it upward; a
counting lemma bounds the scan by N' * (forbidden count + 2).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InvalidParameterError, TriplepackError


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


class DiophInstance(namedtuple("DiophInstance", "equalities avoidances")):
    """Equalities x = a_i (mod p_i) plus avoidances x != b (mod q_j) for
    each forbidden residue b.

    The p_i and q_j are pairwise coprime, every p_i is at least 2 and
    every q_j at least 4; each q_j forbids between 1 and q_j - 1
    residues.  The classical statement takes prime powers with distinct
    bases and forbids exactly three residues per q_j; the counting
    argument needs only coprime moduli and some allowed residue for
    each.  Every modulus and residue must be an int (bool is not one);
    nothing is rounded.

    Fields: ``equalities`` ((p, a), ...) and ``avoidances``
    ((q, (b1, b2, ...)), ...), normalised to tuples when built.
    """

    __slots__ = ()

    def __new__(cls, equalities, avoidances):
        eqs = tuple((p, a) for p, a in equalities)
        avs = tuple((q, tuple(forb)) for q, forb in avoidances)
        for x in [v for e in eqs for v in e] + [v for q, f in avs for v in (q, *f)]:
            if type(x) is not int:
                raise InvalidParameterError(f"expected an integer, got {x!r}")
        for p, a in eqs:
            if p < 2:
                raise InvalidParameterError(f"modulus {p} < 2")
            if not 0 <= a < p:
                raise InvalidParameterError(f"residue {a} out of range mod {p}")
        for q, forb in avs:
            if q < 4:
                raise InvalidParameterError(f"avoidance modulus {q} < 4")
            if not 1 <= len(forb) < q:
                raise InvalidParameterError(
                    f"need between 1 and {q - 1} forbidden residues mod {q}"
                )
            if len(set(forb)) != len(forb) or any(not 0 <= b < q for b in forb):
                raise InvalidParameterError(f"bad forbidden residues mod {q}")
        # coprime to every earlier modulus exactly when coprime to their product
        product = 1
        for m in [p for p, _ in eqs] + [q for q, _ in avs]:
            if gcd(m, product) != 1:
                raise InvalidParameterError(f"modulus {m} is not coprime to the others")
            product *= m
        return super().__new__(cls, eqs, avs)

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)

    def satisfied_by(self, x: int) -> bool:
        # plain loops: an all(...) generator per candidate costs more than its arithmetic
        if x < 1:
            return False
        for p, a in self.equalities:
            if x % p != a:
                return False
        for q, forb in self.avoidances:
            if x % q in forb:
                return False
        return True


def solve_avoidance(inst: DiophInstance) -> int:
    """The least positive x satisfying a DiophInstance within one CRT class.

    Let F be the total number of forbidden residues and W = F + 1.  Each
    avoidance modulus q < W becomes the congruence x = e (mod q) on its
    least allowed residue e; with the equalities these fold by CRT to
    x = r (mod N'), which needs the moduli pairwise coprime, as
    DiophInstance checks when it is built.  The answer is the first of r,
    r + N', r + 2N', ... (r itself only when positive) that meets every
    constraint.  Counting lemma: every remaining modulus q >= W is prime
    to N', so among F + 1 consecutive members of the class each forbidden
    residue rules out at most one; the scan therefore stops by
    N' * (F + 2), and a TriplepackError past that bound means a
    constraint was checked wrongly.
    """
    total_forbidden = 0
    for _, forb in inst.avoidances:
        total_forbidden += len(forb)
    window = total_forbidden + 1
    congruences = list(inst.equalities)
    for q, forb in inst.avoidances:
        if q < window:
            e = 0  # some residue below q is allowed, so this stops below q
            while e in forb:
                e += 1
            congruences.append((q, e))
    r, n_prime = _crt_fold(congruences)
    bound = n_prime * (total_forbidden + 2)
    for x in range(r or n_prime, bound + 1, n_prime):
        if inst.satisfied_by(x):
            return x
    raise TriplepackError(
        f"no solution up to the proven bound {n_prime} * {total_forbidden + 2}"
    )

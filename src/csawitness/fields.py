"""Exact field arithmetic over Q, F_p and F_{p^k}.

Element representations are plain Python values so they hash and compare
naturally:

* rationals        -> fractions.Fraction (always normalized)
* prime field F_p  -> int in [0, p)
* extension F_{p^k} -> tuple of k ints, coefficients on the power basis of
  the modulus, lowest degree first

A field object carries the operations; elements do not know their field.
All arithmetic is exact.  Fields are immutable and safe to share.

Q and F_p also carry the integer core that linalg and Algebra.mul run on
(INTEGER_CORE).  A vector is lifted to ints and one scale, lift_vector(v) =
(ints, s) with v[i] = ints[i] / s, worked on as ints, and lowered back to
canonical scalars by lower_vector.  int_modulus tells the two apart.  Over
F_p it is p: the scalars are ints already, so the lift is the identity with
scale 1 (hot loops skip it), the ints may be unreduced, an entry is zero
when it is 0 mod p, and lowering reduces mod p.  Over Q it is 0: the scale
is the lcm of the denominators, an entry is zero when the int is, and
lowering makes one Fraction per entry.
"""

import functools
import itertools
from fractions import Fraction
from math import lcm

from .errors import InvalidInputError, StructuralError

# ---------------------------------------------------------------------------
# primality (irreducibility of a modulus is tested by poly.is_irreducible,
# imported locally because poly builds on this module)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond any desk-scale modulus."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------


class Rationals:
    """The field Q.  Elements are fractions.Fraction."""

    kind = "rationals"
    char = 0
    size = None  # infinite

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        return a / self._nonzero(b)

    @staticmethod
    def _nonzero(b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return b

    def is_zero(self, a):
        return a == 0

    def pow(self, a, n):
        if n < 0:
            return self.inv(a) ** (-n)
        return a ** n

    def random(self, rng, height=9):
        return Fraction(rng.randint(-height, height), rng.randint(1, 4))

    # -- integer core --------------------------------------------------------

    int_modulus = 0

    def lift_vector(self, vec):
        """(ints, scale): scale is the lcm of the denominators of vec."""
        scale = lcm(*[c.denominator for c in vec])
        if scale == 1:
            return [c.numerator for c in vec], 1
        return [c.numerator * (scale // c.denominator) for c in vec], scale

    def lift_rows(self, rows):
        """(int rows, scale) with one scale for the whole matrix."""
        scale = lcm(*[c.denominator for row in rows for c in row])
        if scale == 1:
            return [[c.numerator for c in row] for row in rows], 1
        return [[c.numerator * (scale // c.denominator) for c in row]
                for row in rows], scale

    def lower_vector(self, ints, scale=1):
        """The canonical Fractions ints[i] / scale."""
        zero = self.zero
        if scale == 1:
            return [Fraction(n) if n else zero for n in ints]
        return [Fraction(n, scale) if n else zero for n in ints]

    def sort_key(self, a):
        return a

    def to_json(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, text):
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational scalar {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    def spec(self):
        return {"kind": "rationals"}


class PrimeField:
    """F_p for a prime p.  Elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.size = p
        self.zero = 0
        self.one = 1 % p
        self.int_modulus = p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    # -- integer core (int_modulus = p, set in __init__) ---------------------

    def lift_vector(self, vec):
        return vec, 1

    def lift_rows(self, rows):
        return rows, 1

    def lower_vector(self, ints, scale=1):
        """ints reduced mod p; the scale of a lifted F_p vector is always 1."""
        p = self.p
        return [n % p for n in ints]

    def sort_key(self, a):
        return a

    def to_json(self, a):
        return str(a)

    def parse(self, text):
        try:
            return int(str(text), 10) % self.p
        except ValueError as exc:
            raise InvalidInputError(f"bad F_{self.p} scalar {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"

    def spec(self):
        return {"kind": "prime", "p": self.p}


# extension fields of at most this many elements get log/antilog and Zech
# tables (see ExtensionField)
TABLE_MAX_Q = 4096


class ExtensionField:
    """F_{p^k} = F_p[x]/(f), f monic irreducible of degree k.

    Elements are k-tuples of ints (coefficients on 1, x, ..., x^(k-1)).
    The modulus is verified irreducible at construction by
    poly.is_irreducible.

    When q = p^k <= TABLE_MAX_Q (4096) the constructor writes every nonzero
    element as a power g^n of a primitive element g and keeps the tables
    log (element -> n) and exp (n -> element); mul, div, inv and pow are
    then lookups, and add, sub and neg use Zech logarithms,
    1 + g^n = g^zech[n] (K. Huber, IEEE Trans. Inf. Theory 36, 1990).
    Zero has log 2(q-1), and exp is zero from that index on, so a product
    or quotient with zero needs no branch.  The results are the canonical
    tuples the polynomial arithmetic gives, so no output depends on g.
    An input that is not a canonical element (an entry >= p, the wrong
    length, a list) has no log and raises.  The build walks the powers of
    g with the polynomial multiply, so its time grows with q: at half the
    speed of a quiet 2-core Xeon under Python 3.11, F_25 took 0.3 ms,
    F_256 3 ms and F_4096 65 ms.

    Above the bound, mul multiplies polynomials and reduces by a table of
    x^(k+i) mod f, and inv runs the extended Euclidean algorithm on int
    lists, which on a 2-core Xeon under Python 3.11 took 1.4-4.4x less time
    than Fermat's a^(q-2) (F_9 10.5 vs 14.3 us, F_25 12.7 vs 21.3 us,
    F_256 40.5 vs 178 us).
    """

    kind = "extension"

    def __init__(self, p, modulus):
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        mod = [int(c) % p for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        if len(mod) < 2:
            raise InvalidInputError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise InvalidInputError("modulus must be monic")
        from .poly import Poly, is_irreducible
        if not is_irreducible(Poly(PrimeField(p), mod)):
            raise InvalidInputError(f"modulus {mod} is reducible over F_{p}")
        self.p = p
        self.modulus = tuple(mod)
        self.k = len(mod) - 1
        self.char = p
        self.size = p ** self.k
        self.zero = (0,) * self.k
        self.one = tuple([1 % p] + [0] * (self.k - 1))
        # reduction table: x^(k+i) mod f for i in [0, k)
        self._xpow = []
        cur = [(-c) % p for c in mod[:-1]]  # x^k
        for _ in range(self.k):
            self._xpow.append(tuple(cur))
            cur = [0] + cur  # multiply by x
            lead = cur.pop()
            if lead:
                cur = [(cur[i] - lead * mod[i]) % p for i in range(self.k)]
        self.gen = tuple([0, 1 % p] + [0] * (self.k - 2)) if self.k >= 2 else self._xpow[0]
        self._log = None
        if self.size <= TABLE_MAX_Q:
            self._build_tables()

    def _build_tables(self):
        order = self.size - 1
        one = self.one
        # g: the first element, in elements() order, of multiplicative
        # order q - 1; its power walk is the antilog table
        for g in itertools.islice(self.elements(), 1, None):
            powers = [one]
            x = g
            while x != one:
                powers.append(x)
                x = self._pmul(x, g)
            if len(powers) == order:
                break
        zero_log = 2 * order
        log = {x: n for n, x in enumerate(powers)}
        log[self.zero] = zero_log
        # exp[n] = g^n for n < 2(q-1), so a sum of two logs needs no
        # reduction; exp is zero on [2(q-1), 4(q-1)], which holds every
        # index a zero operand or a zero sum can reach
        self._exp = powers * 2 + [self.zero] * (zero_log + 1)
        # zech is doubled so that a difference of logs in (-(q-1), 2(q-1))
        # indexes it without reduction (a negative index wraps by 2(q-1))
        self._zech = [log[self._padd(one, x)] for x in powers] * 2
        self._neg_one_log = log[self.from_int(-1)]
        self._order = order
        self._zero_log = zero_log
        self._log = log

    def from_int(self, n):
        return tuple([n % self.p] + [0] * (self.k - 1))

    def add(self, a, b):
        log = self._log
        if log is None:
            return self._padd(a, b)
        i, j = log[a], log[b]
        if j == self._zero_log:
            return a
        if i == self._zero_log:
            return b
        # g^i + g^j = g^i (1 + g^(j-i))
        return self._exp[i + self._zech[j - i]]

    def sub(self, a, b):
        log = self._log
        if log is None:
            p = self.p
            return tuple((x - y) % p for x, y in zip(a, b))
        i, j = log[a], log[b]
        if j == self._zero_log:
            return a
        # -g^j = g^(j + log(-1))
        j += self._neg_one_log
        if i == self._zero_log:
            return self._exp[j]
        return self._exp[i + self._zech[j - i]]

    def neg(self, a):
        log = self._log
        if log is None:
            p = self.p
            return tuple(-x % p for x in a)
        return self._exp[log[a] + self._neg_one_log]

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._pmul(a, b)
        return self._exp[log[a] + log[b]]

    def inv(self, a):
        log = self._log
        if log is None:
            return self._pinv(a)
        i = log[a]
        if i == self._zero_log:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[self._order - i]

    def div(self, a, b):
        log = self._log
        if log is None:
            return self._pmul(a, self._pinv(b))
        i, j = log[a], log[b]
        if j == self._zero_log:
            raise ZeroDivisionError("division by 0")
        return self._exp[i - j + self._order]

    def is_zero(self, a):
        return a == self.zero

    def pow(self, a, n):
        log = self._log
        if log is None:
            if n < 0:
                a, n = self._pinv(a), -n
            result = self.one
            while n:
                if n & 1:
                    result = self._pmul(result, a)
                a = self._pmul(a, a)
                n >>= 1
            return result
        i = log[a]
        if i != self._zero_log:
            return self._exp[i * n % self._order]
        if n < 0:
            raise ZeroDivisionError("inverse of 0")
        return self.zero if n else self.one

    # polynomial arithmetic: the path above TABLE_MAX_Q, and what the tables
    # are built from

    def _padd(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _pmul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        out = prod[:k]
        for i in range(k, 2 * k - 1):
            c = prod[i]
            if c:
                red = self._xpow[i - k]
                out = [(out[t] + c * red[t]) % p for t in range(k)]
        return tuple(out)

    def _pinv(self, a):
        # extended Euclid over F_p[x]
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of 0")
        p = self.p
        r0, r1 = list(self.modulus), [c % p for c in a]
        while r1[-1] == 0:
            r1.pop()
        s0, s1 = [], [1]
        while r1:
            # divide r0 by r1
            q = []
            r = list(r0)
            dl = len(r1) - 1
            inv_lead = pow(r1[-1], p - 2, p)
            while len(r) - 1 >= dl and r:
                coef = r[-1] * inv_lead % p
                deg = len(r) - 1 - dl
                if coef:
                    while len(q) <= deg:
                        q.append(0)
                    q[deg] = coef
                    for i in range(dl + 1):
                        r[deg + i] = (r[deg + i] - coef * r1[i]) % p
                r.pop()
            while r and r[-1] == 0:
                r.pop()
            # s0 - q*s1
            qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            new_s = [( (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0) ) % p
                     for i in range(max(len(s0), len(qs)) or 1)]
            while new_s and new_s[-1] == 0:
                new_s.pop()
            r0, r1 = r1, r
            s0, s1 = s1, new_s
        # r0 = gcd, a unit in F_p since modulus is irreducible
        c = pow(r0[0], p - 2, p)
        out = [x * c % p for x in s0]
        out += [0] * (self.k - len(out))
        return tuple(out[:self.k])

    def elements(self):
        def gen():
            idx = [0] * self.k
            while True:
                yield tuple(idx)
                i = 0
                while i < self.k:
                    idx[i] += 1
                    if idx[i] < self.p:
                        break
                    idx[i] = 0
                    i += 1
                else:
                    return
        return gen()

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def sort_key(self, a):
        return tuple(a)

    def to_json(self, a):
        return [str(c) for c in a]

    def parse(self, value):
        if isinstance(value, str):
            parts = value.split(",") if value else []
        elif isinstance(value, list):
            parts = value
        else:
            raise InvalidInputError(f"bad F_{self.p}^{self.k} scalar {value!r}")
        try:
            coeffs = [int(str(c), 10) % self.p for c in parts]
        except ValueError as exc:
            raise InvalidInputError(f"bad F_{self.p}^{self.k} scalar {value!r}") from exc
        if len(coeffs) > self.k:
            raise InvalidInputError("too many coefficients for this extension")
        coeffs += [0] * (self.k - len(coeffs))
        return tuple(coeffs)

    def lift(self, a):
        """Embed an F_p scalar as a constant of this extension."""
        return self.from_int(a)

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("Fq", self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    def spec(self):
        return {"kind": "extension", "p": self.p, "modulus": [str(c) for c in self.modulus]}


QQ = Rationals()

# the fields whose vectors linalg and Algebra.mul lift to ints
INTEGER_CORE = (PrimeField, Rationals)


# ---------------------------------------------------------------------------
# typed reads from parsed JSON: a value of the wrong shape is bad input


_REQUIRED = object()
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string",
               bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}


def _json_name(value):
    return _JSON_NAMES.get(type(value), type(value).__name__)


def json_int(value, key):
    """An integer stored as a JSON number or a decimal string."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidInputError(f"{key!r} must be an integer, not {value!r}")


def json_get(data, key, kind, default=_REQUIRED):
    """data[key] for a JSON object data, checked to be of type kind: dict,
    list, str, object for any value, or int, which accepts a number or a
    decimal string.  A missing key gives default when one is passed."""
    if not isinstance(data, dict):
        raise InvalidInputError(
            f"expected an object with key {key!r}, not {_json_name(data)}")
    if key not in data:
        if default is _REQUIRED:
            raise InvalidInputError(f"missing key {key!r}")
        return default
    value = data[key]
    if kind is int:
        return json_int(value, key)
    if not isinstance(value, kind):
        raise InvalidInputError(
            f"{key!r} must be {_JSON_NAMES[kind]}, not {_json_name(value)}")
    return value


def field_from_spec(spec):
    """Build a field from its JSON description."""
    kind = json_get(spec, "kind", str, None)
    if kind == "rationals":
        return QQ
    if kind == "prime":
        return PrimeField(json_get(spec, "p", int))
    if kind == "extension":
        return ExtensionField(json_get(spec, "p", int),
                              [json_int(c, "modulus")
                               for c in json_get(spec, "modulus", list)])
    raise InvalidInputError(f"unknown field kind {kind!r}")


def parse_field_flag(text):
    """Parse the CLI field syntax: 'q', 'fp:<p>' or 'fq:<p>:<k>'.

    For fq the modulus is the standard one (first monic irreducible of
    degree k in lexicographic coefficient order), so the flag is reproducible.
    """
    text = text.strip().lower()
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        return PrimeField(int(text[3:]))
    if text.startswith("fq:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"bad field flag {text!r}")
        p, k = int(parts[1]), int(parts[2])
        return standard_extension(p, k)
    raise InvalidInputError(f"bad field flag {text!r}")


@functools.lru_cache(maxsize=None)
def standard_extension(p, k):
    """F_{p^k} with a canonical modulus: the lexicographically first monic
    irreducible of degree k over F_p (constant coefficient varies fastest)."""
    if k < 1:
        raise InvalidInputError(f"extension degree k must be at least 1, not {k}")
    if k == 1:
        return PrimeField(p)
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    from .poly import Poly, is_irreducible
    base = PrimeField(p)
    # iterate over lower coefficients in lex order, low degree fastest
    total = p ** k
    for idx in range(total):
        coeffs = []
        n = idx
        for _ in range(k):
            coeffs.append(n % p)
            n //= p
        f = coeffs + [1]
        if is_irreducible(Poly(base, f)):
            return ExtensionField(p, f)
    raise StructuralError("no irreducible polynomial found")  # pragma: no cover

"""Physical constants, the general planar gauge family, and one exact
sparse polynomial ring in n variables.

The ring (:class:`SparsePoly`) and its one evaluator are shared by every
polynomial in the library: :class:`Poly2` fixes two variables for gauge
functions, wave-function factors and operator coefficients, and the
classical phase-space observables fix four.  All gauge data are expressed
in coordinates shifted to a common origin, ``u_k = x_k - x0_k``.  Gauge
functions are restricted to polynomials in these coordinates so that
gradients, gauge phases and curl identities are exact at the coefficient
level.  A gauge enters the observables only through its vector potential,
in the canonical momenta of ``classical.observables``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "PolyParseError",
    "DegreeOverflowError",
    "OriginMismatchError",
    "SparsePoly",
    "Poly2",
    "parse_poly",
    "format_poly",
    "PhysicalParams",
    "GaugeChoice",
    "vector_potential_polys",
    "gauge_delta",
    "CANONICAL_PARTNER",
]

DEFAULT_MAX_DEGREE = 6


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeOverflowError(ValueError):
    """Raised when a polynomial exceeds the configured degree bound."""


class OriginMismatchError(ValueError):
    """Raised when two gauge choices with different origins are combined."""


class SparsePoly:
    """Sparse polynomial ``sum c_k * v1^k1 * ... * vn^kn`` in a fixed number
    of variables, with exact dict-backed coefficient arithmetic.

    Subclasses fix the arity through ``nvars``; keys of ``terms`` are
    exponent tuples of that length.  Zero coefficients are never stored.
    Instances are treated as immutable; every operation returns a new
    polynomial of the same class, and polynomials of different classes do
    not combine.
    """

    __slots__ = ("terms",)
    nvars = 0

    def __init__(self, terms=None):
        n = self.nvars
        clean = {}
        for key, c in (terms or {}).items():
            if len(key) != n or min(key) < 0:
                raise ValueError(f"bad exponent tuple {key} for {n} variables")
            if c != 0:
                clean[tuple(map(int, key))] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_terms(cls, terms) -> "SparsePoly":
        """Unchecked constructor for ring results, whose keys are already
        valid: only zero coefficients are dropped."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", {k: c for k, c in terms.items() if c != 0})
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._from_terms({})

    @classmethod
    def const(cls, c):
        return cls._from_terms({(0,) * cls.nvars: c})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if type(other) is not type(self):
                raise TypeError(f"cannot combine {type(self).__name__} "
                                f"with {type(other).__name__}")
            return other
        return self.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._from_terms(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return self._from_terms({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            other = self._coerce(other)
            out: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = tuple(map(operator.add, k1, k2))
                    out[k] = out.get(k, 0) + c1 * c2
            return self._from_terms(out)
        return self._from_terms({k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, axis: int):
        """Exact partial derivative with respect to variable ``axis``
        (1-based)."""
        if not 1 <= axis <= self.nvars:
            raise ValueError(f"axis must be between 1 and {self.nvars}")
        i = axis - 1
        out = {}
        for key, c in self.terms.items():
            e = key[i]
            if e:
                out[key[:i] + (e - 1,) + key[i + 1:]] = c * e
        return self._from_terms(out)

    def __call__(self, *coords):
        """Value at one coordinate per variable (scalars or numpy arrays): each
        coefficient times its powers in axis order, summed in key order."""
        if len(coords) != self.nvars:
            raise TypeError(f"{type(self).__name__} takes {self.nvars} "
                            f"coordinates, got {len(coords)}")
        terms = self.terms
        if not terms:
            return 0.0 * coords[0]
        chains = []
        for x, top in zip(coords, map(max, zip(*terms))):
            chain = [1.0]
            for _ in range(top):
                chain.append(chain[-1] * x)
            chains.append(chain)
        acc = 0.0
        for key in sorted(terms):
            term = terms[key]
            for chain, e in zip(chains, key):
                if e:
                    term = term * chain[e]
            acc = acc + term
        return acc

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Poly2(SparsePoly):
    """Bivariate polynomial ``sum c_ij * u1^i * u2^j`` in the shifted
    coordinates.

    Coefficients are usually real (gauge functions are real by construction)
    but complex values are accepted, which the wave-function factor algebra
    relies on.
    """

    __slots__ = ()
    nvars = 2

    @classmethod
    def variable(cls, axis: int) -> "Poly2":
        """u1 for axis 1, u2 for axis 2."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return cls({(1, 0) if axis == 1 else (0, 1): 1.0})

    @classmethod
    def monomial(cls, i: int, j: int, c=1.0) -> "Poly2":
        return cls({(i, j): c})

    def __repr__(self):
        return f"Poly2({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# Parsing and canonical printing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<var>u1|u2)|(?P<op>[-+*^]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PolyParseError("unexpected character", pos)
        if m.lastgroup == "num":
            val = float(m.group("num"))
            if not math.isfinite(val):
                raise PolyParseError("number out of floating-point range", pos)
            out.append(("num", val, pos))
        elif m.lastgroup == "var":
            out.append(("var", m.group("var"), pos))
        else:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    return out


def parse_poly(text: str) -> Poly2:
    """Parse polynomial text into a :class:`Poly2`.

    Grammar: ``expression := term (('+'|'-') term)*`` with
    ``term := coeff ('*' factor)* | factor ('*' factor)*`` and
    ``factor := ('u1'|'u2') ('^' nonneg-int)?``.  Whitespace is ignored and
    a leading sign on the first term is accepted.

    Raises :class:`PolyParseError` with the character position on bad input,
    including numbers and coefficient sums outside the finite floating-point
    range, and :class:`DegreeOverflowError` when the total degree exceeds
    :data:`DEFAULT_MAX_DEGREE`.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    terms: dict = {}
    k = 0
    sign = 1.0
    # optional leading sign
    if tokens[k][0] == "op" and tokens[k][1] in "+-":
        sign = -1.0 if tokens[k][1] == "-" else 1.0
        k += 1

    def parse_factor(k, i, j):
        kind, val, pos = tokens[k]
        if kind != "var":
            raise PolyParseError("expected u1 or u2", pos)
        exp = 1
        k += 1
        if k < len(tokens) and tokens[k][:2] == ("op", "^"):
            k += 1
            if k >= len(tokens) or tokens[k][0] != "num" or tokens[k][1] != int(tokens[k][1]):
                raise PolyParseError("expected nonnegative integer exponent",
                                     tokens[k - 1][2] + 1)
            exp = int(tokens[k][1])
            k += 1
        if val == "u1":
            i += exp
        else:
            j += exp
        return k, i, j

    while True:
        if k >= len(tokens):
            raise PolyParseError("expected term", tokens[-1][2] + 1 if tokens else 0)
        start = tokens[k][2]
        coeff = sign
        i = j = 0
        if tokens[k][0] == "num":
            coeff *= tokens[k][1]
            k += 1
        else:
            k, i, j = parse_factor(k, i, j)
        while k < len(tokens) and tokens[k][:2] == ("op", "*"):
            k += 1
            if k >= len(tokens):
                raise PolyParseError("dangling '*'", tokens[k - 1][2])
            k, i, j = parse_factor(k, i, j)
        if i + j > DEFAULT_MAX_DEGREE:
            raise DegreeOverflowError(f"term of degree {i + j} exceeds "
                                      f"maximum degree {DEFAULT_MAX_DEGREE}")
        total = terms.get((i, j), 0.0) + coeff
        if not math.isfinite(total):
            raise PolyParseError("coefficient sum out of floating-point range",
                                 start)
        terms[(i, j)] = total
        if k == len(tokens):
            break
        kind, val, pos = tokens[k]
        if kind != "op" or val not in "+-":
            raise PolyParseError("expected '+' or '-'", pos)
        sign = -1.0 if val == "-" else 1.0
        k += 1
    return Poly2(terms)


def format_poly(poly: Poly2) -> str:
    """Canonical text form; ``parse_poly(format_poly(p)) == p`` exactly for
    real coefficients.  Complex coefficients print in full as
    ``(re+imj)``, which the parser does not read back."""
    if poly.is_zero():
        return "0"
    parts = []
    for (i, j) in sorted(poly.terms, key=lambda k: (k[0] + k[1], k[0], k[1])):
        c = poly.terms[(i, j)]
        if isinstance(c, complex):
            mag, negative = f"({c.real!r}{c.imag:+}j)", False
        else:
            mag, negative = repr(abs(c)), not c >= 0
        factors = [mag]
        if i:
            factors.append("u1" if i == 1 else f"u1^{i}")
        if j:
            factors.append("u2" if j == 1 else f"u2^{j}")
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Physical parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, charge, magnetic field and the action quantum (natural units by
    default)."""

    m: float
    q: float
    B: float
    hbar: float = 1.0

    def __post_init__(self):
        if not 0 < self.m < math.inf:
            raise ValueError("mass must be positive and finite")
        if self.q == 0 or not math.isfinite(self.q):
            raise ValueError("charge must be nonzero and finite")
        if self.B == 0 or not math.isfinite(self.B):
            raise ValueError("magnetic field must be nonzero and finite")
        if not 0 < self.hbar < math.inf:
            raise ValueError("hbar must be positive and finite")
        # the derived scales, each needed by the next
        if self.qB == 0 or not math.isfinite(self.qB):
            raise ValueError("qB must be nonzero and finite")
        if not 0 < self.omega_c < math.inf:
            raise ValueError("cyclotron frequency must be positive and finite")
        if not 0 < self.magnetic_length < math.inf:
            raise ValueError("magnetic length must be positive and finite")

    @property
    def omega_c(self) -> float:
        """Cyclotron frequency |qB|/m."""
        return abs(self.q * self.B) / self.m

    @property
    def sign(self) -> int:
        """Orientation sign of qB, +1 or -1."""
        return 1 if self.q * self.B > 0 else -1

    @property
    def magnetic_length(self) -> float:
        """Gaussian width sqrt(hbar / (m omega_c)) of the lowest orbitals."""
        return math.sqrt(self.hbar / (self.m * self.omega_c))

    @property
    def momentum_scale(self) -> float:
        """sqrt(hbar m omega_c), the width of the translation profiles."""
        return math.sqrt(self.hbar * self.m * self.omega_c)

    @property
    def ladder_scale(self) -> float:
        """sqrt(hbar m omega_c / 2), the ladder coefficient of T and p."""
        return math.sqrt(self.hbar * self.m * self.omega_c / 2.0)

    @property
    def qB(self) -> float:
        return self.q * self.B


# ---------------------------------------------------------------------------
# Gauge family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeChoice:
    """One member of the two-parameter gauge family: a real shear parameter
    ``alpha``, a plane origin ``x0`` and a polynomial gauge function ``phi``
    in the shifted coordinates.

    ``alpha = 0`` with ``phi = 0`` is the symmetric gauge; ``alpha = +1``
    (resp. ``-1``) the first (resp. second) axis-aligned gauge.
    """

    alpha: float = 0.0
    x0: tuple[float, float] = (0.0, 0.0)
    phi: Poly2 = field(default_factory=Poly2.zero)

    def __post_init__(self):
        if len(self.x0) != 2:
            raise ValueError("x0 must be a pair")
        object.__setattr__(self, "x0", (float(self.x0[0]), float(self.x0[1])))
        if not all(map(math.isfinite, (self.alpha, *self.x0))):
            raise ValueError("alpha and x0 must be finite")

    def phibar(self, B: float) -> Poly2:
        """Total gauge function: -(alpha*B/2) u1 u2 + phi."""
        return Poly2.monomial(1, 1, -0.5 * self.alpha * B) + self.phi


def vector_potential_polys(g: GaugeChoice, B: float) -> tuple[Poly2, Poly2]:
    """Cartesian components of the vector potential as exact polynomials in
    the shifted coordinates:

    ``A1 = -1/2 (alpha+1) B u2 + d(phi)/du1``,
    ``A2 = -1/2 (alpha-1) B u1 + d(phi)/du2``.
    """
    a1 = Poly2.monomial(0, 1, -0.5 * (g.alpha + 1.0) * B) + g.phi.diff(1)
    a2 = Poly2.monomial(1, 0, -0.5 * (g.alpha - 1.0) * B) + g.phi.diff(2)
    return a1, a2


def gauge_delta(g_from: GaugeChoice, g_to: GaugeChoice, p: PhysicalParams) -> Poly2:
    """Gauge-transformation function between two family members sharing an
    origin: ``-1/2 (alpha_to - alpha_from) B u1 u2 + phi_to - phi_from``.

    The gradient of the result equals the difference of the two vector
    potentials as an exact polynomial identity.
    """
    if g_from.x0 != g_to.x0:
        raise OriginMismatchError(
            f"gauge origins differ: {g_from.x0} vs {g_to.x0}")
    return (Poly2.monomial(1, 1, -0.5 * (g_to.alpha - g_from.alpha) * p.B)
            + g_to.phi - g_from.phi)


# canonical operator -> the gauge-invariant observable it is built on
CANONICAL_PARTNER = {"pi1": "T1", "pi2": "T2", "L3c": "M3"}

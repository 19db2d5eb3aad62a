"""Scalar parameters of the labelling pipeline.

Two modes.  Paper mode follows the asymptotic recipe: a scale base
B = ceil(exp(10^8 / gamma^4)) sets mu = 1/B, delta0 = mu^(2/mu) = B^(-2B),
delta = delta0^10, eps = delta^10, eta = eps^10, ell = delta0^2 n,
m = delta0^2 ell.  B is far beyond materialization for any real gamma, so
paper mode is exact-symbolic: values are coeff * B^(e0 + e1*B) handles
(lazy path), or fully materialized rationals when the caller substitutes
a small surrogate base (surrogate path, for formula-level tests only).
Practical mode takes user-chosen m and ell at desk scale and replaces the
delta_i tolerance schedule with a linear one, alpha(t) = a0 + a1 * t/n.

All arithmetic is exact (int / Fraction); no floats enter any decision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .trees import Tree

# Symbolic lower bound on the paper-mode base: B = ceil(exp(10^8/gamma^4))
# is at least ceil(e) = 3 for every admissible gamma.
_B_MIN = 3


class ParamError(ValueError):
    """Divisibility or ordering violation; carries the failed requirement."""

    def __init__(self, msg, required_modulus=None):
        super().__init__(msg)
        self.required_modulus = required_modulus


class Indeterminate(Exception):
    """The lazy symbolic path cannot decide without materializing the base."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class SymValue:
    """Exact handle coeff * B**(e0 + e1*B) over the opaque base B >= 3."""

    coeff: Fraction
    e0: Fraction
    e1: Fraction

    @staticmethod
    def of(coeff, e0=0, e1=0) -> "SymValue":
        return SymValue(Fraction(coeff), Fraction(e0), Fraction(e1))

    def __mul__(self, other: "SymValue") -> "SymValue":
        return SymValue(self.coeff * other.coeff, self.e0 + other.e0,
                        self.e1 + other.e1)

    def __truediv__(self, other: "SymValue") -> "SymValue":
        return SymValue(self.coeff / other.coeff, self.e0 - other.e0,
                        self.e1 - other.e1)

    def pow_int(self, k: int) -> "SymValue":
        return SymValue(self.coeff ** k, self.e0 * k, self.e1 * k)

    def is_integer(self) -> Optional[bool]:
        """True if integral for every base B >= 3; None if base-dependent."""
        if (self.coeff.denominator == 1 and self.e0.denominator == 1
                and self.e1.denominator == 1 and self.e0 >= 0 and self.e1 >= 0):
            return True
        if self.e0 == 0 and self.e1 == 0:
            return self.coeff.denominator == 1
        return None

    def __repr__(self):
        return f"{self.coeff}*B^({self.e0}+{self.e1}*B)"


Scalar = Union[int, Fraction, SymValue, None]


@dataclass(frozen=True)
class Params:
    mode: str                      # "paper" | "practical"
    gamma: Fraction
    n: Union[int, SymValue]
    n_tilde: Union[int, SymValue]
    m: Union[int, SymValue]
    ell: Union[int, SymValue]
    mu: Scalar = None
    delta0: Scalar = None
    delta: Scalar = None
    eps: Scalar = None
    eta: Scalar = None
    mu_inv: Optional[int] = None   # surrogate base; None when lazy or practical
    n0_log2: Scalar = None         # log2 of the size threshold, reported only
    alpha0: Optional[Fraction] = None
    alpha1: Optional[Fraction] = None

    def alpha(self, t: int) -> Fraction:
        """Practical tolerance at step t: alpha0 + alpha1 * t/n."""
        if self.mode != "practical":
            raise ParamError("alpha schedule exists only in practical mode")
        return self.alpha0 + self.alpha1 * Fraction(t, self.n)


def derive_paper_params(gamma, n=None, *, n_blocks=None, mu_inv=None) -> Params:
    """Paper-mode parameters.

    gamma must be the reciprocal of a positive integer g.  n must be a
    multiple of 2 * delta^-1 * gamma^-1; since that modulus is itself
    astronomical on the lazy path, n may instead be given as n_blocks = k,
    meaning n = k * (2 g B^(20B)).  Supplying a small integer mu_inv
    replaces the true base by a surrogate and materializes every value.
    """
    gamma = _as_fraction(gamma)
    if gamma <= 0 or gamma.numerator != 1:
        raise ParamError(f"gamma must be 1/g for a positive integer g, got {gamma}")
    g = gamma.denominator

    if mu_inv is not None:
        return _paper_surrogate(g, n, n_blocks, mu_inv)
    return _paper_lazy(g, n, n_blocks)


def _paper_lazy(g: int, n, n_blocks) -> Params:
    if n is not None:
        raise ParamError(
            "lazy paper mode cannot check divisibility of a concrete n: the "
            "required modulus 2*g*B^(20B) exceeds any representable integer; "
            "pass n_blocks=k for n = k * 2*g*B^(20B), or supply mu_inv")
    if n_blocks is None or n_blocks < 1:
        raise ParamError("n_blocks must be a positive integer")
    k = int(n_blocks)
    if g >= 2:
        # n_tilde/(2m) = ((g+1)/(2g)) * B^(8B); integrality depends on the
        # factorization of B, unknowable without materializing it.
        raise Indeterminate(
            "2m | n_tilde reduces to 2g | (g+1)*B^(8B), undecidable for the "
            "opaque base; use a surrogate mu_inv to check it exactly")
    one = SymValue.of(1)
    mu = SymValue.of(1, -1, 0)
    delta0 = SymValue.of(1, 0, -2)
    delta = delta0.pow_int(10)
    eps = delta.pow_int(10)
    eta = eps.pow_int(10)
    n_sym = SymValue.of(2 * g * k, 0, 20)
    ell = delta0.pow_int(2) * n_sym
    m = delta0.pow_int(2) * ell
    n_tilde = SymValue.of(Fraction(g + 1, g)) * n_sym
    assert (n_tilde / (m * SymValue.of(2))).is_integer()
    assert (ell / m).is_integer() and (one / delta0).is_integer()
    return Params(mode="paper", gamma=Fraction(1, g), n=n_sym, n_tilde=n_tilde,
                  m=m, ell=ell, mu=mu, delta0=delta0, delta=delta, eps=eps,
                  eta=eta, mu_inv=None, n0_log2=SymValue.of(10, 0, 4000))


def _paper_surrogate(g: int, n, n_blocks, mu_inv: int) -> Params:
    B = int(mu_inv)
    if B < 2:
        raise ParamError("surrogate base must be an integer >= 2")
    modulus = 2 * g * B ** (20 * B)
    if n is None:
        if n_blocks is None or n_blocks < 1:
            raise ParamError("give n or n_blocks")
        n = n_blocks * modulus
    n = int(n)
    if n % modulus != 0:
        raise ParamError(
            f"n must be divisible by 2*g*B^(20B) = {modulus}",
            required_modulus=modulus)
    mu = Fraction(1, B)
    delta0 = Fraction(1, B ** (2 * B))
    delta = delta0 ** 10
    eps = delta ** 10
    eta = eps ** 10
    ell_f = delta0 ** 2 * n
    m_f = delta0 ** 2 * ell_f
    assert ell_f.denominator == 1 and m_f.denominator == 1
    ell, m = int(ell_f), int(m_f)
    nt_f = (1 + Fraction(1, g)) * n
    assert nt_f.denominator == 1
    n_tilde = int(nt_f)
    if n_tilde % (2 * m) != 0:
        raise ParamError(
            f"n_tilde = {n_tilde} is not a multiple of 2m = {2*m}; "
            f"2g | (g+1)*B^(8B) fails for g={g}, B={B}",
            required_modulus=2 * m)
    return Params(mode="paper", gamma=Fraction(1, g), n=n, n_tilde=n_tilde,
                  m=m, ell=ell, mu=mu, delta0=delta0, delta=delta, eps=eps,
                  eta=eta, mu_inv=B, n0_log2=10 * B ** (4000 * B))


def derive_practical_params(n: int, gamma, m: int, ell: int,
                            alpha0=Fraction(1, 20),
                            alpha1=Fraction(3, 20)) -> Params:
    """Desk-scale parameters with user-chosen m and ell.

    n_tilde = ceil((1+gamma) n) rounded up to a multiple of 2m; requires
    m | ell, ell < n_tilde/2 and n_tilde/m >= 4(ell/m - 1).  The last
    keeps the null outcome of both correction laws at a nonnegative
    mass: with N = n_tilde/m windows and N - 2(ell/m - 1) target
    intervals, that mass is (N - 4(ell/m - 1)) / (N - 2(ell/m - 1)).
    """
    gamma = _as_fraction(gamma)
    n, m, ell = int(n), int(m), int(ell)
    if n < 2:
        raise ParamError("n must be at least 2")
    if gamma <= 0:
        raise ParamError("gamma must be positive")
    if m < 1:
        raise ParamError("m must be at least 1")
    if ell % m != 0:
        raise ParamError(f"m = {m} must divide ell = {ell}", required_modulus=m)
    nt0 = math.ceil((1 + gamma) * n)
    r = nt0 % (2 * m)
    n_tilde = nt0 if r == 0 else nt0 + (2 * m - r)
    if 2 * ell >= n_tilde:
        raise ParamError(f"need ell < n_tilde/2: ell = {ell}, n_tilde = {n_tilde}")
    if n_tilde // m < 4 * (ell // m - 1):
        raise ParamError(
            f"need n_tilde/m >= 4(ell/m - 1) for a nonnegative null mass "
            f"in the correction laws: n_tilde/m = {n_tilde // m}, "
            f"ell/m = {ell // m}")
    return Params(mode="practical", gamma=gamma, n=n, n_tilde=n_tilde,
                  m=m, ell=ell, alpha0=Fraction(alpha0), alpha1=Fraction(alpha1))


class DeltaSchedule:
    """delta_i = mu^((2n-i)/(mu n)) = B^(-(2n-i)B/n) for i in 0..n.

    Values are powers of the base with rational exponents, so they are
    returned in exponent form; materialize with value() when integral.
    """

    def __init__(self, params: Params):
        if params.mode != "paper":
            raise ParamError("delta schedule exists only in paper mode")
        self.params = params

    def exponent(self, i: int) -> Fraction:
        """Exponent of B at index i (surrogate path)."""
        p = self.params
        if p.mu_inv is None:
            raise Indeterminate("lazy path: use exponent_at_fraction")
        if not 0 <= i <= p.n:
            raise ParamError(f"index {i} outside 0..{p.n}")
        return Fraction(-(2 * p.n - i) * p.mu_inv, p.n)

    def exponent_at_fraction(self, theta) -> SymValue:
        """delta at i = theta*n as a symbolic value (works on both paths)."""
        theta = Fraction(theta)
        if not 0 <= theta <= 1:
            raise ParamError("theta must lie in [0, 1]")
        return SymValue.of(1, 0, theta - 2)

    def value(self, i: int) -> Fraction:
        e = self.exponent(i)
        if e.denominator != 1:
            raise ParamError(f"delta_{i} = B^({e}) is not rational")
        return Fraction(1, self.params.mu_inv ** (-int(e)))

    def approx_log2(self, i: int) -> float:
        return float(self.exponent(i)) * math.log2(self.params.mu_inv)


class DeltaTailInconclusive(Exception):
    """The sound sufficient test could not certify the tail inequality."""


def check_delta_tail(params: Params, t=None, *, blocks=None) -> int:
    """Certify sum_{i=1}^{K} delta * mu^-1 * delta_{i*delta*n} < delta_t / 100.

    K = ceil(t / (delta n)).  The terms increase, so the sum is at most
    K times the last term, and the whole inequality reduces exactly to
    100*K <= B^(20B-2).  Returns K on success; raises when the reduction
    cannot certify (it never asserts the inequality false).
    """
    if params.mode != "paper":
        raise ParamError("delta tail check applies to paper mode")
    if blocks is None:
        if t is None or t < 1:
            raise ParamError("give a step t >= 1 or blocks=K")
        if params.mu_inv is None:
            raise Indeterminate("lazy path: pass blocks=K directly")
        block = params.delta * params.n
        assert block.denominator == 1
        blocks = -(-t // int(block))
    K = int(blocks)
    if K < 1:
        raise ParamError("K must be at least 1")
    B = params.mu_inv if params.mu_inv is not None else _B_MIN
    if 100 * K <= B ** (20 * B - 2):
        return K
    raise DeltaTailInconclusive(
        f"100K = {100*K} vs certified lower bound B^(20B-2) with B = {B}")


def pad_tree(t: Tree, modulus: int) -> Tree:
    """Attach a path at the smallest-index leaf so the order becomes a
    multiple of modulus."""
    if modulus < 1:
        raise ParamError("modulus must be at least 1")
    n = t.n
    target = -(-n // modulus) * modulus
    if target == n:
        return t
    if n == 1:
        attach = 1
    else:
        attach = min(v for v in range(1, n + 1) if t.degree(v) == 1)
    edges = list(t.edges)
    prev = attach
    for v in range(n + 1, target + 1):
        edges.append((prev, v))
        prev = v
    return Tree(target, edges)


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _scalar_out(x):
    if x is None or isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return _frac_str(x)
    if isinstance(x, SymValue):
        return {"coeff": _frac_str(x.coeff), "e0": _frac_str(x.e0),
                "e1": _frac_str(x.e1)}
    raise TypeError(type(x))


def _scalar_in(x):
    if x is None or isinstance(x, int):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, dict):
        return SymValue(Fraction(x["coeff"]), Fraction(x["e0"]),
                        Fraction(x["e1"]))
    raise TypeError(type(x))


def params_to_json(p: Params) -> str:
    d = {"mode": p.mode, "gamma": _frac_str(p.gamma)}
    for f in ("n", "n_tilde", "m", "ell", "mu", "delta0", "delta", "eps",
              "eta", "n0_log2"):
        d[f] = _scalar_out(getattr(p, f))
    d["mu_inv"] = p.mu_inv
    d["alpha0"] = None if p.alpha0 is None else _frac_str(p.alpha0)
    d["alpha1"] = None if p.alpha1 is None else _frac_str(p.alpha1)
    return json.dumps(d, indent=2)


def params_from_json(s: str) -> Params:
    d = json.loads(s)
    kw = {f: _scalar_in(d[f]) for f in ("n", "n_tilde", "m", "ell", "mu",
                                        "delta0", "delta", "eps", "eta",
                                        "n0_log2")}
    return Params(mode=d["mode"], gamma=Fraction(d["gamma"]),
                  mu_inv=d["mu_inv"],
                  alpha0=None if d["alpha0"] is None else Fraction(d["alpha0"]),
                  alpha1=None if d["alpha1"] is None else Fraction(d["alpha1"]),
                  **kw)

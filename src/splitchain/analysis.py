"""Exact probability analysis of balanced chain division under faults.

When a chain of ``n`` validators containing ``f`` faulty ones divides into
two children of ``n/2`` by a uniform random balanced split, the faulty count
``f1`` landing in one child is hypergeometric H(n, f, n/2). A child is
compromised when its faulty fraction reaches the consensus threshold alpha.
Everything here is computed in exact rational arithmetic (``fractions`` +
big-integer binomials); floats appear only in the closed-form exponential
bounds and at the output boundary.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crypto import derive_seed
from .errors import InvalidParams
from .model import at_fault_bound

_MC_CELLS = 1 << 16  # uniforms per numpy block (512 KiB), whatever n is
_KEY_SCALE = 65536.0  # 2**16: u * 2**16 is exact, and its floor fits uint16


@dataclass(frozen=True)
class HypergeomParams:
    """H(N, M, n): draws without replacement from N elements, M marked."""

    N: int
    M: int
    n: int

    def __post_init__(self):
        if not (0 <= self.M <= self.N and 0 <= self.n <= self.N):
            raise InvalidParams(
                f"need 0 <= M <= N and 0 <= n <= N, got N={self.N}, "
                f"M={self.M}, n={self.n}")

    @property
    def support(self) -> range:
        return range(max(0, self.n + self.M - self.N), min(self.n, self.M) + 1)


def hypergeom_pmf(p: HypergeomParams, k: int) -> Fraction:
    """P(X = k), exactly; zero outside the support."""
    if k not in p.support:
        return Fraction(0)
    return Fraction(math.comb(p.M, k) * math.comb(p.N - p.M, p.n - k),
                    math.comb(p.N, p.n))


def _hypergeom_mass(p: HypergeomParams, event) -> Fraction:
    """P(event(X)) for X ~ H(N, M, n): sums subset counts, divides once.

    The count w_k = C(M, k) C(N-M, n-k) is stepped through the support by the
    exact recurrence w_{k+1} = w_k (M-k)(n-k) / ((k+1)(N-M-n+k+1)).
    """
    lo, hi = p.support[0], p.support[-1]
    w = math.comb(p.M, lo) * math.comb(p.N - p.M, p.n - lo)
    total = w if event(lo) else 0
    for k in range(lo, hi):  # never steps past the last support point
        w = w * (p.M - k) * (p.n - k) // ((k + 1) * (p.N - p.M - p.n + k + 1))
        if event(k + 1):
            total += w
    return Fraction(total, math.comb(p.N, p.n))


@dataclass(frozen=True)
class DivisionAnalysisParams:
    """Balanced division of n validators (f faulty) at threshold alpha."""

    n: int
    f: int
    alpha: Fraction

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise InvalidParams(f"parent size must be even and >= 2, got {self.n}")
        if not 0 <= self.f <= self.n:
            raise InvalidParams(f"need 0 <= f <= n, got f={self.f}, n={self.n}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not (0 < self.alpha <= Fraction(1, 2)):
            raise InvalidParams("threshold must lie in (0, 1/2]")

    @property
    def beta(self) -> Fraction:
        return Fraction(self.f, self.n)

    @property
    def half(self) -> int:
        return self.n // 2

    def child_violates(self, faulty_in_child: int) -> bool:
        """Security breaks when f_i >= alpha * n_i (exact rational compare)."""
        return at_fault_bound(faulty_in_child, self.half, self.alpha)

    def breaches(self, f1):
        """Whether a split with f1 faulty in child 1 breaches either child;
        elementwise when f1 is a numpy array."""
        half, alpha = self.half, self.alpha
        return (at_fault_bound(f1, half, alpha)
                | at_fault_bound(self.f - f1, half, alpha))

    def decided_breach(self) -> bool | None:
        """Whether a split breaches a child, where the support of f1 decides.

        With c = ceil(alpha * n/2), f1 ranges over [lo, hi] = [max(0, f - n/2),
        min(f, n/2)] and a child breaches when f1 >= c or f - f1 >= c. Returns
        False when no f1 in the support breaches (hi < c and lo > f - c),
        True when every one does (none lies strictly between f - c and c),
        and None when the split decides. Every balanced split puts f1 in the
        support, so a decided probability is exactly 0 or 1.

        lo + hi = f, so the support is symmetric about f/2, and so is the
        interval of non-breaching f1: the event is empty iff the child that
        gets hi stays below c, and certain iff the most even split, with
        ceil(f/2) in one child, already breaches.
        """
        if not self.child_violates(min(self.f, self.half)):
            return False
        if self.child_violates(self.f - self.f // 2):
            return True
        return None


def violation_probability_exact(d: DivisionAnalysisParams) -> Fraction:
    """Exact probability that a uniform balanced split compromises a child.

    One pass over f1 ~ H(n, f, n/2) with the union predicate "child 1 or
    child 2 breaches" stays exact for f >= alpha*n, where the two tail events
    overlap and their plain sum would exceed it. Where the support alone
    decides the event, the answer is 0 or 1 without the walk.
    """
    decided = d.decided_breach()
    if decided is not None:
        return Fraction(int(decided))
    return _hypergeom_mass(HypergeomParams(d.n, d.f, d.half), d.breaches)


def violation_probability_bound(d: DivisionAnalysisParams) -> tuple:
    """(single_tail, combined) closed-form bounds e^(-(alpha-beta)^2 n).

    Requires beta < alpha. The single-tail form, Chvatal's tail bound for
    one child at t = alpha - beta, holds for every t >= 0 and is the dashed
    curve of the security figure; the combined form covers both children.
    """
    if d.beta >= d.alpha:
        raise InvalidParams(
            f"bound needs beta < alpha, got beta={d.beta}, alpha={d.alpha}")
    gap = d.alpha - d.beta
    single = math.exp(-float(gap * gap * d.n))
    return single, min(2.0 * single, 2.0)


def _faulty_in_first_half(u, keys, s, half: int, f: int):
    """Per row of uniforms u, how many of columns 0..f-1 its argsort puts
    among the first ``half`` positions. ``keys`` and ``s`` (uint16, of u's
    shape) are overwritten.

    Ranks 16-bit keys, not floats or indices. A key is floor(u * 2**16): the
    product is exact and u < 1 keeps it below 2**16, so a smaller key always
    means a smaller float. In a row whose sorted keys at positions half-1
    and half differ, the entries with key <= t, the row's half-th smallest
    key, are the first half of the row's argsort. Only the rows whose keys
    tie there are ranked by argsort itself.
    """
    np.multiply(u, _KEY_SCALE, out=keys, casting="unsafe")
    np.copyto(s, keys)
    s.sort(axis=1)
    f1 = np.count_nonzero(keys[:, :f] <= s[:, half - 1:half], axis=1)
    tied = np.flatnonzero(s[:, half - 1] == s[:, half])
    if tied.size:
        order = np.argsort(u[tied], axis=1)
        f1[tied] = (order[:, :half] < f).sum(axis=1)
    return f1


def violation_frequency_montecarlo(d: DivisionAnalysisParams, trials: int,
                                   seed: int = 0) -> tuple:
    """(frequency, stderr) of violations over uniform random balanced splits.

    Each trial draws an independent uniform permutation (argsort of i.i.d.
    uniforms) and counts faulty validators landing in the first half — no
    hypergeometric sampler involved, so this is an independent check of the
    exact law. stderr is the binomial standard error of the estimate.
    Trials are drawn in blocks of about _MC_CELLS uniforms; the generator
    yields them in row-major order, so the block size never changes a draw.
    Each block is ranked on 16-bit keys (_faulty_in_first_half), which gives
    every trial its argsort count.

    The sampler, and with it the independent check, runs only where the
    support of f1 holds both breaching and non-breaching counts
    (``decided_breach`` is None). Elsewhere every trial has the same
    outcome, so the result is (0.0, 0.0) or (1.0, 0.0) with nothing drawn.
    """
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    decided = d.decided_breach()
    if decided is not None:
        return float(decided), 0.0
    rng = np.random.default_rng(seed)
    # block buffers per call: fresh ones per block would each be mapped
    # and page-faulted anew, which cost about a quarter of the sampler's time
    u = np.empty((min(max(1, _MC_CELLS // d.n), trials), d.n))
    keys = np.empty(u.shape, np.uint16)
    s = np.empty_like(keys)
    hits = 0
    done = 0
    while done < trials:
        block = min(len(u), trials - done)
        rng.random(out=u[:block])
        f1 = _faulty_in_first_half(u[:block], keys[:block], s[:block],
                                   d.half, d.f)
        hits += int(np.count_nonzero(d.breaches(f1)))
        done += block
    freq = hits / trials
    stderr = math.sqrt(freq * (1.0 - freq) / trials)
    return freq, stderr


@dataclass(frozen=True)
class SweepRow:
    """One (n, beta) grid point of a security-figure sweep."""

    n: int
    alpha: Fraction
    beta: Fraction  # requested grid ratio
    f: int  # realized faulty count, round(beta * n)
    exact: Fraction
    bound_single: float | None  # evaluated at the realized ratio f/n
    bound_combined: float | None
    mc_freq: float | None = None
    mc_stderr: float | None = None


def default_beta_grid(alpha: Fraction, steps: int = 10) -> list:
    """Evenly spaced ratios j*alpha/steps for j = 0..steps-1 (all < alpha)."""
    alpha = Fraction(alpha)
    if steps < 1:
        raise InvalidParams("steps must be >= 1")
    return [Fraction(j, steps) * alpha for j in range(steps)]


def sweep_curves(n_list, alpha: Fraction, beta_grid=None, trials: int = 0,
                 seed: int = 0) -> list:
    """Security-figure sweep: one SweepRow per (n, beta) grid point.

    f = round(beta * n); the closed-form bounds are evaluated at the realized
    ratio f/n (the theorem's beta) and left None when f/n >= alpha. With
    trials > 0 each point also gets a Monte Carlo frequency on its own
    derived seed, so rows are reproducible independently of sweep order.
    """
    if trials < 0:
        raise InvalidParams("trials must be >= 0")
    alpha = Fraction(alpha)
    if beta_grid is None:
        beta_grid = default_beta_grid(alpha)
    rows = []
    for n in n_list:
        for beta in beta_grid:
            beta = Fraction(beta)
            f = round(beta * n)  # banker's rounding on exact rationals
            d = DivisionAnalysisParams(n, f, alpha)
            exact = violation_probability_exact(d)
            if d.beta < alpha:
                bound_single, bound_combined = violation_probability_bound(d)
            else:
                bound_single = bound_combined = None
            mc_freq = mc_stderr = None
            if trials > 0:
                point_seed = derive_seed("sweep-mc", n, f, str(alpha), seed)
                mc_freq, mc_stderr = violation_frequency_montecarlo(
                    d, trials, seed=point_seed)
            rows.append(SweepRow(n, alpha, beta, f, exact,
                                 bound_single, bound_combined,
                                 mc_freq, mc_stderr))
    return rows

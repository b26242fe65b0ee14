"""The four workloads.

A workload is a closed loop in one process: it hands the library one item at
a time and waits for it.  An item is one verified computation: ``compute``
calls public ``ncspaces`` functions and is timed, ``check`` compares the
result with an oracle and is not, ``corrupt`` returns damaged copies of a
result, one per kind of damage, so the self-test can show that ``check``
rejects each.  ``known_failure`` names the library errors that are documented
defects: such an item counts as failed; any other error makes the run
incorrect.

A workload's item list is drawn once from the seed and then run in passes
(see run.py).  The list has a fixed mix of item kinds and sizes; the seed
draws the parameters (theta, polynomials, phases, centres, offsets), so a
pass costs about the same on every seed.

Library functions are always called through their module (``ta.poly_mul``,
not a local alias), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, List, Optional

import numpy as np

import oracles as orc
from oracles import Verdict, holds, within

from ncspaces import cli
from ncspaces import finite_reps as fr
from ncspaces import gridfn
from ncspaces import moyal
from ncspaces import spectra
from ncspaces import symplectic
from ncspaces import twisted_algebra as ta
from ncspaces import weyl_dynamics as wd
from ncspaces.errors import ValidationError
from ncspaces.phases import Cyclotomic
from ncspaces.skew import SkewMatrix, upper_pairs


@dataclass
class Item:
    kind: str
    compute: Callable[[], Any]
    check: Callable[[Any], List[Verdict]]
    corrupt: Callable[[Any], List[Any]]
    known_failure: Optional[Callable[[Exception], bool]] = None


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: str):
        index = WORKLOAD_NAMES.index(self.name)
        self.rng = np.random.default_rng([int(seed), index])
        self.outdir = outdir

    def items(self) -> List[Item]:
        """The workload's item list; called once per run."""
        raise NotImplementedError

    def warmup(self, items: List[Item]) -> None:
        """Untimed calls that finish lazy set-up (LAPACK, FFT plans) before timing.
        A failure here is left for the timed items to count and report."""
        for item in items:
            try:
                item.check(item.compute())
            except Exception:
                pass

    def _shuffled(self, items: List[Item]) -> List[Item]:
        order = self.rng.permutation(len(items))
        return [items[i] for i in order]


# -- torus_exact ------------------------------------------------------------------


def _denominators(rng, d: int, max_den: int = 9):
    """Reduced denominators of theta_jk, j < k, for theta_jk = n/den with den
    uniform in 1..max_den and n uniform in -den..den."""
    out = []
    for _ in upper_pairs(d):
        den = int(rng.integers(1, max_den + 1))
        out.append(Fraction(int(rng.integers(-den, den + 1)), den).denominator)
    return out


def _rational_theta(rng, d: int, dens) -> SkewMatrix:
    """Theta with the given reduced denominators; each numerator is drawn
    from those in -den..den that keep the denominator."""
    entries = {}
    for jk, den in zip(upper_pairs(d), dens):
        nums = [n for n in range(-den, den + 1) if gcd(n, den) == 1]
        entries[jk] = Fraction(int(rng.choice(nums)), den)
    return SkewMatrix.from_upper(d, entries)


def _exact_poly(rng, theta: SkewMatrix, terms: int, max_exp: int = 2):
    """Built as checks.random_exact_poly builds its polynomials, with the
    number of drawn terms given."""
    q = ta.phase_order(theta)
    coeffs = {}
    for _ in range(terms):
        m = tuple(int(x) for x in rng.integers(-max_exp, max_exp + 1, size=theta.dim))
        c = Cyclotomic.root(q, int(rng.integers(0, q)), Fraction(int(rng.integers(-3, 4)) or 1))
        coeffs[m] = coeffs[m] + c if m in coeffs else c
    return ta.NCPolynomial(theta, coeffs)


def _float_poly(rng, theta: SkewMatrix, terms: int, max_exp: int = 2):
    coeffs = {}
    for _ in range(terms):
        m = tuple(int(x) for x in rng.integers(-max_exp, max_exp + 1, size=theta.dim))
        coeffs[m] = coeffs.get(m, 0j) + complex(rng.standard_normal(), rng.standard_normal())
    return ta.NCPolynomial(theta, coeffs)


def _abs_sum(p) -> float:
    return sum(abs(c) for c in p.coeffs.values())


def _product_gap(ab, a, b) -> float:
    """Distance of the library's a b from the oracle's, in complex floats."""
    want = orc.twisted_product(a.to_float().coeffs, b.to_float().coeffs, a.theta.as_array())
    return orc.coeff_gap(ab.to_float().coeffs, want)


class TorusExact(Workload):
    """Exact identities of the twisted group algebra at random rational theta,
    plus a few float products at irrational theta."""

    name = "torus_exact"
    # An item's cost grows with d, with the term counts of its three
    # polynomials and with the phase order Q, so none is left to the seed:
    # every d in 1..4 gets the same items, one for each pair of term counts
    # (|a|, |b|) in 1..8 with |c| from a Latin square, and the denominators of
    # theta (so Q) come from a generator with a fixed seed.  The workload seed
    # draws the numerators of theta, the exponents and the roots of unity.
    MAX_TERMS = 8
    DESIGN_SEED = 0
    FLOAT_DIMS = (2, 3)
    FLOAT_ITEMS_PER_D = 12
    FLOAT_TOL = 1e-12  # relative to the product of coefficient 1-norms

    def _term_counts(self):
        n = self.MAX_TERMS
        return [(i + 1, j + 1, (i + j) % n + 1) for i in range(n) for j in range(n)]

    def items(self) -> List[Item]:
        design = np.random.default_rng(self.DESIGN_SEED)
        grid = self._term_counts()
        items = [self._exact_item(d, terms, _denominators(design, d))
                 for d in range(1, 5) for terms in grid]
        for d in self.FLOAT_DIMS:
            picks = self.rng.choice(len(grid), self.FLOAT_ITEMS_PER_D, replace=False)
            items += [self._float_item(d, grid[k]) for k in picks]
        return self._shuffled(items)

    def warmup(self, items: List[Item]) -> None:
        # small fixed items, so that set-up costs the same on every seed
        super().warmup([self._exact_item(d, (3, 3, 3), [3] * (d * (d - 1) // 2))
                        for d in range(1, 5)] + [self._float_item(2, (3, 3, 3))])

    def _exact_item(self, d: int, terms, dens) -> Item:
        rng = self.rng
        theta = _rational_theta(rng, d, dens)
        a, b, c = (_exact_poly(rng, theta, int(n)) for n in terms)

        def compute():
            ab = ta.poly_mul(a, b)
            ab_c = ta.poly_mul(ab, c)
            a_bc = ta.poly_mul(a, ta.poly_mul(b, c))
            star = ta.poly_adjoint(ab) == ta.poly_mul(ta.poly_adjoint(b), ta.poly_adjoint(a))
            tr = ta.trace(ab) == ta.trace(ta.poly_mul(b, a))
            chain = a
            for j in range(d):
                chain = ta.cond_expectation(chain, j)
            want = ta.NCPolynomial(theta, {(0,) * d: ta.trace(a)}, exact=True)
            phi = chain == want
            if d >= 2:
                p01 = ta.cond_expectation(ta.cond_expectation(a, 0), 1)
                p10 = ta.cond_expectation(ta.cond_expectation(a, 1), 0)
                phi = phi and p01 == p10
            return {"assoc": ab_c == a_bc, "star": star, "trace": tr, "phi": phi,
                    "ab": ab, "ab_c": ab_c, "a_bc": a_bc}

        def check(r):
            # the identities hold for every theta; the product itself is
            # compared with the oracle's, which applies the twist independently
            out = [holds("twisted_algebra", k, r[k]) for k in ("assoc", "star", "trace", "phi")]
            # a polynomial whose drawn terms cancel has norm 0: the floor keeps
            # the tolerance positive
            scale = max(_abs_sum(a.to_float()) * _abs_sum(b.to_float()), 1.0)
            out.append(within("twisted_algebra", "product-vs-definition", _product_gap(r["ab"], a, b),
                              self.FLOAT_TOL * scale))
            return out

        def moved(p):
            # one coefficient moved by 1
            zero = ((0,) * d, Cyclotomic.zero(ta.phase_order(theta)))
            m, coeff = next(iter(p.coeffs.items()), zero)
            bad = dict(p.coeffs)
            bad[m] = coeff + Cyclotomic.one(coeff.order)
            return ta.NCPolynomial(theta, bad, exact=True)

        def corrupt(r):
            return [dict(r, assoc=moved(r["ab_c"]) == r["a_bc"]), dict(r, ab=moved(r["ab"]))]

        return Item("exact_triple", compute, check, corrupt)

    def _float_item(self, d: int, terms) -> Item:
        rng = self.rng
        theta = SkewMatrix.random(d, rng)
        a, b, c = (_float_poly(rng, theta, int(n)) for n in terms)
        radius = a.degree() + b.degree()
        triples = list(zip(a.coeffs, b.coeffs, c.coeffs))
        vac = ta.gns_vacuum_index(radius, d)

        def compute():
            ab = ta.poly_mul(a, b)
            return {
                "ab": ab,
                "ab_c": ta.poly_mul(ab, c),
                "a_bc": ta.poly_mul(a, ta.poly_mul(b, c)),
                "ga": ta.gns_matrix(a, radius),
                "gb": ta.gns_matrix(b, radius),
                "gab": ta.gns_matrix(ab, radius),
                "gadj": ta.gns_matrix(ta.poly_adjoint(a), radius),
                "cocycle": ta.cocycle_validate(theta, triples),
            }

        def check(r):
            na, nb, nc = _abs_sum(a), _abs_sum(b), _abs_sum(c)
            tol = self.FLOAT_TOL
            hom = np.abs(r["gab"][:, vac] - r["ga"] @ r["gb"][:, vac]).max()
            adj = np.abs(r["gadj"] - r["ga"].conj().T).max()
            rep = r["cocycle"]
            return [
                within("twisted_algebra", "float-assoc",
                       orc.coeff_gap(r["ab_c"].coeffs, r["a_bc"].coeffs), tol * na * nb * nc),
                within("twisted_algebra", "product-vs-definition", _product_gap(r["ab"], a, b),
                       tol * na * nb),
                within("twisted_algebra", "gns-homomorphism", hom, tol * na * nb),
                within("twisted_algebra", "gns-adjoint", adj, tol * na),
                within("twisted_algebra", "cocycle-assoc", rep.max_associativity_defect, tol),
                within("twisted_algebra", "cocycle-normalization",
                       rep.max_normalization_defect, tol),
            ]

        def corrupt(r):
            gab = r["gab"].copy()
            gab[:, vac] += 1e-6 * _abs_sum(a) * _abs_sum(b)
            m = next(iter(r["ab"].coeffs))
            ab = dict(r["ab"].coeffs)
            ab[m] += 1e-6 * _abs_sum(a) * _abs_sum(b)
            return [dict(r, gab=gab), dict(r, ab=ta.NCPolynomial(theta, ab))]

        return Item("float_triple", compute, check, corrupt)


# -- band_spectra ---------------------------------------------------------------------


def reduced_fluxes(q_max: int):
    out = [(0, 1)]
    for q in range(2, q_max + 1):
        out += [(p, q) for p in range(1, q) if gcd(p, q) == 1]
    return out


class BandSpectra(Workload):
    """Band spectra at every reduced flux with q <= Q_MAX, a Hoelder scan from
    flux 1/2 over dyadic offsets of denominators 8, 16 and 32, and one
    ``ncspaces butterfly`` run, each checked against Chambers' band edges."""

    name = "band_spectra"
    Q_MAX = 10
    CLI_QMAX = 8
    HOLDER_BASE = Fraction(1, 2)

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self._ref = {}

    def reference(self, p: int, q: int):
        key = (p % q, q)
        if key not in self._ref:
            self._ref[key] = orc.chambers_bands(key[0], q, spectra.bloch_matrix)
        return self._ref[key]

    def items(self) -> List[Item]:
        items = [self._flux_item(p, q) for p, q in reduced_fluxes(self.Q_MAX)]
        items.append(self._holder_item())
        return self._shuffled(items) + [self._cli_item()]

    def warmup(self, items: List[Item]) -> None:
        super().warmup([self._flux_item(p, q) for p, q in ((0, 1), (1, 2), (1, 3))])

    def _flux_item(self, p: int, q: int) -> Item:
        def compute():
            return spectra.amo_spectrum(p, q).bands

        def check(bands):
            return [orc.bands_match("spectra", bands, self.reference(p, q))]

        def corrupt(bands):
            (a, b), rest = bands[0], list(bands[1:])
            return [[(a - 1e-6, b)] + rest]

        return Item(f"flux_q{q}", compute, check, corrupt)

    def _holder_item(self) -> Item:
        rng = self.rng
        offsets = [Fraction(int(2 * rng.integers(0, den // 2) + 1), den) for den in (8, 16, 32)]
        base = self.HOLDER_BASE

        def compute():
            return spectra.holder_scan(base, offsets)

        def check(res):
            ref_base = self.reference(base.numerator, base.denominator)
            out = [holds("spectra", "holder-lip-half", res.lip_half_ok),
                   holds("spectra", "holder-offsets", sorted(offsets) == list(res.offsets))]
            for x, dist in zip(res.offsets, res.distances):
                fl = base + x
                want = orc.hausdorff(ref_base, self.reference(fl.numerator, fl.denominator))
                out.append(within("spectra", "holder-distance", abs(dist - want), orc.DIST_TOL))
            return out

        def corrupt(res):
            dists = list(res.distances)
            dists[0] += 1e-6
            return [type(res)(**dict(vars(res), distances=dists))]

        return Item("holder_scan", compute, check, corrupt)

    def _cli_item(self) -> Item:
        path = os.path.join(self.outdir, "butterfly.csv")
        argv = ["butterfly", "--qmax", str(self.CLI_QMAX), "--out", path]

        def compute():
            code = cli.main(argv)
            with open(path, "r", encoding="utf-8") as fh:
                return code, fh.read()

        def check(r):
            code, text = r
            table = orc.parse_butterfly_csv(text)
            want = set(reduced_fluxes(self.CLI_QMAX))
            out = [holds("cli", "exit-code", code == 0),
                   holds("spectra", "butterfly-fluxes", set(table) == want)]
            out += [orc.bands_match("spectra", bands, self.reference(p, q))
                    for (p, q), bands in table.items()]
            return out

        def corrupt(r):
            code, text = r
            lines = text.split("\n")
            p, q, i, a, b = lines[1].split(",")
            lines[1] = ",".join([p, q, i, repr(float(a) + 1e-6), b])
            return [(code, "\n".join(lines))]

        return Item("cli_butterfly", compute, check, corrupt)


# -- moyal_plane ------------------------------------------------------------------------


class MoyalPlane(Workload):
    """Star products on the plane by both routes at M = 32 and 64, the twisted
    regular representation at small M, and one ``ncspaces moyal`` run."""

    name = "moyal_plane"
    L = 8.0
    # counts chosen so that the item-time median falls inside the Gaussian
    # M = 32 items and the tail (11th slowest item) inside the band-limited
    # triples, away from the boundaries between kinds
    GAUSS64 = 2
    GAUSS32 = 12
    BAND32 = 10
    REGREP = (8,) * 8 + (16,) * 8

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.cli_theta = float(self.rng.uniform(0.5, 1.5))
        self._cli_ref = None

    def items(self) -> List[Item]:
        items = [self._gauss_item(64) for _ in range(self.GAUSS64)]
        items += [self._gauss_item(32) for _ in range(self.GAUSS32)]
        items += [self._band_item(32) for _ in range(self.BAND32)]
        items += [self._regrep_item(m) for m in self.REGREP]
        items.append(self._cli_item())
        return self._shuffled(items)

    def warmup(self, items: List[Item]) -> None:
        super().warmup([self._gauss_item(32), self._regrep_item(8)])

    def _theta(self) -> SkewMatrix:
        return SkewMatrix.rotation(float(self.rng.uniform(0.5, 1.5)))

    def _gauss_item(self, m: int) -> Item:
        rng = self.rng
        theta = self._theta()
        f = gridfn.GridFunction.gaussian(2, self.L, m, sigma=1.0,
                                         center=tuple(rng.uniform(-0.5, 0.5, 2)))
        g = gridfn.GridFunction.gaussian(2, self.L, m, sigma=1.3,
                                         center=tuple(rng.uniform(-0.5, 0.5, 2)))

        def compute():
            return (moyal.moyal_direct(f, g, theta).values,
                    moyal.star_product_fourier(f, g, theta).values)

        def check(r):
            direct, fourier = r
            tr = abs(orc.grid_integral(fourier, f.step) - orc.grid_integral(f.values * g.values, f.step))
            return [within("moyal", "direct-vs-fourier", orc.max_abs(direct, fourier), orc.CROSS_TOL),
                    within("moyal", "tracial", tr, orc.TRACIAL_TOL)]

        def corrupt(r):
            fourier = r[1].copy()
            fourier[m // 2, m // 2] += 1e-5
            return [(r[0], fourier)]

        return Item(f"gauss_M{m}", compute, check, corrupt)

    def _band_limited(self, m: int):
        raw = self.rng.standard_normal((m, m)) + 1j * self.rng.standard_normal((m, m))
        s = np.arange(m) - m // 2
        keep = np.abs(s) <= (m // 2) / 3
        mask = keep[:, None] & keep[None, :]
        return gridfn.to_position(gridfn.GridFunction(2, self.L, m, raw * mask, side="frequency"))

    def _band_item(self, m: int) -> Item:
        theta = self._theta()
        f, g, h = (self._band_limited(m) for _ in range(3))

        def compute():
            fg = moyal.star_product_fourier(f, g, theta)
            return {
                "fg": fg.values,
                "fg_h": moyal.star_product_fourier(fg, h, theta).values,
                "f_gh": moyal.star_product_fourier(
                    f, moyal.star_product_fourier(g, h, theta), theta).values,
                "direct_fg": moyal.moyal_direct(f, g, theta).values,
            }

        def check(r):
            tr = abs(orc.grid_integral(r["fg"], f.step) - orc.grid_integral(f.values * g.values, f.step))
            return [within("moyal", "associativity", orc.max_abs(r["fg_h"], r["f_gh"]), orc.ASSOC_TOL),
                    within("moyal", "tracial", tr, orc.TRACIAL_TOL),
                    within("moyal", "direct-vs-fourier", orc.max_abs(r["direct_fg"], r["fg"]),
                           orc.CROSS_TOL)]

        def corrupt(r):
            fg_h = r["fg_h"].copy()
            fg_h[0, 0] += 1e-7
            return [dict(r, fg_h=fg_h)]

        return Item(f"band_M{m}", compute, check, corrupt)

    def _regrep_item(self, m: int) -> Item:
        rng = self.rng
        theta_value = float(rng.uniform(0.5, 1.5))
        theta = SkewMatrix.rotation(theta_value)
        f = gridfn.GridFunction.gaussian(2, 4.0, m, sigma=1.0, center=tuple(rng.uniform(-0.5, 0.5, 2)))
        ghat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

        def compute():
            return moyal.regular_rep_matrix(f, theta)

        def check(mat):
            fhat = gridfn.to_frequency(f)
            want = orc.twisted_action(fhat.values, ghat, fhat.freq_axis(), theta_value,
                                      fhat.freq_step ** 2)
            dev = np.abs(mat @ ghat.ravel() - want).max() / np.abs(want).max()
            return [within("moyal", "regular-rep", dev, 1e-10)]

        def corrupt(mat):
            bad = mat.copy()
            bad[0, :] += 1e-6 * np.abs(mat).max()
            return [bad]

        return Item(f"regrep_M{m}", compute, check, corrupt)

    def _cli_item(self) -> Item:
        path = os.path.join(self.outdir, "star.gridfn")
        argv = ["moyal", "--theta", repr(self.cli_theta), "--out", path]

        def compute():
            code = cli.main(argv)
            return code, orc.read_gridfn_file(path)

        def check(r):
            code, (header, values) = r
            if self._cli_ref is None:
                # the subcommand's default inputs, by the other route
                f = gridfn.GridFunction.gaussian(2, 8.0, 64, sigma=1.0)
                g = gridfn.GridFunction.gaussian(2, 8.0, 64, sigma=1.3, center=(0.4, -0.3))
                self._cli_ref = moyal.moyal_direct(f, g, SkewMatrix.rotation(self.cli_theta)).values
            return [holds("cli", "exit-code", code == 0),
                    holds("moyal", "gridfn-header", (header["d"], header["M"]) == (2, 64)),
                    within("moyal", "cli-vs-direct", orc.max_abs(values, self._cli_ref), orc.CROSS_TOL)]

        def corrupt(r):
            code, (header, values) = r
            bad = values.copy()
            bad[32, 32] += 1e-5
            return [(code, (header, bad))]

        return Item("cli_moyal", compute, check, corrupt)


# -- operator_tuples ----------------------------------------------------------------------


class OperatorTuples(Workload):
    """Tensor-assembled unitary tuples from about 10 to 1024 dimensions, the
    distance lower bound, generator/group norm equivalence, symplectic normal
    forms and Weyl-relation residuals for M = 64 .. 1024."""

    name = "operator_tuples"
    # q of each pair (j, k): d = 4 gives 324 and 729 dimensions, d = 5 gives 1024
    FIXED_TABLES = ([3, 3, 3, 3, 2, 2], [3] * 6, [2] * 10)
    SMALL_TUPLES = ((2, 16), (2, 16), (3, 5), (3, 5))  # (d, largest q per pair)
    # counts that put the median item inside the generator pairs (about
    # 0.55 ms), away from the step down to the distance pairs and symplectic
    # forms (0.3 to 0.45 ms); the generator sizes n = 2..8 are cycled, not drawn
    DISTANCE_PAIRS = 12
    GENERATOR_PAIRS = 28
    SYMPLECTIC_FORMS = 12
    WEYL_M = (64, 128, 256, 512, 1024)
    WEYL_WIDTH = 32.0  # weyl_residual's default reference-state width fraction
    # from M = 512 on, the defect's operator norm comes from power iteration,
    # whose iteration count (and so the item's cost, up to 8x) depends on
    # (theta, s, t); these sizes use fixed parameters so that every seed costs
    # the same: off the lattice the `weyl` subcommand's defaults, on it a
    # shift of 3 grid steps and a modulation of 5 dual steps
    WEYL_FIXED_FROM = 512
    WEYL_FIXED = (1.0, 0.37, 0.37)
    WEYL_FIXED_LATTICE = (1.0, 3, 5)
    # clock_shift rejects its own pair at these fluxes: the commutation
    # round-off, 1.02e-14 to 1.15e-14, exceeds its default tolerance 1e-14
    CLOCK_SHIFT_DEFECTS = frozenset({(11, 15), (11, 16), (15, 16)})

    def items(self) -> List[Item]:
        rng = self.rng
        items = []
        for d, qmax in self.SMALL_TUPLES:
            items.append(self._tuple_item([int(rng.integers(2, qmax + 1))
                                           for _ in upper_pairs(d)]))
        for qs in self.FIXED_TABLES:
            items.append(self._tuple_item(list(rng.permutation(qs))))
        items += [self._distance_item() for _ in range(self.DISTANCE_PAIRS)]
        items += [self._generator_item(2 + k % 7) for k in range(self.GENERATOR_PAIRS)]
        items += [self._symplectic_item() for _ in range(self.SYMPLECTIC_FORMS)]
        for m in self.WEYL_M:
            # three seeded pairs at M = 256 put the tail (11th slowest item)
            # among them, below the seven items of 0.2 s and more
            repeats = 3 if m == 256 else 1
            items += [self._weyl_item(m, commensurate=c) for c in (False, True)
                      for _ in range(repeats)]
        return self._shuffled(items)

    def warmup(self, items: List[Item]) -> None:
        super().warmup([self._tuple_item([2, 3, 2]), self._generator_item(4),
                        self._distance_item(), self._weyl_item(64, False)])

    def _tuple_item(self, qs) -> Item:
        rng = self.rng
        d = int(round((1 + math.sqrt(1 + 8 * len(qs))) / 2))
        pairs = upper_pairs(d)
        ps = [int(rng.integers(0, q)) for q in qs]
        want_sigma = {jk: np.exp(2j * np.pi * p / q) for jk, p, q in zip(pairs, ps, qs)}
        dim = int(np.prod(qs))

        def compute():
            # the legs are built here, not during set-up: clock_shift rejects
            # some of its own pairs (p/q = 11/15, 11/16, 15/16 with q <= 16),
            # which must count as a failed item rather than end the run
            table = {jk: fr.clock_shift(p, q) for jk, p, q in zip(pairs, ps, qs)}
            t = fr.tensor_construct(table)
            return {"matrices": t.matrices, "sigma": t.sigma, "tol": t.tol,
                    "report": fr.verify_relations(t)}

        def check(r):
            tol = r["tol"]
            rep = r["report"]
            comm, unit = orc.monomial_relations(r["matrices"], r["sigma"])
            phase = max(abs(r["sigma"][j, k] - w) for (j, k), w in want_sigma.items())
            return [holds("finite_reps", "dimension", r["matrices"][0].shape[0] == dim),
                    within("finite_reps", "sigma", phase, 1e-12),
                    within("finite_reps", "reported-relations",
                           max(rep.max_commutation, rep.max_unitarity), tol),
                    within("finite_reps", "commutation", comm, tol),
                    within("finite_reps", "unitarity", unit, tol)]

        def corrupt(r):
            mats = list(r["matrices"])
            bad = mats[0].copy()
            c = int(np.flatnonzero(bad[:, 0])[0])
            bad[c, 0] *= np.exp(1e-6j)
            mats[0] = bad
            return [dict(r, matrices=tuple(mats))]

        def known_failure(e):
            return isinstance(e, ValidationError) and any(
                (p, q) in self.CLOCK_SHIFT_DEFECTS for p, q in zip(ps, qs))

        return Item(f"tuple_d{d}" + ("_ge512" if dim >= 512 else ""), compute, check, corrupt,
                    known_failure)

    def _random_tuple_pair(self):
        """Two clock/shift pairs padded to one space, the second conjugated by
        a random unitary (as checks.random_tuple_pair builds them)."""
        rng = self.rng
        q, q2 = (int(rng.choice((2, 3, 4))) for _ in range(2))
        a = fr.clock_shift(int(rng.integers(0, q)), q)
        b = fr.clock_shift(int(rng.integers(0, q2)), q2)
        a = fr.tensor_translate(a, fr.UnitaryTuple.identity(2, q2))
        b = fr.tensor_translate(fr.UnitaryTuple.identity(2, q), b)
        n = q * q2
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = fr.UnitaryTuple(tuple(u @ m @ u.conj().T for m in b.matrices), b.sigma, b.tol + 1e-12)
        return a, b

    def _distance_item(self) -> Item:
        a, b = self._random_tuple_pair()

        def compute():
            return fr.distance_lower_bound_check(a, b)

        def check(rep):
            lhs = max(orc.two_norm(x - y) for x, y in zip(a.matrices, b.matrices))
            rhs = 0.5 * math.sqrt(float(np.abs(a.sigma - b.sigma).max()))
            return [holds("finite_reps", "lower-bound", rep.holds and lhs >= rhs - 1e-12),
                    within("finite_reps", "distance-lhs", abs(rep.lhs - lhs), 1e-10 * max(1.0, lhs)),
                    within("finite_reps", "distance-rhs", abs(rep.rhs - rhs), 1e-12)]

        def corrupt(rep):
            return [type(rep)(rep.holds, rep.lhs + 1e-6, rep.rhs, rep.margin)]

        return Item("distance_pair", compute, check, corrupt)

    def _generator_item(self, n: int) -> Item:
        rng = self.rng
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p1 = (x + x.conj().T) / 2
        p2 = p1 + (y + y.conj().T) / 2
        dn = orc.two_norm(p1 - p2)
        ts = [0.001 / dn * (k + 1) for k in range(5)] + [0.1, 0.5, 1.0]

        def compute():
            return wd.generator_bound_check(wd.HermitianPair(p1, p2), ts)

        def check(rep):
            return [holds("weyl_dynamics", "necessity", rep.necessity_ok),
                    within("weyl_dynamics", "slope", rep.slope_relative_error, 0.05),
                    within("weyl_dynamics", "difference-norm", abs(rep.difference_norm - dn),
                           1e-10 * dn)]

        def corrupt(rep):
            return [type(rep)(rep.difference_norm * (1 + 1e-6), rep.necessity_ok,
                              rep.max_necessity_excess, rep.slope_estimate, rep.slope_relative_error)]

        return Item("generator_pair", compute, check, corrupt)

    def _symplectic_item(self) -> Item:
        rng = self.rng
        while True:
            d = int(rng.choice([2, 4, 6]))
            theta = SkewMatrix.random(d, rng)
            sv = np.linalg.svd(theta.as_array(), compute_uv=False)
            if sv[-1] >= 1e-3 * sv[0]:
                break
        arr = theta.as_array()
        n = d // 2
        canonical = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

        def compute():
            return symplectic.symplectic_normalize(theta)

        def check(sf):
            t = sf.transform
            return [within("symplectic", "normal-form", np.abs(t @ arr @ t.T - canonical).max(), 1e-10),
                    within("symplectic", "reported-residual", sf.residual, 1e-10)]

        def corrupt(sf):
            t = sf.transform.copy()
            t[0, 0] += 1e-6
            return [type(sf)(sf.theta, t, sf.residual)]

        return Item("symplectic", compute, check, corrupt)

    def _weyl_item(self, m: int, commensurate: bool) -> Item:
        rng = self.rng
        grid = symplectic.GridSpec.self_dual(m)
        if m >= self.WEYL_FIXED_FROM and commensurate:
            theta, k, l = self.WEYL_FIXED_LATTICE
        elif m >= self.WEYL_FIXED_FROM:
            theta, s, t = self.WEYL_FIXED
        else:
            theta = float(rng.uniform(0.5, 1.5))
            k, l = (int(x) for x in rng.integers(1, 6, 2))
            s, t = (float(v) for v in rng.uniform(0.2, 0.6, 2))
        if commensurate:
            s, t = k * grid.step / theta, l * grid.dual_step

        def compute():
            return wd.weyl_residual(theta, s, t, grid)

        def check(rep):
            want = orc.weyl_residual_fft(theta, s, t, grid.axis(), grid.frequencies(),
                                         self.WEYL_WIDTH, grid.half_length)
            out = [within("weyl_dynamics", "residual", abs(rep.residual - want), 1e-9),
                   holds("weyl_dynamics", "norm-dominates-residual",
                         rep.operator_defect >= rep.residual - 1e-12),
                   holds("weyl_dynamics", "lattice-flags",
                         rep.commensurate_shift == commensurate
                         and rep.commensurate_modulation == commensurate)]
            if commensurate:
                out.append(within("weyl_dynamics", "commensurate-defect", rep.operator_defect, 1e-10))
            return out

        def corrupt(rep):
            return [type(rep)(rep.residual + 1e-6, rep.operator_defect, rep.shift,
                              rep.commensurate_shift, rep.commensurate_modulation)]

        return Item(f"weyl_M{m}" + ("_lattice" if commensurate else ""), compute, check, corrupt)


WORKLOADS = {cls.name: cls for cls in (TorusExact, BandSpectra, MoyalPlane, OperatorTuples)}
WORKLOAD_NAMES = list(WORKLOADS)

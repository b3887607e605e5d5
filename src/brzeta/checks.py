"""Verification suites: every formula engine against an independent witness.

Each check compares two computations that share no code path — a closed
product against brute-force enumeration, a substitution identity against its
closed form, dual expansions of the same Dirichlet series — and reports a
structured result.  All comparisons are exact.  A looping suite is a
generator of cases, each a list of ``(label, got, want)`` comparisons, and
:func:`_compare` is its one loop: it numbers the cases, computes each only
when every case before it has agreed, and stops at the first disagreement.
A failure always carries a (where, expected, actual) triple, printed as
``FAIL <name> (<k> cases) [at <where>: expected <want>, got <got>]``, where k
is the failing case and ``where`` is the label, followed for a series by
``:`` and its least differing monomial.  The engines compute each count one
way, and the second way is a case here.  The closed engines expand each run
of geometric factors as one series by the q-binomial theorem
(``TruncatedSeries.geometric``); their factor-by-factor witnesses are
``geometric_product`` in the ``q-partition`` orbit leg
(``hermite_orbit_sum`` against ``solomon_hey_factor``) and in the
``brs-factored`` zjv leg (the closed layer factors against ``zjv_factor``),
next to enumeration in ``hey-oracle``.  A formula violation raised inside a
suite (an invariant of an engine or of a witness) is reported by ``verify``
as the failure of that suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import hereditary as her
from . import oracle as orc
from . import prolif as pr
from .errors import FormulaViolationError
from .hey import SemisimpleData, hey_product, moebius_inverse_series
from .qcomb import gaussian_binomial, partition_count
from .series import TruncatedSeries, geometric_product


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""
    disagreement: tuple | None = None  # (where, expected, actual)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        if self.disagreement is not None:
            where, want, got = self.disagreement
            tail += f" [at {where}: expected {want}, got {got}]"
        return f"{status} {self.name} ({self.cases} cases){tail}"


def _disagreement(got, want) -> tuple[str, str, str] | None:
    """None if ``got == want``; else (where, expected, got) as text.

    Two series are pinned at their least differing monomial, so ``where`` is
    ``:`` and that monomial; any other pair is compared whole, with ``where``
    empty.
    """
    if got == want:
        return None
    diff = got.first_disagreement(want) if isinstance(got, TruncatedSeries) else None
    if diff is None:
        return "", str(want), str(got)
    return f":{got.alphabet.format_monomial(diff[0])}", str(diff[2]), str(diff[1])


def _compare(name: str, detail: str, cases) -> CheckResult:
    """Run ``cases``, an iterable of ``(label, got, want)`` lists, one list per case.

    The first disagreement fails the suite at that case's number, and the
    iterable is not advanced past it.
    """
    count = 0
    for count, comparisons in enumerate(cases, 1):
        for label, got, want in comparisons:
            bad = _disagreement(got, want)
            if bad is not None:
                where, expected, actual = bad
                return CheckResult(name, False, count, disagreement=(label + where, expected, actual))
    return CheckResult(name, True, count, detail)


# -- 1: Hey product vs chain-model enumeration ---------------------------------


def check_hey_oracle(qs=(2, 3), ms=(1, 2, 3), bound=4) -> CheckResult:
    def cases():
        for q in qs:
            for m in ms:
                engine = hey_product(SemisimpleData.from_specs([(q, m)]), bound)
                counted = orc.empirical_zeta(orc.chain_module(q, bound + 1, m), bound)
                yield [(f"q={q},m={m}", counted, engine)]

    return _compare("hey-oracle", "product coefficients = submodule counts", cases())


# -- 2: Moebius inverse --------------------------------------------------------


def check_moebius(bound=8, trials=20, seed=20260825) -> CheckResult:
    rng = random.Random(seed)

    def cases():
        for _ in range(trials):
            n = rng.randint(1, 3)
            specs = [(rng.choice((2, 3, 4)), rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
            data = SemisimpleData.from_specs(specs)
            prod = hey_product(data, bound) * moebius_inverse_series(data, bound)
            yield [(f"specs={specs}", prod, TruncatedSeries.one(data.alphabet, bound))]

    return _compare("moebius", f"hey * inverse = 1 at bound {bound}", cases())


# -- 3: hereditary joint zeta vs triangular-model enumeration -------------------


def _hereditary_grid(qs=(2, 3), n_max=3, r_max=3):
    for q in qs:
        for n in range(1, n_max + 1):
            for r in range(1, r_max + 1):
                for cols in combinations_with_replacement(range(1, n + 1), r):
                    yield her.Lattice(q, n, cols)


def _grid_label(lat: her.Lattice) -> str:
    return f"q={lat.q},n={lat.n},cols={lat.columns}"


def check_hereditary_oracle(qs=(2, 3), n_max=3, r_max=3, bound=3) -> CheckResult:
    def cases():
        for lat in _hereditary_grid(qs, n_max, r_max):
            engine = her.brz_two_variable(lat, bound)
            model = orc.triangular_module(lat.q, lat.n, -(-(bound + 1) // lat.n), lat.columns)
            counted = orc.empirical_zeta(model, bound, joint=True)
            yield [(_grid_label(lat), counted, engine)]

    return _compare("hereditary-oracle", "joint (z,w) coefficients match enumeration", cases())


# -- 4: polynomiality and stabilization of the lattice factor -------------------


def check_brs_polynomial(qs=(2, 3), n_max=3, r_max=3, z_bound=3) -> CheckResult:
    def cases():
        for lat in _hereditary_grid(qs, n_max, r_max):
            full = 2 * lat.n * lat.r + lat.r
            f_full = her.brs_F(lat, full)  # raises unless divisible by the column shift
            # past its degree bound the factor gains no term
            stable = her.polynomial_factor(lat, full + 3)
            # assembled identity: F times the rank-r base count = the joint zeta
            joint = her.brz_two_variable(lat, z_bound)
            v_exps = (1,) * lat.n + (0,) * lat.n
            zfac = TruncatedSeries.geometric(joint.alphabet, joint.bound, v_exps, 1, lat.r, lat.q)
            label = _grid_label(lat)
            yield [
                (f"{label},stable", stable, f_full.extended(full + 3)),
                (f"{label},joint", f_full.extended(joint.bound) * zfac, joint),
            ]

    return _compare("brs-polynomial", "integer, stable, and factors the joint zeta", cases())


# -- 5: rank-step partition of unity and orbit sums ------------------------------


def check_q_partition(r_max=6, qs=(2, 3, 4, 5), bound=10) -> CheckResult:
    def cases():
        for q in qs:
            al = her.v_alphabet(q)
            for r in range(0, r_max + 1):
                # sum of gauss(r,m,q) * Q(m,r,q) over m must collapse to 1
                terms = (
                    TruncatedSeries.powers(al, r, (1,), her.hermite_Q(m, r, q)).scaled(gaussian_binomial(r, m, q))
                    for m in range(r + 1)
                )
                yield [(f"q={q},r={r}", sum(terms, TruncatedSeries.zero(al, r)), TruncatedSeries.one(al, r))]
        for q in (2, 3):
            for r in range(0, 5):
                for m in range(r + 1):
                    orbit = her.hermite_orbit_sum(m, r, q, bound)
                    qpoly = TruncatedSeries.powers(orbit.alphabet, bound, (1,), her.hermite_Q(m, r, q))
                    closed = qpoly * her.solomon_hey_factor(r, q, bound)
                    yield [(f"orbit q={q},r={r},m={m}", orbit, closed)]

    return _compare("q-partition", "partition of unity and orbit sums hold", cases())


# -- 6: one-class ideal counts three ways ----------------------------------------


def check_lustig(qs=(2, 3), i_formulas=12, i_oracle=4) -> CheckResult:
    def cases():
        for q in qs:
            coeffs = pr.lustig_coeffs(q, i_formulas)
            # an ideal of colength i is counted by the partitions of i with greatest part j, at q^(i-j) each
            yield [
                (f"q={q},partitions,colength={i}", coeffs[i],
                 sum(partition_count(i, j) * q ** (i - j) for j in range(i + 1)))
                for i in range(i_formulas + 1)
            ]
            # an ideal of colength i contains m^i, so colengths <= top live mod m^(top+1)
            top = min(i_oracle, i_formulas)
            counted = orc.empirical_zeta(orc.local2d_module(q, top + 1, 1), top)
            for i in range(top + 1):
                yield [(f"q={q},colength={i}", counted.coefficient((i,)), coeffs[i])]

    return _compare("lustig", "partition formula = product = ideal enumeration", cases())


# -- 7: global ideal counts two ways ---------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def check_rossmann(n_max=64) -> CheckResult:
    def cases():
        table = pr.rossmann_coeffs(n_max)
        # the count is multiplicative, and at a prime power p^e it is the one-class count at q=p
        local: dict[int, list[int]] = {}
        for n in range(1, n_max + 1):
            want = 1
            for p, e in _factorize(n).items():
                if p not in local:
                    e_max = 1
                    while p ** (e_max + 1) <= n_max:
                        e_max += 1
                    local[p] = pr.lustig_coeffs(p, e_max)
                want *= local[p][e]
            yield [(f"n={n}", table.get(n, 0), want)]

    return _compare("rossmann", f"shifted-factor = prime-local up to {n_max}", cases())


# -- 8: three code paths for a valuation-ring slice -------------------------------


def check_dvr_consistency(qs=(2, 3), m_max=3, bound=6) -> CheckResult:
    def cases():
        for q in qs:
            for m in range(0, m_max + 1):
                base = pr.SliceBase.dvr(q, m)
                sliver = pr.single_sliver(base, bound)
                prolif = pr.proliferation_sum(base, bound)
                lifted = pr.lifted_hey(SemisimpleData.from_specs([(q, m)]), None, bound)
                yield [
                    (f"q={q},m={m},prolif-vs-sliver", prolif, sliver),
                    (f"q={q},m={m},lifted-vs-sliver", lifted, sliver),
                ]

    return _compare("dvr-consistency", "sliver = layered product = class-sequence sum", cases())


# -- 9: split-slice sum against the one-class product ------------------------------


def check_voll(qs=(2, 3), m_max=3, bound=5) -> CheckResult:
    def cases():
        for q in qs:
            for m in range(0, m_max + 1):
                data = SemisimpleData.from_specs([(q, m)])
                summed = pr.proliferation_sum(pr.SliceBase(data), bound)
                yield [(f"q={q},m={m}", summed, hey_product(data, bound))]

    return _compare("voll", "semisimple class-sequence sum = closed product", cases())


# -- 10: per-chain fiber values against enumeration --------------------------------


def check_fiber(bound=3, c=None) -> CheckResult:
    c = c if c is not None else bound + 1
    model = orc.local2d_module(2, c, 1)
    base = pr.SliceBase.dvr(2, 1)
    # the partition files each node of its one BFS under exactly one chart
    parts = orc.fiber_partition(model, bound)
    covered = sum(map(len, parts.values()))

    def cases():
        for chain, nodes in parts.items():
            want = pr.fundamental_fiber_product(base, chain, bound)
            yield [(f"chain={chain.quotients}", orc.fiber_sum(model, nodes, bound), want)]

    return _compare("fiber", f"all charts match; partition covers {covered} submodules", cases())


# -- 11: the power-series order over the basic two-class lattice ring ---------------


def check_skew_example(bound=3) -> CheckResult:
    def cases():
        through_lattice = pr.proliferation_sum(pr.SliceBase(her.Lattice(2, 2, (1, 2))), bound)
        counted = orc.empirical_zeta(orc.skew_module(2, 2, -(-(bound + 1) // 2), bound + 1), bound)
        yield [("oracle-vs-lattice-slice", counted, through_lattice)]
        through_split = pr.lifted_hey(SemisimpleData.from_specs([(2, 1), (2, 1)]), (1, 0), bound)
        yield [("split-slice-vs-lattice-slice", through_split, through_lattice)]
        yield []  # three computations, counted as three cases

    return _compare("skew-example", "enumeration = lattice-slice sum = twisted split product", cases())


# -- 12: factored form of the class-sequence sum ------------------------------------


def check_brs_factored(bound=3) -> CheckResult:
    lattice = her.Lattice(2, 2, (1, 2))
    base = pr.SliceBase(lattice)

    def cases():
        prefactor, remainder = pr.brs_factored_prolif(base, bound)
        comparisons = [("prefactor*remainder", prefactor * remainder, pr.proliferation_sum(base, bound))]
        # the substituted layer factors of the base counts that the prefactor is built from, in closed form
        al = her.v_alphabet(lattice.q)
        for ell in range(1, lattice.r + 1):
            for j in range(bound):
                closed = geometric_product(al, bound, (((j + 1,), lattice.q ** (i + j * ell)) for i in range(ell)))
                comparisons.append((f"zjv ell={ell},j={j}", pr.zjv_factor(ell, lattice.q, j, bound), closed))
        yield comparisons

    return _compare("brs-factored", "prefactor * remainder = class-sequence sum", cases())


# -- 13: integrality of everything any engine emits ----------------------------------


def check_integrality(bound=4) -> CheckResult:
    emitted: list[tuple[str, TruncatedSeries]] = []
    for q, m in ((2, 2), (3, 1), (4, 3)):
        data = SemisimpleData.from_specs([(q, m)])
        emitted.append((f"hey q={q} m={m}", hey_product(data, bound)))
    lattice = her.Lattice(2, 2, (1, 2))
    emitted.append(("hereditary joint", her.brz_two_variable(lattice, bound)))
    emitted.append(("hereditary total", her.total_zeta(lattice, bound)))
    emitted.append(("hereditary partial", her.partial_zeta(lattice, (1, 1), bound)))
    emitted.append(("prolif hereditary", pr.proliferation_sum(pr.SliceBase(lattice), 3)))
    emitted.append(("prolif semisimple", pr.proliferation_sum(
        pr.SliceBase(SemisimpleData.from_specs([(2, 1), (3, 2)])), 3)))
    emitted.append(("sliver dvr", pr.single_sliver(pr.SliceBase.dvr(2, 3), bound)))
    emitted.append(("lifted hey", pr.lifted_hey(SemisimpleData.from_specs([(2, 1), (2, 1)]), (1, 0), bound)))
    emitted.append(("zjv", pr.zjv_factor(2, 2, 1, bound)))
    tables = [(name, {series.alphabet.format_monomial(k): c for k, c in series.items()}) for name, series in emitted]
    tables += [
        ("lustig q=2", dict(enumerate(pr.lustig_coeffs(2, 8)))),
        ("rossmann", pr.rossmann_coeffs(32)),
        ("hom-slice", pr.hom_slice_dirichlet(2, 1, 2, 1, 32)),
    ]

    def cases():
        for name, table in tables:
            bad = [(k, v) for k, v in table.items() if not isinstance(v, int) or v < 0]
            yield [(name, str(bad[0]) if bad else "integer >= 0", "integer >= 0")]

    return _compare("integrality", "all emitted coefficients are nonnegative integers", cases())


# -- 14: Hall numbers against direct enumeration --------------------------------------


def check_hall(qs=(2, 3)) -> CheckResult:
    def cases():
        for q in qs:
            model = orc.chain_module(q, 2, 2, exact=True)
            ambient = model.full()
            # partial zeta by iso class = Hall-number sum, per colength
            for c_type in ((2, 1), (2,), (1, 1), (1,)):
                colen = model.dim - sum(c_type)
                if colen < 0 or colen > 2:
                    continue
                direct = sum(
                    node.colength == colen and orc.jordan_type(model, node.rep) == c_type
                    for node in orc.submodules(model, colen)
                )
                via_hall = sum(orc.hall_number(model, ambient, b_type, c_type) for b_type in _partitions_of(colen))
                yield [(f"q={q},C={c_type}", via_hall, direct)]
            # chain property with two and three steps; a zero factor zeroes the product
            plans = [
                [((2, 1), (1,)), ((2,), (1,))],
                [((2, 1), (1,)), ((1, 1), (1,)), ((1,), (1,))],
            ]
            for plan in plans:
                product, amb_rep = 1, ambient
                for sub_t, quo_t in plan:
                    product *= orc.hall_number(model, amb_rep, quo_t, sub_t)
                    if not product:
                        break
                    amb_rep = _witness(model, amb_rep, sub_t, quo_t)
                yield [(f"q={q},plan={plan}", product, orc.chain_type_count(model, ambient, plan))]

    return _compare("hall", "iso-class sums and chain products match enumeration", cases())


def _partitions_of(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def _witness(model, ambient, sub_t, quo_t):
    for rep in orc.typed_submodules(model, ambient, sub_t, quo_t):
        return rep
    raise FormulaViolationError(f"no submodule of type {sub_t} with quotient {quo_t}")


# -- registry ------------------------------------------------------------------------


ALL_CHECKS = {
    "hey-oracle": check_hey_oracle,
    "moebius": check_moebius,
    "hereditary-oracle": check_hereditary_oracle,
    "brs-polynomial": check_brs_polynomial,
    "q-partition": check_q_partition,
    "lustig": check_lustig,
    "rossmann": check_rossmann,
    "dvr-consistency": check_dvr_consistency,
    "voll": check_voll,
    "fiber": check_fiber,
    "skew-example": check_skew_example,
    "brs-factored": check_brs_factored,
    "integrality": check_integrality,
    "hall": check_hall,
}

#: the parameter of each suite that ``verify --max`` sets
SUITE_SIZE_KNOB = {
    "rossmann": "n_max",
    "lustig": "i_formulas",
    "moebius": "trials",
    "dvr-consistency": "bound",
    "voll": "bound",
    "fiber": "bound",
    "hey-oracle": "bound",
}

"""Verification suites: every formula engine against an independent witness.

Each check compares two computations that share no code path — a closed
product against brute-force enumeration, a substitution identity against its
closed form, dual expansions of the same Dirichlet series — and reports a
structured result.  A failure always carries a (where, expected, actual)
triple pinpointing the first disagreement.  All comparisons are exact.  An
engine that checks itself raises a formula violation instead, which
``verify`` reports as the failure of the suite that ran it.
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
from .qcomb import gaussian_binomial
from .series import TruncatedSeries


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


def _series_case(name, cases, got: TruncatedSeries, want: TruncatedSeries, label) -> CheckResult | None:
    """None if the two series agree; a failing result otherwise."""
    if got == want:
        return None
    diff = got.first_disagreement(want)
    where = f"{label}:{got.alphabet.format_monomial(diff[0])}" if diff else label
    return CheckResult(name, False, cases, disagreement=(where, str(diff[2]) if diff else str(want), str(diff[1]) if diff else str(got)))


# -- 1: Hey product vs chain-model enumeration ---------------------------------


def check_hey_oracle(qs=(2, 3), ms=(1, 2, 3), bound=4) -> CheckResult:
    cases = 0
    for q in qs:
        for m in ms:
            data = SemisimpleData.from_specs([(q, m)])
            engine = hey_product(data, bound)
            model = orc.chain_module(q, bound + 1, m)
            counted = orc.empirical_zeta(model, bound)
            cases += 1
            bad = _series_case("hey-oracle", cases, counted, engine, f"q={q},m={m}")
            if bad:
                return bad
    return CheckResult("hey-oracle", True, cases, "product coefficients = submodule counts")


# -- 2: Moebius inverse --------------------------------------------------------


def check_moebius(bound=8, trials=20, seed=20260825) -> CheckResult:
    rng = random.Random(seed)
    cases = 0
    for _ in range(trials):
        n = rng.randint(1, 3)
        specs = [(rng.choice((2, 3, 4)), rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
        data = SemisimpleData.from_specs(specs)
        prod = hey_product(data, bound) * moebius_inverse_series(data, bound)
        one = TruncatedSeries.one(data.alphabet(), bound)
        cases += 1
        bad = _series_case("moebius", cases, prod, one, f"specs={specs}")
        if bad:
            return bad
    return CheckResult("moebius", True, cases, f"hey * inverse = 1 at bound {bound}")


# -- 3: hereditary joint zeta vs triangular-model enumeration -------------------


def _hereditary_grid(qs=(2, 3), n_max=3, r_max=3):
    for q in qs:
        for n in range(1, n_max + 1):
            for r in range(1, r_max + 1):
                for cols in combinations_with_replacement(range(1, n + 1), r):
                    yield q, n, cols


def check_hereditary_oracle(qs=(2, 3), n_max=3, r_max=3, bound=3) -> CheckResult:
    cases = 0
    for q, n, cols in _hereditary_grid(qs, n_max, r_max):
        order = her.HereditaryOrderSpec(q, n)
        module = her.HereditaryModuleSpec(cols)
        engine = her.brz_two_variable(order, module, bound)
        c = -(-(bound + 1) // n)
        model = orc.triangular_module(q, n, c, cols)
        counted = orc.empirical_zeta(model, bound, joint=True)
        cases += 1
        bad = _series_case("hereditary-oracle", cases, counted, engine, f"q={q},n={n},cols={cols}")
        if bad:
            return bad
    return CheckResult("hereditary-oracle", True, cases, "joint (z,w) coefficients match enumeration")


# -- 4: polynomiality and stabilization of the lattice factor -------------------


def check_brs_polynomial(qs=(2, 3), n_max=3, r_max=3, z_bound=3) -> CheckResult:
    cases = 0
    for q, n, cols in _hereditary_grid(qs, n_max, r_max):
        order = her.HereditaryOrderSpec(q, n)
        module = her.HereditaryModuleSpec(cols)
        r = module.r
        full = 2 * r * n + r
        f_full = her.brs_F(order, module, full)  # raises unless divisible by the column shift
        f_again = her.brs_F(order, module, full + 3)
        cases += 1
        if f_again.truncated(full) != f_full:
            diff = f_again.truncated(full).first_disagreement(f_full)
            return CheckResult(
                "brs-polynomial", False, cases,
                disagreement=(f"q={q},n={n},cols={cols}:{diff[0]}", str(diff[2]), str(diff[1])),
            )
        # assembled identity: F times the rank-r base count = the joint zeta
        joint = her.brz_two_variable(order, module, z_bound)
        al = joint.alphabet
        v_exps = (1,) * n + (0,) * n
        zfac = her.solomon_hey_factor(r, q, joint.bound, al, v_exps)
        prod = f_full.extended(joint.bound) * zfac
        bad = _series_case("brs-polynomial", cases, prod, joint, f"q={q},n={n},cols={cols}")
        if bad:
            return bad
    return CheckResult("brs-polynomial", True, cases, "integer, stable, and factors the joint zeta")


# -- 5: rank-step partition of unity and orbit sums ------------------------------


def check_q_partition(r_max=6, qs=(2, 3, 4, 5), bound=10) -> CheckResult:
    cases = 0
    for q in qs:
        for r in range(0, r_max + 1):
            # sum of gauss(r,m,q) * Q(m,r,q) over m must collapse to 1
            poly: dict[int, int] = {}
            for m in range(r + 1):
                g = gaussian_binomial(r, m, q)
                for d, cf in enumerate(her.hermite_Q(m, r, q)):
                    poly[d] = poly.get(d, 0) + g * cf
            cases += 1
            want = {0: 1}
            got = {d: c for d, c in poly.items() if c}
            if got != want:
                d = next(k for k in sorted(set(got) | set(want)) if got.get(k, 0) != want.get(k, 0))
                return CheckResult(
                    "q-partition", False, cases,
                    disagreement=(f"q={q},r={r}:v^{d}", str(want.get(d, 0)), str(got.get(d, 0))),
                )
    for q in (2, 3):
        for r in range(0, 5):
            for m in range(r + 1):
                orbit = her.hermite_orbit_sum(m, r, q, bound)
                al = orbit.alphabet
                qpoly = TruncatedSeries.powers(al, bound, (1,), her.hermite_Q(m, r, q))
                closed = qpoly * her.solomon_hey_factor(r, q, bound)
                cases += 1
                bad = _series_case("q-partition", cases, orbit, closed, f"orbit q={q},r={r},m={m}")
                if bad:
                    return bad
    return CheckResult("q-partition", True, cases, "partition of unity and orbit sums hold")


# -- 6: one-class ideal counts three ways ----------------------------------------


def check_lustig(qs=(2, 3), i_formulas=12, i_oracle=4) -> CheckResult:
    cases = 0
    for q in qs:
        coeffs = pr.lustig_coeffs(q, i_formulas)  # raises on internal disagreement
        cases += 1
        # an ideal of colength i contains m^i, so colengths <= top live mod m^(top+1)
        top = min(i_oracle, i_formulas)
        counted = orc.empirical_zeta(orc.local2d_module(q, top + 1, 1), top)
        for i in range(top + 1):
            cases += 1
            got = counted.coefficient((i,))
            if got != coeffs[i]:
                return CheckResult(
                    "lustig", False, cases,
                    disagreement=(f"q={q},colength={i}", str(coeffs[i]), str(got)),
                )
    return CheckResult("lustig", True, cases, "partition formula = product = ideal enumeration")


# -- 7: global ideal counts two ways ---------------------------------------------


def check_rossmann(n_max=64) -> CheckResult:
    table = pr.rossmann_coeffs(n_max)  # raises on disagreement
    return CheckResult("rossmann", True, len(table), f"shifted-factor = prime-local up to {n_max}")


# -- 8: three code paths for a valuation-ring slice -------------------------------


def check_dvr_consistency(qs=(2, 3), m_max=3, bound=6) -> CheckResult:
    cases = 0
    for q in qs:
        for m in range(0, m_max + 1):
            base = pr.SliceBase.dvr(q, m)
            sliver = pr.single_sliver(base, bound)
            prolif = pr.proliferation_sum(base, bound)
            lifted = pr.lifted_hey(SemisimpleData.from_specs([(q, m)]), None, bound)
            cases += 1
            bad = _series_case("dvr-consistency", cases, prolif, sliver, f"q={q},m={m},prolif-vs-sliver")
            if bad:
                return bad
            bad = _series_case("dvr-consistency", cases, lifted, sliver, f"q={q},m={m},lifted-vs-sliver")
            if bad:
                return bad
    return CheckResult("dvr-consistency", True, cases, "sliver = layered product = class-sequence sum")


# -- 9: split-slice sum against the one-class product ------------------------------


def check_voll(qs=(2, 3), m_max=3, bound=5) -> CheckResult:
    cases = 0
    for q in qs:
        for m in range(0, m_max + 1):
            data = SemisimpleData.from_specs([(q, m)])
            summed = pr.proliferation_sum(pr.SliceBase.semisimple(data), bound)
            closed = hey_product(data, bound)
            cases += 1
            bad = _series_case("voll", cases, summed, closed, f"q={q},m={m}")
            if bad:
                return bad
    return CheckResult("voll", True, cases, "semisimple class-sequence sum = closed product")


# -- 10: per-chain fiber values against enumeration --------------------------------


def check_fiber(bound=3, c=None) -> CheckResult:
    c = c if c is not None else bound + 1
    model = orc.local2d_module(2, c, 1)
    base = pr.SliceBase.dvr(2, 1)
    parts = orc.fiber_partition(model, bound)
    cases = 0
    total_nodes = 0
    for chain, nodes in parts.items():
        got = orc.fiber_sum(model, nodes, bound)
        want = pr.fundamental_fiber_product(base, chain, bound)
        cases += 1
        total_nodes += len(nodes)
        bad = _series_case("fiber", cases, got, want, f"chain={chain.quotients}")
        if bad:
            return bad
    lattice = len(orc.submodule_bfs(model, bound))
    if total_nodes != lattice:
        return CheckResult(
            "fiber", False, cases,
            disagreement=("fiber partition size", str(lattice), str(total_nodes)),
        )
    return CheckResult("fiber", True, cases, f"all charts match; partition covers {lattice} submodules")


# -- 11: the power-series order over the basic two-class lattice ring ---------------


def check_skew_example(bound=3) -> CheckResult:
    order = her.HereditaryOrderSpec(2, 2)
    module = her.HereditaryModuleSpec((1, 2))
    through_lattice = pr.proliferation_sum(pr.SliceBase.hereditary(order, module), bound)
    through_split = pr.lifted_hey(SemisimpleData.from_specs([(2, 1), (2, 1)]), (1, 0), bound)
    c_pi = -(-(bound + 1) // 2)
    model = orc.skew_module(2, 2, c_pi, bound + 1)
    counted = orc.empirical_zeta(model, bound)
    bad = _series_case("skew-example", 1, counted, through_lattice, "oracle-vs-lattice-slice")
    if bad:
        return bad
    bad = _series_case("skew-example", 2, through_split, through_lattice, "split-slice-vs-lattice-slice")
    if bad:
        return bad
    return CheckResult("skew-example", True, 3, "enumeration = lattice-slice sum = twisted split product")


# -- 12: factored form of the class-sequence sum ------------------------------------


def check_brs_factored(bound=3) -> CheckResult:
    order = her.HereditaryOrderSpec(2, 2)
    module = her.HereditaryModuleSpec((1, 2))
    # raises unless prefactor * remainder is the plain class-sequence sum
    pr.brs_factored_prolif(pr.SliceBase.hereditary(order, module), bound)
    return CheckResult("brs-factored", True, 1, "prefactor * remainder = class-sequence sum")


# -- 13: integrality of everything any engine emits ----------------------------------


def check_integrality(bound=4) -> CheckResult:
    emitted: list[tuple[str, TruncatedSeries]] = []
    for q, m in ((2, 2), (3, 1), (4, 3)):
        data = SemisimpleData.from_specs([(q, m)])
        emitted.append((f"hey q={q} m={m}", hey_product(data, bound)))
    order = her.HereditaryOrderSpec(2, 2)
    module = her.HereditaryModuleSpec((1, 2))
    emitted.append(("hereditary joint", her.brz_two_variable(order, module, bound)))
    emitted.append(("hereditary total", her.total_zeta(order, module, bound)))
    emitted.append(("hereditary partial", her.partial_zeta(order, module, (1, 1), bound)))
    emitted.append(("prolif hereditary", pr.proliferation_sum(pr.SliceBase.hereditary(order, module), 3)))
    emitted.append(("prolif semisimple", pr.proliferation_sum(
        pr.SliceBase.semisimple(SemisimpleData.from_specs([(2, 1), (3, 2)])), 3)))
    emitted.append(("sliver dvr", pr.single_sliver(pr.SliceBase.dvr(2, 3), bound)))
    emitted.append(("lifted hey", pr.lifted_hey(SemisimpleData.from_specs([(2, 1), (2, 1)]), (1, 0), bound)))
    emitted.append(("zjv", pr.zjv_factor(2, 2, 1, bound)))
    tables = [(name, {series.alphabet.format_monomial(k): c for k, c in series.items()}) for name, series in emitted]
    tables += [
        ("lustig q=2", dict(enumerate(pr.lustig_coeffs(2, 8)))),
        ("rossmann", pr.rossmann_coeffs(32)),
        ("hom-slice", pr.hom_slice_dirichlet(2, 1, 2, 1, 32)),
    ]
    for cases, (name, table) in enumerate(tables, 1):
        bad = [(k, v) for k, v in table.items() if not isinstance(v, int) or v < 0]
        if bad:
            return CheckResult("integrality", False, cases, disagreement=(name, "integer >= 0", str(bad[0])))
    return CheckResult("integrality", True, len(tables), "all emitted coefficients are nonnegative integers")


# -- 14: Hall numbers against direct enumeration --------------------------------------


def check_hall(qs=(2, 3)) -> CheckResult:
    cases = 0
    for q in qs:
        model = orc.chain_module(q, 2, 2, exact=True)
        ambient = model.full()
        # partial zeta by iso class = Hall-number sum, per colength
        for c_type in ((2, 1), (2,), (1, 1), (1,)):
            colen = model.dim - sum(c_type)
            if colen < 0 or colen > 2:
                continue
            direct = 0
            for node in orc.submodule_bfs(model, colen):
                if node.colength == colen and orc.jordan_type(model, node.rep) == c_type:
                    direct += 1
            via_hall = 0
            for b_type in _partitions_of(colen):
                via_hall += orc.hall_number(model, ambient, b_type, c_type)
            cases += 1
            if direct != via_hall:
                return CheckResult(
                    "hall", False, cases,
                    disagreement=(f"q={q},C={c_type}", str(direct), str(via_hall)),
                )
        # chain property with two and three steps
        plans = [
            [((2, 1), (1,)), ((2,), (1,))],
            [((2, 1), (1,)), ((1, 1), (1,)), ((1,), (1,))],
        ]
        for plan in plans:
            product = 1
            amb_rep, ok = ambient, True
            for sub_t, quo_t in plan:
                f = orc.hall_number(model, amb_rep, quo_t, sub_t)
                product *= f
                if f == 0:
                    ok = False
                    break
                amb_rep = _witness(model, amb_rep, sub_t, quo_t)
            direct = orc.chain_type_count(model, ambient, plan)
            cases += 1
            if (product if ok else 0) != direct:
                return CheckResult(
                    "hall", False, cases,
                    disagreement=(f"q={q},plan={plan}", str(direct), str(product)),
                )
    return CheckResult("hall", True, cases, "iso-class sums and chain products match enumeration")


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

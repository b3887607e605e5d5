"""The one case loop of the verify suites, and the failure line of each
comparison shape: a series pinned at a monomial, a leg of a two-comparison
case, and a plain integer."""

import brzeta.checks as chk
import brzeta.hereditary as her
import brzeta.oracle as orc
import brzeta.prolif as pr
from brzeta.series import Alphabet, AlphabetEntry, TruncatedSeries

AL = Alphabet((AlphabetEntry("z", 2, 1),))


def z_series(*coeffs):
    return TruncatedSeries(AL, len(coeffs) - 1, {(d,): c for d, c in enumerate(coeffs) if c})


class TestCompare:
    def test_series_disagreement_names_its_first_monomial(self):
        cases = [
            [("a", z_series(1, 2), z_series(1, 2))],
            [("b", 3, 3), ("c", z_series(1, 2, 5), z_series(1, 2, 4))],
            [("d", 1, 2)],
        ]
        result = chk._compare("demo", "ok", cases)
        assert not result.passed and result.cases == 2
        assert result.disagreement == ("c:z^2", "4", "5")
        assert result.line() == "FAIL demo (2 cases) [at c:z^2: expected 4, got 5]"

    def test_plain_values_compare_whole(self):
        result = chk._compare("demo", "ok", [[("x", 7, 7)], [("y", 8, 9)]])
        assert (result.cases, result.disagreement) == (2, ("y", "9", "8"))

    def test_failure_never_resumes_the_cases(self):
        def cases():
            yield [("first", 1, 2)]
            raise AssertionError("resumed after a failure")

        result = chk._compare("demo", "ok", cases())
        assert (result.passed, result.cases) == (False, 1)

    def test_empty_cases_pass(self):
        def cases():
            yield []
            yield [("equal", z_series(1, 1), z_series(1, 1))]

        assert chk._compare("demo", "all agree", cases()).line() == "PASS demo (2 cases) — all agree"

    def test_zero_cases(self):
        assert chk._compare("demo", "nothing", iter(())).line() == "PASS demo (0 cases) — nothing"


class TestSuiteGrids:
    def test_a_suite_takes_at_most_its_size(self):
        """Each grid is fixed: a suite takes no parameter, or its size alone."""
        counts = {name: fn.__code__.co_argcount + fn.__code__.co_kwonlyargcount for name, fn in chk.ALL_CHECKS.items()}
        assert max(counts.values()) == 1
        assert chk.SIZED_SUITES == {name for name, count in counts.items() if count}
        assert chk.SIZED_SUITES == {"hey-oracle", "moebius", "lustig", "rossmann", "dvr-consistency", "voll", "fiber"}


class TestFailureLines:
    def test_series_suite_names_the_monomial(self, monkeypatch):
        real = chk.hey_product

        def with_extra_z2(data, bound):
            engine = real(data, bound)
            return engine + TruncatedSeries.monomial(engine.alphabet, bound, (2,))

        monkeypatch.setattr(chk, "hey_product", with_extra_z2)
        assert chk.check_hey_oracle().line() == "FAIL hey-oracle (1 cases) [at q=2,m=1:z^2: expected 2, got 1]"

    def test_second_comparison_of_a_case(self, monkeypatch):
        real = pr.lifted_hey

        def perturbed(data, sigma, bound):
            out = real(data, sigma, bound)
            return out + TruncatedSeries.monomial(out.alphabet, bound, (1,))

        monkeypatch.setattr(pr, "lifted_hey", perturbed)
        assert chk.check_dvr_consistency().line() == (
            "FAIL dvr-consistency (1 cases) [at q=2,m=0,lifted-vs-sliver:z: expected 0, got 1]"
        )

    def test_integer_suite(self, monkeypatch):
        real = orc.hall_number
        monkeypatch.setattr(orc, "hall_number", lambda *args: real(*args) + 1)
        assert chk.check_hall().line() == "FAIL hall (1 cases) [at q=2,C=(2, 1): expected 3, got 4]"

    def test_table_suite_names_its_first_bad_entry(self, monkeypatch):
        real = pr.rossmann_coeffs
        monkeypatch.setattr(pr, "rossmann_coeffs", lambda n: {**real(n), 5: -3})
        assert chk.check_integrality().line() == (
            "FAIL integrality (13 cases) [at rossmann: expected integer >= 0, got (5, -3)]"
        )

    def test_stable_leg_sees_a_term_past_the_degree_bound(self, monkeypatch):
        """F has no term above 2rn + r: a factor that gains one past that degree fails."""
        real = her.polynomial_factor

        def with_a_high_term(lattice, bound):
            f = real(lattice, bound)
            top = 2 * lattice.r * lattice.n + lattice.r
            if bound <= top:
                return f
            return f + TruncatedSeries.monomial(f.alphabet, bound, (top + 1,) + (0,) * (2 * lattice.n - 1))

        monkeypatch.setattr(her, "polynomial_factor", with_a_high_term)
        result = chk.check_brs_polynomial()
        assert not result.passed
        assert (result.cases, result.disagreement) == (1, ("q=2,n=1,cols=(1,),stable:z^4", "0", "1"))


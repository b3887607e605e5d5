"""The closed engines count in integers: every coefficient they emit is a plain ``int``."""

import pytest

from brzeta import hereditary as her
from brzeta import prolif as pr
from brzeta.hey import SemisimpleData, hey_product, moebius_inverse_series

SPLIT = SemisimpleData.from_specs([(2, 2), (3, 1)])
PAIR = SemisimpleData.from_specs([(2, 1), (3, 1)])
LATTICE = pr.SliceBase.hereditary(her.HereditaryOrderSpec(2, 2), her.HereditaryModuleSpec((1, 2)))
TWISTED_LATTICE = pr.SliceBase.hereditary(
    her.HereditaryOrderSpec(3, 3), her.HereditaryModuleSpec((1, 2, 2)), sigma=(1, 2, 0)
)

ENGINES = {
    "hey_product": lambda: hey_product(SPLIT, 5),
    "moebius_inverse_series": lambda: moebius_inverse_series(SPLIT, 5),
    "brz_two_variable": lambda: her.brz_two_variable(
        her.HereditaryOrderSpec(3, 3), her.HereditaryModuleSpec((1, 2, 3)), 3
    ),
    "brs_F": lambda: her.brs_F(her.HereditaryOrderSpec(2, 3), her.HereditaryModuleSpec((1, 1, 3)), 12),
    "prolif-split": lambda: pr.proliferation_sum(pr.SliceBase.semisimple(PAIR, sigma=(1, 0)), 4),
    "prolif-lattice": lambda: pr.proliferation_sum(LATTICE, 4),
    "prolif-twisted-lattice": lambda: pr.proliferation_sum(TWISTED_LATTICE, 3),
    "prolif-dvr": lambda: pr.proliferation_sum(pr.SliceBase.dvr(3, 2), 4),
    "single_sliver": lambda: pr.single_sliver(pr.SliceBase.dvr(2, 3), 5),
    "lifted_hey-twisted": lambda: pr.lifted_hey(SemisimpleData.from_specs([(2, 1), (3, 2)]), (1, 0), 4),
    "zjv_factor": lambda: pr.zjv_factor(2, 3, 2, 8),
    "brs_factored_prolif": lambda: pr.brs_factored_prolif(LATTICE, 3),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_emits_only_ints(engine):
    out = ENGINES[engine]()
    for series in out if isinstance(out, tuple) else (out,):
        assert not series.is_zero()
        bad = {k: c for k, c in series.coeffs.items() if type(c) is not int}
        assert bad == {}


def test_change_of_variable_scalars_are_ints():
    seq = ((1, 1, 1), (0, 2, 1), (3, 0, 0))
    for j in range(4):
        for scalar, _ in pr.change_of_variable(TWISTED_LATTICE, seq, j).values():
            assert type(scalar) is int

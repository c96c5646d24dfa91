import pytest

from gqtvc.formulas import (COMPLETE_S_CASES, FormulaError, FormulaId,
                            expected_count, graph_type_for, verify_formula)
from gqtvc.geometry import PartialLinearSpace

from conftest import geometry


def test_expected_count_order5_values():
    assert expected_count(FormulaId("type0"), 5, 4, True) == 4  # C(4,3)
    assert expected_count(FormulaId("type0"), 5, 4, False) == 0
    assert expected_count(FormulaId("type2a"), 3, 9, False) == 10
    assert expected_count(FormulaId("type2a"), 3, 9, True) == 0
    assert expected_count(FormulaId("type3a"), 2, 4, True) == 0  # 4 C(2,3)
    assert expected_count(FormulaId("type3a"), 3, 9, True) == 9
    assert expected_count(FormulaId("type3a"), 3, 9, False) == 0  # 10 C(2,3)
    assert expected_count(FormulaId("type3a"), 4, 6, False) == 7  # 7 C(3,3)


def test_discarded_types_are_zero():
    for name in ("type1a", "type1b", "type2b", "type2c", "type3b"):
        for adjacent in (True, False):
            assert expected_count(FormulaId(name), 3, 9, adjacent) == 0


def test_complete_s_values():
    fid = FormulaId("completeS", (1, 1), True, 3)
    assert expected_count(fid, 3, 9, False) == 240  # mu (s^2-1) C(s, 2)
    fid = FormulaId("completeS", ("T-2", "T-2"), None, 3)
    assert expected_count(fid, 3, 9, True) == 0  # C(2, 3)
    assert expected_count(fid, 3, 9, False) == 0
    fid = FormulaId("completeS", ("T-2", 0), None, 3)
    assert expected_count(fid, 3, 9, True) == 9  # s^2 C(s, 3)


def test_formula_id_validation():
    with pytest.raises(FormulaError):
        FormulaId("nonsense")
    with pytest.raises(FormulaError):
        FormulaId("type0", size=3)
    with pytest.raises(FormulaError):
        FormulaId("completeS", (2, 2), None, 3)
    with pytest.raises(FormulaError):
        FormulaId("completeS", (1, 1), None, 3)  # missing z flag
    with pytest.raises(FormulaError):
        FormulaId("completeS", (1, 0), True, 3)  # stray z flag
    with pytest.raises(FormulaError):
        FormulaId("completeS", ("T-2", 0), None, 1)  # size too small


def test_complete_s_requires_square_order():
    fid = FormulaId("completeS", (0, 0), None, 3)
    with pytest.raises(FormulaError):
        expected_count(fid, 2, 2, True)
    with pytest.raises(FormulaError):
        verify_formula(geometry("w2"), fid)


def test_graph_type_for_structures():
    ty = graph_type_for(FormulaId("type3a"), True)
    assert ty.order == 5 and ty.pair_adjacent is True
    ty = graph_type_for(FormulaId("completeS", (1, 1), False, 3), False)
    # x and y attach to different clique members
    assert ty.rows[0] == 1 << 2
    assert ty.rows[1] == 1 << 3
    ty = graph_type_for(FormulaId("completeS", ("T-2", 0), None, 4), True)
    assert ty.rows[0].bit_count() == 4 and ty.rows[1] == 0


def test_verify_formula_rejects_bad_geometry():
    bad = PartialLinearSpace.make(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(FormulaError):
        verify_formula(bad, FormulaId("type0"))


@pytest.mark.parametrize("name", ["type0", "type2a", "type3a", "type2b"])
def test_verify_order5_on_w2(name):
    rep = verify_formula(geometry("w2"), FormulaId(name))
    assert rep.ok and rep.pairs_checked == 15 * 14


@pytest.mark.parametrize("case,z", [
    (("T-2", "T-2"), None), (("T-2", 1), None), (("T-2", 0), None),
    ((1, 1), True), ((1, 1), False), ((1, 0), None), ((0, 0), None),
])
def test_verify_complete_s_on_q5_2(case, z):
    fid = FormulaId("completeS", case, z, 3)
    rep = verify_formula(geometry("q5_2"), fid)
    assert rep.ok, rep.mismatches[:3]


def test_expected_count_rejects_an_order_below_one():
    with pytest.raises(FormulaError, match="orders must be at least 1"):
        expected_count(FormulaId("type0"), 0, 4, True)

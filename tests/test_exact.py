import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from fareyslopes.cfrac import ConvergentTable, EventuallyPeriodic
from fareyslopes.division import DivisionInterval, beads, division_points, ses_check
from fareyslopes.exact import INFINITY, ZERO, ReducedFraction as F
from fareyslopes.farey import CuttingSequence, FareyDiagram, FareyTree, FareyTriangle, RollerCoaster, TreeNode
from fareyslopes.invariants import CThetaReport, LowerBoundOnly, Stabilized
from fareyslopes.lattice import ThetaLatticeElement
from fareyslopes.render import RenderSpec
from fareyslopes.sheaves import (
    ChainArrow, DimPair, EndoBoundReport, HomReport, KClassReport, KClassRow, LimitObjectDescriptor, SheafClass,
    StableClass, WitnessChain,
)


def test_normalisation():
    assert F(2, 4) == F(1, 2)
    assert F(-2, 4) == F(-1, 2)
    assert F(2, -4) == F(-1, 2)
    assert F(-2, -4) == F(1, 2)
    assert F(0, 5) == ZERO
    assert F(0, -5) == ZERO


def test_infinity_is_a_single_point():
    assert F(1, 0) == F(7, 0) == F(-3, 0) == INFINITY == F.infinity()
    assert repr(F.infinity()) == "ReducedFraction(1, 0)" and str(F.infinity()) == "1/0"
    assert INFINITY.is_infinite
    assert not F(5, 1).is_infinite
    with pytest.raises(ValueError):
        F(0, 0)


def test_order():
    assert F(1, 2) < F(2, 3) < F(1, 1) < F(3, 2)
    assert F(-1, 2) < ZERO
    assert F(10**50, 3) < INFINITY
    assert F(-(10**50), 3) < INFINITY
    # total_ordering fills the rest in
    assert F(1, 2) <= F(1, 2) <= F(2, 3)
    assert INFINITY > F(99, 1)


def test_from_string():
    assert F.from_string("3/2") == F(3, 2)
    assert F.from_string("-3/2") == F(-3, 2)
    assert F.from_string("7") == F(7, 1)
    assert F.from_string("1/0") == INFINITY
    assert F.from_string(" 10 / 4 ") == F(5, 2)
    for bad in ("", "a/b", "1/2/3", "1.5"):
        with pytest.raises(ValueError):
            F.from_string(bad)
    # round trip through str
    for fr in (F(3, 2), F(-5, 7), INFINITY, ZERO):
        assert F.from_string(str(fr)) == fr


def test_float_and_fraction_views():
    assert float(F(3, 2)) == 1.5
    assert float(INFINITY) == math.inf
    assert F(3, 2).as_fraction().numerator == 3
    with pytest.raises(ValueError):
        INFINITY.as_fraction()


def test_mediant_and_det():
    a, b = F(1, 2), F(2, 3)
    assert a.mediant(b) == F(3, 5)
    assert a.det(b) == 1 * 3 - 2 * 2 == -1
    assert a.is_farey_neighbor(b)
    assert not F(1, 3).is_farey_neighbor(F(2, 3))
    # infinity is a neighbor of every integer
    assert INFINITY.is_farey_neighbor(F(7, 1))
    assert F(0, 1).mediant(INFINITY) == F(1, 1)


def test_mediant_sits_between():
    rng = random.Random(1)
    for _ in range(300):
        p1, q1 = rng.randint(-20, 20), rng.randint(1, 20)
        p2, q2 = rng.randint(-20, 20), rng.randint(1, 20)
        a, b = F(p1, q1), F(p2, q2)
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        m = F(p1 + p2, q1 + q2)  # mediant of the raw vectors
        assert lo <= m <= hi


def test_order_matches_float_order():
    rng = random.Random(2)
    for _ in range(500):
        a = F(rng.randint(-99, 99), rng.randint(1, 99))
        b = F(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a < b) == (float(a) < float(b)) or float(a) == float(b)
        if a != b:
            assert (a < b) == (a.as_fraction() < b.as_fraction())


# -- the value types on exact.Value ---------------------------------------------

golden = EventuallyPeriodic((1,), (1,))
_TRIANGLE = FareyTriangle(vertices=(F(1, 0), F(1, 1), F(2, 1)))
_LEAF = TreeNode(fraction=F(5, 3), side="l")
_STABLE = StableClass(degree=5, rank=3)
_PLUS = LimitObjectDescriptor(theta=golden, side="plus")
_ROW = KClassRow(index=0, coefficient=1, summand=(2, 1), partial=(3, 2), target=(3, 2), ok=True)
_ARROW = ChainArrow(source=_STABLE, target=StableClass(2, 1), kind="surjection", complement=(StableClass(3, 2), 1))

_G = "EventuallyPeriodic([1], [1])"
_TRIANGLE_REPR = "FareyTriangle(vertices=(ReducedFraction(1, 1), ReducedFraction(2, 1), ReducedFraction(1, 0)))"
_LEAF_REPR = "TreeNode(fraction=ReducedFraction(5, 3), side='l', children=())"
_ROW_REPR = "KClassRow(index=0, coefficient=1, summand=(2, 1), partial=(3, 2), target=(3, 2), ok=True)"
_POINTS = division_points(golden, F(2, 1), 2)
_SES_REPR = (
    "SESReport(sub=BeadObject(interval=(ThetaLatticeElement(0, 0), ThetaLatticeElement(-3, 5)), "
    "labels=(ReducedFraction(5, 3),), summands=SheafClass(summands=((StableClass(degree=5, rank=3), 0, 1),)), "
    "rank_theta=ThetaLatticeElement(-3, 5)), whole=BeadObject(interval=(ThetaLatticeElement(0, 0), "
    "ThetaLatticeElement(-1, 2)), labels=(ReducedFraction(2, 1),), summands=SheafClass(summands=("
    "(StableClass(degree=2, rank=1), 0, 1),)), rank_theta=ThetaLatticeElement(-1, 2)), quotient=BeadObject("
    "interval=(ThetaLatticeElement(-3, 5), ThetaLatticeElement(-1, 2)), labels=(ReducedFraction(3, 2),), "
    "summands=SheafClass(summands=((StableClass(degree=3, rank=2), 1, 1),)), rank_theta=ThetaLatticeElement(2, -3)), "
    "class_additive=True, rank_additive=True, phase_sub_ok=True, phase_quot_ok=True)"
)
_ARROW_REPR = (
    "ChainArrow(source=StableClass(degree=5, rank=3), target=StableClass(degree=2, rank=1), kind='surjection', "
    "complement=(StableClass(degree=3, rank=2), 1))"
)

# one value of each type, and its repr from when the type was a dataclass
_VALUES = {
    "ReducedFraction": (F(p=8, q=5), "ReducedFraction(8, 5)"),
    "ConvergentTable": (
        ConvergentTable(theta=golden, rows=[(-1, F(1, 0), None)]),
        f"ConvergentTable(theta={_G}, rows=[(-1, ReducedFraction(1, 0), None)])",
    ),
    "ThetaLatticeElement": (ThetaLatticeElement(m=2, n=-3, theta=golden), "ThetaLatticeElement(2, -3)"),
    "FareyTriangle": (_TRIANGLE, _TRIANGLE_REPR),
    "FareyDiagram": (
        FareyDiagram(theta=golden, far=F(1, 0), triangles=[(_TRIANGLE, "Start")], left_labels=[(1, F(2, 1))],
                     right_labels=[]),
        f"FareyDiagram(theta={_G}, far=ReducedFraction(1, 0), triangles=[({_TRIANGLE_REPR}, 'Start')], "
        "left_labels=[(1, ReducedFraction(2, 1))], right_labels=[])",
    ),
    "CuttingSequence": (
        CuttingSequence(theta=golden, runs=(("L", 1),)), f"CuttingSequence(theta={_G}, runs=(('L', 1),))"
    ),
    "TreeNode": (_LEAF, _LEAF_REPR),
    "FareyTree": (
        FareyTree(theta=golden, root=TreeNode(F(2, 1), None, (_LEAF,)), depth=1),
        f"FareyTree(theta={_G}, root=TreeNode(fraction=ReducedFraction(2, 1), side=None, children=({_LEAF_REPR},)), "
        "depth=1)",
    ),
    "RollerCoaster": (
        RollerCoaster(theta=golden, depth=1, vertices=[F(1, 0)], family_index={F(1, 0): (-1, 0)}, triangles=[],
                      labels={}, classes={}),
        f"RollerCoaster(theta={_G}, depth=1, vertices=[ReducedFraction(1, 0)], "
        "family_index={ReducedFraction(1, 0): (-1, 0)}, triangles=[], labels={}, classes={})",
    ),
    "DimPair": (DimPair(dim=3, ht=1), "DimPair(dim=3, ht=1)"),
    "StableClass": (_STABLE, "StableClass(degree=5, rank=3)"),
    "SheafClass": (
        SheafClass(summands=((_STABLE, 1, 2),)), "SheafClass(summands=((StableClass(degree=5, rank=3), 1, 2),))"
    ),
    "LimitObjectDescriptor": (_PLUS, f"LimitObjectDescriptor(theta={_G}, side='plus')"),
    "KClassRow": (_ROW, _ROW_REPR),
    "KClassReport": (
        KClassReport(theta=golden, depth=1, rows=(_ROW,)), f"KClassReport(theta={_G}, depth=1, rows=({_ROW_REPR},))"
    ),
    "EndoBoundReport": (
        EndoBoundReport(theta=golden, stabilized=True, c=1, chain=(1,), bound=1, bounded_by_two=True,
                        dim_candidates=(1, 2, 4)),
        f"EndoBoundReport(theta={_G}, stabilized=True, c=1, chain=(1,), bound=1, bounded_by_two=True, "
        "dim_candidates=(1, 2, 4))",
    ),
    "HomReport": (
        HomReport(source=_STABLE, target=_PLUS, verdict="Zero", ext1_zero=True),
        f"HomReport(source=StableClass(degree=5, rank=3), target=LimitObjectDescriptor(theta={_G}, side='plus'), "
        "verdict='Zero', clause=None, bound=None, hom=None, ext1=None, ext1_zero=True, kernel_factors=None, "
        "quotient=None, c_chain=None)",
    ),
    "ChainArrow": (_ARROW, _ARROW_REPR),
    "WitnessChain": (
        WitnessChain(theta=golden, theta_prime=golden, r=F(2, 1), level=1, nodes=(_STABLE,), arrows=(_ARROW,)),
        f"WitnessChain(theta={_G}, theta_prime={_G}, r=ReducedFraction(2, 1), level=1, "
        f"nodes=(StableClass(degree=5, rank=3),), arrows=({_ARROW_REPR},))",
    ),
    "DivisionInterval": (
        DivisionInterval(a=_POINTS[2], vertex=F(3, 2)),
        "DivisionInterval(a=ThetaLatticeElement(-3, 5), vertex=ReducedFraction(3, 2))",
    ),
    "BeadObject": (
        beads(golden, F(2, 1), _POINTS[1], _POINTS[4]),
        "BeadObject(interval=(ThetaLatticeElement(-8, 13), ThetaLatticeElement(-1, 2)), labels=(ReducedFraction(8, 5), "
        "ReducedFraction(3, 2)), summands=SheafClass(summands=((StableClass(degree=8, rank=5), 1, 1), "
        "(StableClass(degree=3, rank=2), 1, 1))), rank_theta=ThetaLatticeElement(7, -11))",
    ),
    "Stabilized": (Stabilized(c=1), "Stabilized(c=1)"),
    "LowerBoundOnly": (LowerBoundOnly(last=3), "LowerBoundOnly(last=3)"),
    "CThetaReport": (
        CThetaReport(theta=golden, c_values=[(0, 1)], status=Stabilized(1)),
        f"CThetaReport(theta={_G}, c_values=[(0, 1)], status=Stabilized(c=1))",
    ),
    "SESReport": (ses_check(golden, F(2, 1), _POINTS[0], _POINTS[2], _POINTS[4]), _SES_REPR),
    "RenderSpec": (
        RenderSpec(model="upper_half", depth=2, highlight=None, size_px=64, style={"stroke": "#000000"}),
        "RenderSpec(model='upper_half', depth=2, highlight=None, size_px=64, style={'stroke': '#000000', "
        "'stroke_width': 0.008, 'boundary': '#888888', 'highlight_fill': '#f2a65e', 'highlight_opacity': 0.55, "
        "'accent': '#b03a48', 'background': '#ffffff'})",
    ),
}
_MUTABLE = {"ConvergentTable", "CThetaReport", "FareyDiagram", "RollerCoaster", "RenderSpec"}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_type_contract(name):
    value, text = _VALUES[name]
    cls = type(value)
    assert cls.__name__ == name and not hasattr(value, "__dict__")
    assert repr(value) == text
    fields = tuple(getattr(value, field) for field in cls.__slots__)
    assert cls(**dict(zip(cls.__slots__, fields))) == value
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value
    assert value != fields
    field = cls.__slots__[0]
    if name in _MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        twin = copy.copy(value)
        setattr(twin, field, getattr(value, field))
        assert twin == value
        return
    # a lattice element's own hash leaves its slope out
    assert hash(value) == hash(fields[:2] if name == "ThetaLatticeElement" else fields)
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, getattr(value, field))
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)


def test_c_theta_report_starts_with_a_fresh_list():
    first, second = CThetaReport(golden), CThetaReport(golden)
    assert repr(first) == f"CThetaReport(theta={_G}, c_values=[], status=None)"
    first.c_values.append((0, 1))
    assert second.c_values == []

import hashlib
import json
import math
import random
import time

import pytest

from fareyslopes import sheaves
from fareyslopes.cfrac import EventuallyPeriodic, FinitePrefix, _slopes_equal, bottom, slope_lt
from fareyslopes.errors import PrecisionExhausted
from fareyslopes.exact import INFINITY, ReducedFraction as F
from fareyslopes.farey import farey_diagram
from fareyslopes.sheaves import (
    FINITE_DIVISION_ALGEBRA_BOUND,
    MINUS,
    PLUS,
    SES_WITH_C_QUOTIENT,
    UNKNOWN,
    DimPair,
    LimitObjectDescriptor,
    SheafClass,
    StableClass,
    chi_pair,
    endo_dim_bound,
    enumerate_minimal_triangles,
    farey_type_image,
    hom_classify,
    hom_ext_dims,
    is_minimal_triangle,
    kclass_colimit_check,
    quotient_multiplicity,
    witness_image_chain,
    _tail_bounded_by_two,
)

from _oracles import mediant_generated_triangles, random_theta, witness_by_two_ended_search

golden = EventuallyPeriodic((1,), (1,))
sqrt2 = EventuallyPeriodic((1,), (2,))
sqrt3 = EventuallyPeriodic((1,), (1, 2))

O = StableClass


def test_stable_class_validation():
    assert O(3, 2).slope() == F(3, 2)
    assert O(1, 0).is_torsion and O(1, 0).slope() == INFINITY
    with pytest.raises(ValueError):
        O(2, 4)  # not primitive
    with pytest.raises(ValueError):
        O(0, 0)
    with pytest.raises(ValueError):
        O(-1, 0)
    with pytest.raises(ValueError):
        O(1, -1)


# -- chi and hom/ext ----------------------------------------------------------


def test_chi_pair_values():
    assert chi_pair((0, 1), (3, 1)) == DimPair(3, 1)
    assert all(chi_pair((0, 1), (n, 1)) == DimPair(n, 1) for n in range(-5, 6))
    assert chi_pair((1, 2), (1, 2)) == DimPair(0, 4)
    assert chi_pair((1, 1), (0, 1)) == DimPair(-1, 1)
    assert chi_pair((0, 1), (1, 0)) == DimPair(1, 0)


def _random_stable(rng):
    if rng.random() < 0.1:
        return O(rng.randint(1, 6), 0)
    while True:
        d, r = rng.randint(-12, 12), rng.randint(1, 9)
        if math.gcd(abs(d), r) == 1:
            return O(d, r)


def test_hom_minus_ext_is_chi():
    rng = random.Random(21)
    for _ in range(500):
        a, b = _random_stable(rng), _random_stable(rng)
        if a.is_torsion and b.is_torsion:
            continue
        hom, ext = hom_ext_dims(a, b)
        chi = chi_pair(a.vector(), b.vector())
        assert hom - ext == chi
        assert hom.dim >= 0 and ext.dim >= 0
        # vanishing rules: hom = 0 iff source slope above target
        if a.slope() > b.slope():
            assert hom.is_zero() and ext == -chi
        else:
            assert ext.is_zero() and hom == chi


def test_hom_ext_spot_values():
    h, e = hom_ext_dims(O(0, 1), O(1, 1))
    assert h == DimPair(1, 1) and e == DimPair(0, 0)
    h, e = hom_ext_dims(O(1, 1), O(0, 1))
    assert h == DimPair(0, 0) and e == DimPair(1, -1)
    h, e = hom_ext_dims(O(1, 2), O(1, 2))
    assert h == DimPair(0, 4) and e == DimPair(0, 0)
    # global sections of a torsion sheaf of degree m
    for m in range(1, 5):
        h, e = hom_ext_dims(O(0, 1), O(m, 0))
        assert h == DimPair(m, 0) and e == DimPair(0, 0)
    h, e = hom_ext_dims(O(2, 3), O(1, 0))
    assert h == DimPair(3, 0) and e == DimPair(0, 0)
    h, e = hom_ext_dims(O(1, 0), O(2, 3))
    assert h == DimPair(0, 0) and e == DimPair(3, 0)
    with pytest.raises(ValueError):
        hom_ext_dims(O(1, 0), O(2, 0))


def test_dim_pair_arithmetic():
    assert DimPair(1, 2) + DimPair(3, -1) == DimPair(4, 1)
    assert DimPair(3, 1) - DimPair(1, 1) == DimPair(2, 0)
    assert DimPair(0, 0).is_zero()
    assert not DimPair(0, 1).is_zero()
    assert DimPair(3, 1).to_dict() == {"dim": 3, "ht": 1}


# -- minimal triangles ---------------------------------------------------------


def test_minimal_triangle_goldens():
    assert is_minimal_triangle(O(0, 1), O(1, 2), O(1, 1))
    assert is_minimal_triangle(O(0, 1), O(1, 1), O(1, 0))
    assert not is_minimal_triangle(O(0, 1), O(2, 3), O(1, 1))   # det 2 on a side
    assert not is_minimal_triangle(O(0, 1), O(1, 2), O(1, 3))   # slopes unordered
    assert not is_minimal_triangle(O(1, 2), O(0, 1), O(1, 1))   # middle not the sum


def test_rank_one_enumeration():
    assert enumerate_minimal_triangles(1) == [
        (O(-1, 1), O(0, 1), O(1, 0)),
        (O(0, 1), O(1, 1), O(1, 0)),
    ]


def test_enumeration_matches_mediant_tree():
    for max_rank in (2, 5, 8):
        got = {
            (e.slope(), f.slope(), g.slope())
            for e, f, g in enumerate_minimal_triangles(max_rank)
        }
        want = mediant_generated_triangles(max_rank, max_rank)
        assert got == want


def test_is_minimal_triangle_agrees_with_membership():
    member = sorted(mediant_generated_triangles(6, 6))
    rng = random.Random(22)
    true_seen = false_seen = 0
    for _ in range(800):
        se, sf, sg = rng.choice(member)
        e, f, g = (O.from_fraction(s) for s in (se, sf, sg))
        if rng.random() < 0.5:
            # tamper with one vertex
            which = rng.randrange(3)
            bump = rng.choice([-1, 1])
            t = [e, f, g]
            v = t[which]
            if v.is_torsion:
                continue
            if math.gcd(abs(v.degree + bump), v.rank) != 1:
                continue
            t[which] = O(v.degree + bump, v.rank)
            e, f, g = t
        claim = is_minimal_triangle(e, f, g)
        fact = (e.slope(), f.slope(), g.slope()) in member
        assert claim == fact
        true_seen += fact
        false_seen += not fact
    assert true_seen > 100 and false_seen > 100


# -- K-class telescoping --------------------------------------------------------


def test_kclass_golden_and_sqrt2():
    rep = kclass_colimit_check(golden, 3)
    assert rep.all_ok
    r0 = rep.rows[0]
    assert (r0.coefficient, r0.summand, r0.partial, r0.target) == (1, (2, 1), (3, 2), (3, 2))
    rep = kclass_colimit_check(sqrt2, 4)
    assert rep.all_ok
    assert rep.rows[0].coefficient == 2
    assert rep.rows[0].summand == (3, 2)
    assert rep.rows[0].partial == (7, 5)


def test_kclass_random_sweep():
    rng = random.Random(23)
    for _ in range(25):
        theta = random_theta(rng)
        assert kclass_colimit_check(theta, 10).all_ok


# -- endomorphism bound -----------------------------------------------------------


def test_endo_bound_golden():
    b = endo_dim_bound(LimitObjectDescriptor(golden, MINUS))
    assert b.stabilized and b.c == 1 and b.bound == 1
    assert b.bounded_by_two is True
    assert b.dim_candidates == (1, 2, 4)


def test_endo_bound_special():
    b = endo_dim_bound(LimitObjectDescriptor(EventuallyPeriodic((0, 1, 2), (1, 3)), MINUS))
    assert b.stabilized and b.c == 3 and b.bound == 9
    assert b.bounded_by_two is False and b.dim_candidates is None


def test_endo_bound_is_square_of_c():
    rng = random.Random(24)
    for _ in range(40):
        theta = random_theta(rng)
        b = endo_dim_bound(LimitObjectDescriptor(theta, MINUS))
        assert b.stabilized
        assert b.bound == b.c * b.c


def test_tail_bound_of_finite_prefixes():
    # a prefix can refute a_i <= 2 for i >= 1 but never certify it
    assert _tail_bounded_by_two(FinitePrefix((5,))) is None  # a bare a0
    assert _tail_bounded_by_two(FinitePrefix((5, 1, 2, 1))) is None
    assert _tail_bounded_by_two(FinitePrefix((1, 1, 3, 1))) is False
    assert _tail_bounded_by_two(EventuallyPeriodic((5,), (1, 2))) is True
    assert _tail_bounded_by_two(EventuallyPeriodic((1,), (2, 3))) is False


def test_endo_bound_rejects_plus_side():
    with pytest.raises(ValueError):
        endo_dim_bound(LimitObjectDescriptor(golden, PLUS))


# -- the classification table ------------------------------------------------------


def test_hom_classify_stable_pairs():
    r = hom_classify(O(0, 1), O(1, 1))
    assert r.verdict == UNKNOWN and r.hom == DimPair(1, 1) and r.ext1_zero
    r = hom_classify(O(1, 1), O(0, 1))
    assert r.verdict == "Zero" and r.ext1 == DimPair(1, -1) and r.ext1_zero is False
    r = hom_classify(O(1, 2), O(1, 2))
    assert r.verdict == FINITE_DIVISION_ALGEBRA_BOUND and r.bound == 4


def test_hom_classify_limit_objects():
    mg, pg = LimitObjectDescriptor(golden, MINUS), LimitObjectDescriptor(golden, PLUS)
    m2, p2 = LimitObjectDescriptor(sqrt2, MINUS), LimitObjectDescriptor(sqrt2, PLUS)

    r = hom_classify(m2, m2)
    assert r.verdict == FINITE_DIVISION_ALGEBRA_BOUND and r.bound == 1
    r = hom_classify(mg, pg, depth=4)
    assert r.verdict == SES_WITH_C_QUOTIENT
    assert r.kernel_factors == ((1, 1), (1, 1), (4, 1), (9, 1))
    assert r.quotient == DimPair(1, 0)
    assert hom_classify(mg, p2).verdict == "Zero"
    r = hom_classify(m2, pg)
    assert r.verdict == UNKNOWN and r.ext1_zero
    # stable against the limit slope: the side of theta decides
    assert hom_classify(O(2, 1), m2).verdict == "Zero"
    r = hom_classify(O(1, 1), m2)
    assert r.verdict == UNKNOWN and r.ext1_zero
    assert hom_classify(m2, O(1, 1)).verdict == "Zero"
    r = hom_classify(m2, O(2, 1))
    assert r.verdict == UNKNOWN and r.ext1_zero
    assert hom_classify(O(1, 0), m2).verdict == "Zero"
    assert hom_classify(p2, O(1, 1)).verdict == UNKNOWN
    r = hom_classify(O(1, 0), O(2, 0))
    assert r.verdict == UNKNOWN and r.hom is None


def test_hom_classify_rejects_a_negative_depth():
    mg, pg = LimitObjectDescriptor(golden, MINUS), LimitObjectDescriptor(golden, PLUS)
    assert hom_classify(mg, pg, depth=0).kernel_factors == ()
    for x, y in ((mg, pg), (O(0, 1), O(1, 1))):
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            hom_classify(x, y, depth=-3)


_L = LimitObjectDescriptor

# one call per case of the table: case -> (x, y, depth, budget, sha256 of the report's JSON)
_HOM_BYTES = {
    "torsion pair": (O(1, 0), O(2, 0), 8, 64, "efccebf341557dfc58eabd9fda53c758b6fd7b9ff1b337de141eb5ba5cec467c"),
    "stable endo": (O(1, 2), O(1, 2), 8, 64, "740f5f715c21c7636db6ee51809a09e96939af59b68361150897e204d75eb54e"),
    "stable down": (O(1, 1), O(-1, 3), 8, 64, "8151666bd216c6771cbd32b75b21f8d0fabf94c30a43815dc50ff300e8f00869"),
    "stable up": (O(-1, 2), O(3, 2), 0, 16, "f6c828e9b70d8b95d06eb9264c87dcc1f0322bede8a94634735857d360fe08e9"),
    "stable above theta": (
        O(3, 2), _L(sqrt2, PLUS), 8, 64, "fa28de2564d1946898598add9ff8f670f1fefea1c12493ff6f8bc106884cc558"
    ),
    "stable below theta": (
        O(4, 3), _L(FinitePrefix((1, 2, 2)), MINUS), 8, 64,
        "6e5d72f6deb5fe9c3bf6634f3f6212deb26ebaca92edb8fa4a1b092ff65241ed",
    ),
    "out of plus": (
        _L(sqrt2, PLUS), O(1, 1), 8, 64, "951c0a11943e6a719a58a7e26f0f1e3ced1194dd1198984cda158d9202c52d86"
    ),
    "minus to lower stable": (
        _L(golden, MINUS), O(3, 2), 8, 64, "c8b413a371df438acd824bad1aa52ceedec3ef15ed57ef05a82b8d7b2d0b28bc"
    ),
    "minus to higher stable": (
        _L(sqrt2, MINUS), O(1, 0), 8, 64, "e79f360c68f2018cb230ba983867e2b7a4c49d9f983eb6b1328b8369fc9aac9e"
    ),
    "minus endo": (
        _L(sqrt2, MINUS), _L(sqrt2, MINUS), 3, 16, "9b848bf093b2ee05537d2b6d68758ed34d1f4c8a88080287ad1937c47ef3d491"
    ),
    "minus to plus": (
        _L(golden, MINUS), _L(golden, PLUS), 4, 64, "b337a9af1b1df54cd934ebe1073bd6399637b031127f7d6a8c077963e828490b"
    ),
    "limit down": (
        _L(golden, MINUS), _L(sqrt2, PLUS), 8, 64, "6ec4da08e5de3590caae192453201d29970454db071a868fdb79aee41a815924"
    ),
    "limit up": (
        _L(FinitePrefix((1, 2, 2, 2)), MINUS), _L(golden, MINUS), 8, 64,
        "3002db730859b3242cce800373f75aa1ef2103af978a70b45a984ed4b72119f2",
    ),
}


@pytest.mark.parametrize("case", list(_HOM_BYTES))
def test_hom_classify_keeps_its_bytes(case):  # guard
    x, y, depth, budget, want = _HOM_BYTES[case]
    text = json.dumps(hom_classify(x, y, depth, budget).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_every_rule_has_a_pinned_call():  # guard
    reached = {case: sheaves._case(x, y) for case, (x, y, *_) in _HOM_BYTES.items()}
    assert reached == {case: case for case in sheaves._RULES}


def test_hom_classify_rejects_a_budget_below_two():
    for x, y, depth, _, _ in _HOM_BYTES.values():
        with pytest.raises(ValueError, match="^budget must be >= 2$"):
            hom_classify(x, y, depth, budget=1)


def test_hom_classify_errors_keep_their_text():  # guard
    prefix = _L(FinitePrefix((1, 1, 1)), MINUS)
    with pytest.raises(PrecisionExhausted, match=r"^prefix of 3 quotients cannot answer depth 3$") as exhausted:
        hom_classify(prefix, prefix)
    assert exhausted.value.needed_depth == 4
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        hom_classify(O(0, 1), O(1, 1), depth=-1)
    with pytest.raises(ValueError, match="^budget must be >= 2$"):
        hom_classify(_L(sqrt2, MINUS), _L(sqrt2, MINUS), budget=1)


# -- images -------------------------------------------------------------------------


def test_farey_type_image():
    assert farey_type_image(sqrt2, sqrt3) == O(3, 2)
    with pytest.raises(ValueError, match="^slopes along the chain must strictly increase$"):
        farey_type_image(sqrt3, sqrt2)


def test_witness_image_chain():
    chain = witness_image_chain(sqrt2, golden, F(3, 2))
    assert chain.level == 1
    assert chain.nodes[1] == O(10, 7)
    assert chain.nodes[2] == O(3, 2)
    assert chain.nodes[3] == O(8, 5)
    assert [a.kind for a in chain.arrows] == [
        "surjection", "surjection", "injection", "injection"]
    assert chain.arrows[1].complement == (O(7, 5), 1)
    assert chain.arrows[1].complement_role == "kernel"
    assert chain.arrows[2].complement == (O(5, 3), 1)
    assert chain.arrows[2].complement_role == "cokernel"

    deep = witness_image_chain(sqrt2, golden, F(10, 7))
    assert deep.nodes[1].slope() < F(10, 7) < deep.nodes[3].slope()
    assert deep.nodes[1].rank > 7 and deep.nodes[3].rank > 7
    with pytest.raises(ValueError):
        witness_image_chain(sqrt2, golden, F(7, 5))  # not between the slopes


def test_witness_chain_to_dict():
    arrows = [
        {"from": "O([1;(2)]+)", "to": "O(10/7)", "kind": "surjection"},
        {"from": "O(10/7)", "to": "O(3/2)", "kind": "surjection",
         "complement": {"degree": 7, "rank": 5, "multiplicity": 1, "role": "kernel"}},
        {"from": "O(3/2)", "to": "O(8/5)", "kind": "injection",
         "complement": {"degree": 5, "rank": 3, "multiplicity": 1, "role": "cokernel"}},
        {"from": "O(8/5)", "to": "O([1;(1)]-)", "kind": "injection"},
    ]
    chain = witness_image_chain(sqrt2, golden, F(3, 2))
    assert [arrow.to_dict() for arrow in chain.arrows] == arrows
    assert chain.to_dict() == {
        "theta": "[1;(2)]", "theta_prime": "[1;(1)]", "r": "3/2", "level": 1,
        "nodes": ["O([1;(2)]+)", "O(10/7)", "O(3/2)", "O(8/5)", "O([1;(1)]-)"], "arrows": arrows,
    }


def test_limit_descriptor_to_dict_and_scaled_dims():
    assert LimitObjectDescriptor(golden, PLUS).to_dict() == {"theta": "[1;(1)]", "side": "plus"}
    assert LimitObjectDescriptor(sqrt2, MINUS).to_dict() == {"theta": "[1;(2)]", "side": "minus"}
    assert repr(DimPair(3, 1).scaled(-2)) == "DimPair(dim=-6, ht=-2)"
    assert DimPair(3, 1).scaled(0) == DimPair(0, 0)


@pytest.mark.parametrize("a", [4095, 4096, 4097, 10**4, 10**5])
def test_witness_past_long_quotient_runs(a):
    # [0;(a)] < 1/a < [0;a-1,(1)]: the level-1 ends lie past runs of a labels
    theta, theta_prime = EventuallyPeriodic((0,), (a,)), EventuallyPeriodic((0, a - 1), (1,))
    start = time.perf_counter()
    chain = witness_image_chain(theta, theta_prime, F(1, a))
    assert time.perf_counter() - start < 0.1
    lo, hi = chain.nodes[1], chain.nodes[3]
    assert chain.level == 1
    assert lo.degree * a < lo.rank and hi.degree * a > hi.rank
    assert lo.rank > a and hi.rank > a


def test_witness_level_of_a_deep_convergent():
    # 3363/2378 is a convergent of sqrt 2: its ends lie nine labels out
    assert witness_image_chain(sqrt2, golden, F(3363, 2378)).level == 9


def test_witness_matches_the_two_ended_search():
    rng = random.Random(32)
    for _ in range(300):
        x, y = random_theta(rng, 0, 2), random_theta(rng, 0, 2)  # quotients up to 4
        if _slopes_equal(x, y):
            continue
        lo, hi = (x, y) if slope_lt(x, y) else (y, x)
        base = bottom(lo, hi)
        depth = rng.randint(1, 12)
        line = [base] + [f for _, f in farey_diagram(lo, base, depth).left_labels]
        line += [f for _, f in farey_diagram(hi, base, depth).right_labels]
        r = rng.choice(line)
        want = witness_by_two_ended_search(lo, hi, r).to_dict()
        assert json.dumps(witness_image_chain(lo, hi, r).to_dict()) == json.dumps(want)


# -- multiplicities -------------------------------------------------------------------


def test_quotient_multiplicity_values():
    assert quotient_multiplicity((3, 2), F(1, 1)) == 1
    assert quotient_multiplicity((3, 2), INFINITY) == 2
    assert quotient_multiplicity(O(3, 2), F(1, 1)) == 1


def test_quotient_multiplicity_invariance_and_subadditivity():
    rng = random.Random(26)
    for _ in range(300):
        lam = F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() > 0.1 else INFINITY
        v1 = (rng.randint(-20, 20), rng.randint(-20, 20))
        v2 = (rng.randint(-20, 20), rng.randint(-20, 20))
        b1, b2 = quotient_multiplicity(v1, lam), quotient_multiplicity(v2, lam)
        s = (v1[0] + v2[0], v1[1] + v2[1])
        assert quotient_multiplicity(s, lam) <= b1 + b2
        # invariance under adding the lam-class itself
        for k in range(-3, 4):
            shifted = (v1[0] + k * lam.p, v1[1] + k * lam.q)
            assert quotient_multiplicity(shifted, lam) == b1
        # equal lambda-component signs give equality
        c1 = lam.q * v1[0] - lam.p * v1[1]
        c2 = lam.q * v2[0] - lam.p * v2[1]
        if c1 * c2 >= 0:
            assert quotient_multiplicity(s, lam) == b1 + b2


# -- sheaf classes ----------------------------------------------------------------------


def test_sheaf_class():
    sc = SheafClass(((O(5, 3), 0, 1), (O(1, 1), 1, 2)))
    assert sc.kclass() == (5 - 2, 3 - 2) == (3, 1)
    assert sc.in_heart(sqrt2)
    assert not SheafClass(((O(3, 2), 0, 1),)).in_heart(golden)
    assert SheafClass(((O(3, 2), 1, 1),)).in_heart(golden)
    assert SheafClass(((O(1, 0), 0, 3),)).in_heart(sqrt2)
    assert not SheafClass(((O(1, 0), 1, 1),)).in_heart(sqrt2)
    assert str(sc) == "O(5/3) + O(1/1)[1]^2"
    with pytest.raises(ValueError):
        SheafClass(((O(1, 1), 2, 1),))
    with pytest.raises(ValueError):
        SheafClass(((O(1, 1), 0, 0),))


def test_star_import_keeps_the_fraction_zero():
    # the "Zero" verdict is a private constant, so it cannot shadow exact.ZERO = 0/1
    scope = {}
    exec("from fareyslopes.exact import *\nfrom fareyslopes.sheaves import *", scope)
    assert scope["ZERO"] == F(0, 1)

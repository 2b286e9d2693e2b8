"""Component classification: index sets, dimensions, multiplicities."""

import gc
import inspect
import random
from dataclasses import FrozenInstanceError, fields, replace
from itertools import combinations, product
from operator import mul
from types import SimpleNamespace

import pytest

from conecurves import components
from conecurves import (
    AffineComparison,
    CartanType,
    ComponentDescriptor,
    ConeSpace,
    EffectiveClass,
    InputError,
    InternalError,
    TildeClass,
    build_cone,
    build_parabolic,
    build_root_system,
    classify,
    compare_ne_ir,
    cone_from_ell,
    count_components,
    dim_mor_tilde,
    e_intersection,
    has_lines,
    is_equidimensional,
    ne,
    total_degree,
)
from conecurves.components import iter_rows
from conecurves.parabolic import minimal_ample
from oracles import box_scan


def make_cone(type_name, subset, ell, n):
    rs = build_root_system(CartanType.parse(type_name))
    return cone_from_ell(build_parabolic(rs, subset), ell, n)


def test_ne_examples():
    flag = make_cone("A2", (1, 2), (1, 1), 1)
    assert [b.coeffs for b in ne(flag, 2)] == [(2, 0), (1, 1), (0, 2)]
    quad = make_cone("A1", (1,), (2,), 1)
    assert ne(quad, 3) == []
    assert [b.coeffs for b in ne(quad, 0)] == [(0,)]
    assert [b.coeffs for b in ne(flag, 0)] == [(0, 0)]


def test_ne_rejects_negative_degree():
    quad = make_cone("A1", (1,), (2,), 1)
    with pytest.raises(InputError):
        ne(quad, -1)
    # The counts refuse it too; the plane is a minimal ample cone, as compare_ne_ir needs.
    plane = make_cone("A1", (1,), (1,), 1)
    for count in (count_components, compare_ne_ir):
        with pytest.raises(InputError, match=r"^degree must be >= 0, got -1$"):
            count(plane, -1)


def test_ne_matches_box_scan_oracle():
    bases = {k: make_cone(f"A{k}", tuple(range(1, k + 1)), (1,) * k, 1).parabolic for k in (1, 2, 3)}
    for k in (1, 2, 3):
        for ell in product(range(1, 5), repeat=k):
            cone = cone_from_ell(bases[k], ell, 1)
            for degree in range(11):
                got = [b.coeffs for b in ne(cone, degree)]
                assert got == box_scan(ell, degree), (ell, degree)


def test_total_degree():
    cone = make_cone("A3", (1, 3), (1, 5), 1)
    assert total_degree(cone, EffectiveClass((2, 1))) == 7
    assert total_degree(cone, EffectiveClass((0, 0))) == 0
    quad = make_cone("A1", (1,), (2,), 1)
    assert total_degree(quad, EffectiveClass((3,))) == 6


def test_effective_class_rejects_negative():
    message = "effective class must have nonnegative coordinates, got {}"
    with pytest.raises(InputError) as exc:
        EffectiveClass((1, -1))
    assert str(exc.value) == message.format((1, -1))
    with pytest.raises(InputError) as exc:
        replace(EffectiveClass((1, 0)), coeffs=(0, -2))
    assert str(exc.value) == message.format((0, -2))
    assert EffectiveClass(()).coeffs == ()


A1_POINT = build_parabolic(build_root_system(CartanType("A", 1)), (1,))


# The records must behave as the frozen, slotted dataclasses they are
# declared to be, whether a constructor made them or a hot loop filled
# their slots through the member descriptors.  EffectiveClass and
# ConeSpace are declared with init=False, so the __init__ each has is the
# one written in its module, which checks its fields; the others have the
# generated one.  replace() builds the copy through the class's __init__.
RECORDS = [
    (EffectiveClass, ((2, 0, 1),), ("coeffs", (0, 3)), "EffectiveClass(coeffs=(2, 0, 1))"),
    (TildeClass, ((2, 1), -3), ("relative_degree", 5), "TildeClass(beta=(2, 1), relative_degree=-3)"),
    (
        ComponentDescriptor,
        (EffectiveClass((1,)), 1, 0, TildeClass((1,), 1), 4),
        ("dimension", 5),
        "ComponentDescriptor(beta=EffectiveClass(coeffs=(1,)), alpha_prime=1, vertex_multiplicity=0, "
        "tilde=TildeClass(beta=(1,), relative_degree=1), dimension=4)",
    ),
    (
        AffineComparison,
        (3, 1, 4, False, ((1,),), ((1, 1),)),
        ("ir_count", 1),
        "AffineComparison(degree=3, ne_count=1, ir_count=4, match=False, factor_nodes=((1,),), "
        "factor_comarks=((1, 1),))",
    ),
    (
        ConeSpace,
        (A1_POINT, (2,), 1),
        ("vertex_dim", 2),
        f"ConeSpace(parabolic={A1_POINT!r}, ell=(2,), vertex_dim=1)",
    ),
]
RECORD_IDS = ["EffectiveClass", "TildeClass", "ComponentDescriptor", "AffineComparison", "ConeSpace"]
HAND_WRITTEN_INIT = (EffectiveClass, ConeSpace)

# The records as ne, classify and compare_ne_ir return them, each made by object.__new__ and
# filled through its slots' descriptors: a class of ne(3) on the A3 full flag, the first
# component of the quadric cone (ell = 2, no lines) at degree 3 and its tilde, and the plane's
# comparison at degree 3.
HOT_RECORDS = [
    (
        EffectiveClass,
        ((2, 0, 1),),
        ("coeffs", (0, 3)),
        "EffectiveClass(coeffs=(2, 0, 1))",
        lambda: ne(make_cone("A3", (1, 2, 3), (1, 1, 1), 1), 3)[2],
    ),
    (
        TildeClass,
        ((1,), 4),
        ("relative_degree", 6),
        "TildeClass(beta=(1,), relative_degree=4)",
        lambda: classify(make_cone("A1", (1,), (2,), 1), 3).components[0].tilde,
    ),
    (
        ComponentDescriptor,
        (EffectiveClass((1,)), 2, 1, TildeClass((1,), 4), 8),
        ("vertex_multiplicity", 0),
        "ComponentDescriptor(beta=EffectiveClass(coeffs=(1,)), alpha_prime=2, vertex_multiplicity=1, "
        "tilde=TildeClass(beta=(1,), relative_degree=4), dimension=8)",
        lambda: classify(make_cone("A1", (1,), (2,), 1), 3).components[0],
    ),
    (
        AffineComparison,
        (3, 1, 4, False, ((1,),), ((1, 1),)),
        ("match", True),
        "AffineComparison(degree=3, ne_count=1, ir_count=4, match=False, factor_nodes=((1,),), "
        "factor_comarks=((1, 1),))",
        lambda: compare_ne_ir(make_cone("A1", (1,), (1,), 1), 3),
    ),
]
HOT_IDS = ["EffectiveClass-from-ne", "TildeClass-from-classify", "ComponentDescriptor-from-classify",
           "AffineComparison-from-compare_ne_ir"]


@pytest.mark.parametrize(
    "cls,args,change,text,made", [(*r, None) for r in RECORDS] + HOT_RECORDS, ids=RECORD_IDS + HOT_IDS
)
def test_record_constructors_keep_the_dataclass_contract(cls, args, change, text, made, monkeypatch):
    init = cls.__dict__["__init__"]
    assert cls.__init__ is init
    if cls in HAND_WRITTEN_INIT:
        assert init.__code__.co_filename == inspect.getfile(cls) and not cls.__dataclass_params__.init
    else:
        assert cls.__dataclass_params__.init
    names = [f.name for f in fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == tuple(names)
    rec = cls(*args) if made is None else made()
    assert type(rec) is cls
    assert [getattr(rec, name) for name in names] == list(args)
    assert rec == cls(**dict(zip(names, args))) == replace(rec)
    assert hash(rec) == hash(cls(*args)) == hash(tuple(args))
    assert repr(rec) == text
    name, value = change
    calls = []
    monkeypatch.setattr(cls, "__init__", lambda self, **kw: calls.append(kw) or init(self, **kw))
    moved = replace(rec, **{name: value})
    assert calls == [{**dict(zip(names, args)), name: value}]
    monkeypatch.undo()
    assert type(moved) is cls and getattr(moved, name) == value and moved != rec
    assert [getattr(moved, n) for n in names if n != name] == [a for n, a in zip(names, args) if n != name]
    with pytest.raises(FrozenInstanceError):
        setattr(rec, name, value)
    with pytest.raises(FrozenInstanceError):
        delattr(rec, name)
    assert not hasattr(rec, "__dict__")
    assert getattr(rec, name) == args[names.index(name)]


@pytest.mark.parametrize("cls,args", [record[:2] for record in RECORDS], ids=RECORD_IDS)
def test_each_record_is_one_gc_tracked_object(cls, args):
    # gc.get_count()[0] counts tracked objects allocated less those freed since the last
    # collection, and the collector runs when it passes a threshold.  A record that made a
    # second tracked object (an instance __dict__, say) would move every collection of a pass
    # that builds records.  The warm-up and the slack leave room for interpreter noise.
    n = 1000
    warm = [cls(*args) for _ in range(10)]
    built = [None] * n
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = gc.get_count()[0]
        for i in range(n):
            built[i] = cls(*args)
        grown = gc.get_count()[0] - start
    finally:
        if enabled:
            gc.enable()
    assert n <= grown <= n + n // 100
    assert built[-1] == warm[0]


def test_classify_and_ne_make_four_and_two_tracked_objects_per_component():
    # The hot loops call no record constructor, so the test above does not see them.  Per
    # class, ne makes the vector and its EffectiveClass; per component, classify makes those
    # two, the TildeClass and the ComponentDescriptor, and nothing else that outlives the
    # component.  E8 full flag, minimal ample weight, n = 1: ne(6) and ne(8) hold 1,716 and
    # 6,435 classes, and what a call makes besides its records cancels between the degrees.
    p = build_parabolic(build_root_system(CartanType.parse("E8")), tuple(range(1, 9)))
    cone = build_cone(p, minimal_ample(p), 1)

    def growth(fn, degree):
        fn(cone, degree)  # count_solutions' memo holds the count classify checks against
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = gc.get_count()[0]
            kept = fn(cone, degree)  # held, so none of its objects is freed before the count is read
            grown = gc.get_count()[0] - start
        finally:
            if enabled:
                gc.enable()
        assert kept
        return grown

    assert growth(classify, 8) - growth(classify, 6) == 4 * (6435 - 1716)
    assert growth(ne, 8) - growth(ne, 6) == 2 * (6435 - 1716)


def test_cone_space_replace_runs_the_checks():
    # The last two changes break two checks at once, so they pin the order the checks run in.
    cone = ConeSpace(A1_POINT, (2,), 1)
    no_vertex = "vertex_dim must be >= 1; with no vertex summand the space is the base variety itself"
    wrong_length = "ell has 2 entries, expected 1 (one per marked node)"
    for change, message in (
        ({"vertex_dim": 0}, no_vertex),
        ({"ell": (1, 1)}, wrong_length),
        ({"ell": (0,)}, "ell = (0,): embedding degrees must all be >= 1"),
        ({"ell": (1, 0), "vertex_dim": 0}, no_vertex),
        ({"ell": (0, 1)}, wrong_length),
    ):
        with pytest.raises(InputError) as exc:
            replace(cone, **change)
        assert str(exc.value) == message


def test_classify_plane_cone():
    # Cone over a line embedded linearly is the projective plane.
    plane = make_cone("A1", (1,), (1,), 1)
    rep = classify(plane, 2)
    assert rep.case == "lines"
    assert len(rep.components) == 1
    only = rep.components[0]
    assert only.beta.coeffs == (2,)
    assert only.vertex_multiplicity == 0
    assert only.dimension == 8
    assert rep.equidimensional


def test_classify_quadric_cone():
    quad = make_cone("A1", (1,), (2,), 1)
    rep = classify(quad, 2)
    assert rep.case == "no_lines"
    facts = [(c.beta.coeffs, c.vertex_multiplicity, c.dimension) for c in rep.components]
    assert facts == [((1,), 0, 6), ((0,), 2, 6)]
    assert rep.equidimensional


def test_classify_degree_zero():
    for cone in (
        make_cone("A1", (1,), (1,), 1),
        make_cone("A1", (1,), (2,), 1),
        make_cone("A3", (1, 3), (2, 3), 2),
    ):
        rep = classify(cone, 0)
        assert len(rep.components) == 1
        only = rep.components[0]
        assert not any(only.beta.coeffs)
        assert only.dimension == cone.dim_x


def test_classify_rejects_negative_degree():
    with pytest.raises(InputError):
        classify(make_cone("A1", (1,), (1,), 1), -2)


def test_lines_case_multiplicities_and_lift_dimensions():
    cone = make_cone("A2", (1, 2), (1, 2), 1)
    assert has_lines(cone)
    for degree in range(6):
        rep = classify(cone, degree)
        assert rep.case == "lines"
        for c in rep.components:
            assert c.vertex_multiplicity == 0
            assert c.alpha_prime == degree
            assert c.dimension == dim_mor_tilde(cone, c.tilde)


def test_no_lines_case_stratification():
    cone = make_cone("A2", (1, 2), (2, 3), 1)
    for degree in range(6):
        rep = classify(cone, degree)
        assert rep.case == "no_lines"
        seen = set()
        for c in rep.components:
            assert c.vertex_multiplicity + c.alpha_prime == degree
            assert c.dimension == dim_mor_tilde(cone, c.tilde)
            key = (c.beta.coeffs, c.vertex_multiplicity)
            assert key not in seen
            seen.add(key)
        assert len(rep.components) == count_components(cone, degree)


def test_lines_means_every_degree_is_populated():
    cone = make_cone("A3", (1, 3), (1, 5), 2)
    assert has_lines(cone)
    for degree in range(9):
        assert ne(cone, degree)


def test_count_components_examples():
    flag = make_cone("A2", (1, 2), (1, 1), 1)
    assert count_components(flag, 2) == 3
    quad = make_cone("A1", (1,), (2,), 1)
    assert count_components(quad, 2) == 2  # ne(0) + ne(2); ne(1) is empty
    assert count_components(quad, 0) == 1


def test_is_equidimensional_quadric_cone():
    quad = make_cone("A1", (1,), (2,), 1)
    rep = is_equidimensional(quad, 2)
    assert rep.equidimensional and rep.closed_form and rep.agree
    assert rep.case == "no_lines"


def test_is_equidimensional_full_flag_minimal():
    cone = make_cone("A2", (1, 2), (1, 1), 1)
    rep = is_equidimensional(cone, 2)
    assert rep.equidimensional and rep.closed_form and rep.agree


def test_is_equidimensional_mixed_degrees():
    cone = make_cone("A2", (1, 2), (1, 2), 1)
    rep = is_equidimensional(cone, 2)
    assert not rep.equidimensional
    assert not rep.closed_form
    assert rep.agree
    assert sorted(c.dimension for c in classify(cone, 2).components) == [8, 10]


def test_closed_form_is_reported_not_trusted():
    # One component at degree 0 is always equidimensional even when the
    # closed-form criterion fails; the diagnostic must surface that.
    cone = make_cone("A2", (1, 2), (1, 2), 1)
    rep = is_equidimensional(cone, 0)
    assert rep.equidimensional
    assert not rep.closed_form
    assert not rep.agree


# The all-degree criterion.  A component's dimension is <beta, c - ell> +
# (n+1)d + dim_x, c the Chern degrees.  With lines, beta runs over the
# effective classes of degree d, so the dimension is constant at every degree
# iff <beta, c - ell> depends on <beta, ell> alone, iff c is proportional to
# ell; if c_i/ell_i != c_j/ell_j, the classes ell_j e_i and ell_i e_j of
# degree ell_i ell_j <= max(ell)^2 differ.  Without lines beta = 0 is the
# vertex stratum at every degree, so the dimension is constant iff
# <beta, c - ell> = 0 for every effective beta, iff c = ell; if c_i != ell_i,
# e_i at degree ell_i differs from 0.  So degrees up to max(ell)^2 decide it.
# Rows: type, marked nodes, ell, n, constant at every degree.
ALL_DEGREE_GRID = [
    ("A2", (1,), (1,), 1, True),  # lines, c = 3 ell: proportional, though c != 2 ell
    ("A2", (1, 2), (1, 1), 1, True),  # lines, c = 2 ell
    ("G2", (1, 2), (1, 1), 2, True),  # lines, c = 2 ell
    ("B3", (1,), (1,), 1, True),  # lines, the quadric Q^5: c = 5 ell
    ("A2", (1, 2), (1, 2), 1, False),  # lines, c = (2, 2) not proportional to ell
    ("C3", (1, 2, 3), (1, 1, 2), 2, False),  # lines, c = (2, 2, 2) not proportional to ell
    ("A1", (1,), (2,), 1, True),  # no lines, c = ell
    ("A2", (1, 2), (2, 2), 2, True),  # no lines, c = ell
    ("A1", (1,), (3,), 1, False),  # no lines, c = (2,) != ell
    ("A2", (1,), (2,), 1, False),  # no lines, c = (3,) != ell
    ("A2", (1, 2), (4, 4), 1, False),  # no lines, c proportional to ell but != ell
]


@pytest.mark.parametrize("type_name, nodes, ell, n, constant", ALL_DEGREE_GRID)
def test_all_degree_equidimensionality_criterion(type_name, nodes, ell, n, constant):
    cone = make_cone(type_name, nodes, ell, n)
    c = cone.parabolic.chern_degrees
    if has_lines(cone):
        criterion = all(ci * ell[0] == c[0] * li for ci, li in zip(c, ell))
    else:
        criterion = c == ell
    direct = all(is_equidimensional(cone, d).equidimensional for d in range(max(ell) ** 2 + 1))
    assert criterion == direct == constant


def test_dimension_formula_constancy_matches_equidimensionality():
    # Dimensions depend on beta only through <beta, chern - ell>; direct
    # computation must agree with that characterization stratum by stratum.
    for ell in ((2, 2), (2, 3), (3, 2), (2, 4)):
        cone = make_cone("A2", (1, 2), ell, 1)
        for degree in range(5):
            rep = classify(cone, degree)
            chern = cone.parabolic.chern_degrees
            spreads = {
                sum(b * (c - l) for b, c, l in zip(c_.beta.coeffs, chern, cone.ell))
                for c_ in rep.components
            }
            assert rep.equidimensional == (len(spreads) <= 1)


def verdict_mismatches(rule):
    """The (cone, degree, without_vertex) of a grid where rule disagrees with the listed dimensions.

    The grid: every marked diagram of rank <= 3 (the types of
    selfcheck.all_types(3)), ell in {1, 2, 3}^k, n in {1, 2}, d <= 8.
    The listed dimensions are the last fields of iter_rows' rows, without
    the vertex row (alpha_prime 0) when without_vertex.  Returns the
    mismatches and the number of cases checked.
    """
    bad, cases = [], 0
    for type_name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"):
        rs = build_root_system(CartanType.parse(type_name))
        for size in range(1, rs.rank + 1):
            for nodes in combinations(range(1, rs.rank + 1), size):
                p = build_parabolic(rs, nodes)
                for ell in product((1, 2, 3), repeat=size):
                    for n in (1, 2):
                        cone = cone_from_ell(p, ell, n)
                        for degree in range(9):
                            rows = list(iter_rows(cone, degree))
                            for without_vertex in (False, True):
                                dims = {r[-1] for r in rows if r[-5] or not without_vertex}
                                cases += 1
                                if rule(cone, degree, without_vertex) != (len(dims) <= 1):
                                    bad.append((type_name, nodes, ell, n, degree, without_vertex))
    return bad, cases


def test_equidimensional_rule_matches_the_listed_dimensions():
    bad, cases = verdict_mismatches(components.equidimensional)
    assert not bad
    assert cases == 11340


@pytest.mark.parametrize(
    "control",
    [
        # The paper's closed form in place of the rule: A2 node 1, ell = 1 has c = 3 ell, not 2 ell.
        lambda cone, degree, without_vertex: is_equidimensional(cone, degree).closed_form,
        # The rule without its 2*min(ell) > d clause: A1 with ell = 3 has only e_1 left at d = 3..5.
        lambda cone, degree, without_vertex: components.equidimensional(cone, degree),
    ],
    ids=["closed-form", "no-vertex-clause-dropped"],
)
def test_verdict_grid_rejects_a_wrong_rule(control):
    bad, _ = verdict_mismatches(control)
    assert bad


def test_equidimensional_lists_nothing(monkeypatch):
    def refuse(weights, target):
        raise AssertionError("enumerated")

    monkeypatch.setattr(components, "graded_solutions", refuse)
    lines, no_lines = make_cone("A2", (1,), (1,), 1), make_cone("A2", (1, 2), (2, 3), 1)
    assert is_equidimensional(lines, 100000) == components.EquidimReport(True, False, False, "lines")
    assert is_equidimensional(no_lines, 100000) == components.EquidimReport(False, False, True, "no_lines")
    assert components.equidimensional(make_cone("A1", (1,), (3,), 1), 5, without_vertex=True)


def test_equidimensional_rejects_negative_degree_as_classify_does():
    cone = make_cone("A1", (1,), (1,), 1)
    with pytest.raises(InputError) as verdict:
        is_equidimensional(cone, -2)
    with pytest.raises(InputError) as listed:
        classify(cone, -2)
    assert str(verdict.value) == str(listed.value) == "degree must be >= 0, got -2"


def row_of(cone, c):
    """The flat row iter_rows prints for a record, with e from the record's own lift."""
    e = e_intersection(cone, c.tilde)
    return (*c.beta.coeffs, c.alpha_prime, c.vertex_multiplicity, c.tilde.relative_degree, e, c.dimension)


@pytest.mark.parametrize("type_name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"])
def test_iter_rows_are_classify_without_records(type_name):
    # iter_rows gives the rows of classify's records without building them,
    # on every marked diagram of the type, ell in {min, 2 min}, n in {1, 2}:
    # lines cones (min) and no-lines cones (2 min) alike.
    rs = build_root_system(CartanType.parse(type_name))
    for size in range(1, rs.rank + 1):
        for nodes in combinations(range(1, rs.rank + 1), size):
            p = build_parabolic(rs, nodes)
            for lam in (minimal_ample(p), tuple(2 * x for x in minimal_ample(p))):
                for n in (1, 2):
                    cone = build_cone(p, lam, n)
                    for degree in range(7):
                        rows = tuple(iter_rows(cone, degree))
                        assert rows == tuple(row_of(cone, c) for c in classify(cone, degree).components)
                        assert all(type(x) is int for r in rows for x in r)


def test_iter_rows_on_the_e8_full_flag():
    rs = build_root_system(CartanType.parse("E8"))
    p = build_parabolic(rs, tuple(range(1, 9)))
    cone = build_cone(p, minimal_ample(p), 1)
    for degree in range(5):
        assert tuple(iter_rows(cone, degree)) == tuple(row_of(cone, c) for c in classify(cone, degree).components)


def test_one_packed_dot_product_checks_the_stratum_and_gives_the_chern_pairing():
    # Brute force over seeded small cones, Chern degrees of 0 included: one dot product
    # with the packed weights lies in [m*d', m*d' + m) exactly when <beta, ell> = d', and
    # then the excess is <beta, c>.  A Chern degree of 0 lets a class one degree above its
    # stratum land on m itself, the least value the check refuses.
    rng = random.Random(2009)
    for draw in range(40):
        k = rng.randint(1, 4)
        ell = tuple(rng.randint(1, 5) for _ in range(k))
        chern = [rng.randint(0, 6) for _ in range(k)]
        if draw % 2:
            chern[rng.randrange(k)] = 0
        degree = rng.randint(0, 12)
        cone = SimpleNamespace(ell=ell, parabolic=SimpleNamespace(chern_degrees=tuple(chern)))
        m, packed = components._packed_weights(cone, degree)
        for beta in product(range(degree + 1), repeat=k):
            dot = sum(map(mul, beta, packed))
            l, c = sum(map(mul, beta, ell)), sum(map(mul, beta, chern))
            for dp in range(degree + 1):
                p = dot - m * dp
                assert (0 <= p < m) == (l == dp), (ell, chern, degree, beta, dp)
                assert l != dp or p == c


def test_iter_rows_rejects_negative_degree():
    with pytest.raises(InputError):
        next(iter_rows(make_cone("A1", (1,), (1,), 1), -2))


LIFT_CORRUPTIONS = pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda lf: lf._replace(e=lf.e + 1), "is not a valid nonempty class"),
        (lambda lf: lf._replace(nonempty=False), "is not a valid nonempty class"),
        (lambda lf: lf._replace(dim_base_fiber=lf.dim_base_fiber + 1), "dimension routes disagree"),
        (lambda lf: lf._replace(dim_branch=lf.dim_branch + 1, dim_base_fiber=lf.dim_base_fiber + 1),
         "disagrees with the lifted morphism space"),
    ],
    ids=["e-is-multiplicity", "nonempty", "routes-agree", "dimension-formula"],
)


@LIFT_CORRUPTIONS
def test_classify_lift_checks_can_fail(monkeypatch, corrupt, message):
    real = components.lift
    monkeypatch.setattr(components, "lift", lambda cone, beta, d: corrupt(real(cone, beta, d)))
    with pytest.raises(InternalError, match=message):
        classify(make_cone("A1", (1,), (2,), 1), 2)


@LIFT_CORRUPTIONS
def test_iter_rows_lift_checks_can_fail(monkeypatch, corrupt, message):
    real = components.lift
    monkeypatch.setattr(components, "lift", lambda cone, beta, d: corrupt(real(cone, beta, d)))
    with pytest.raises(InternalError, match=message):
        tuple(iter_rows(make_cone("A1", (1,), (2,), 1), 2))


def test_classify_and_iter_rows_lift_once_per_stratum_on_its_first_class(monkeypatch):
    # One lift's checks hold for every class of its stratum, so a second lift in a stratum is waste.
    calls = []
    real = components.lift
    monkeypatch.setattr(components, "lift", lambda cone, beta, d: calls.append((beta, d)) or real(cone, beta, d))
    # No lines: strata d' = 6..0, of which d' = 1 is empty; lines: one stratum.
    for cone, degree, strata in ((make_cone("A2", (1, 2), (2, 3), 1), 6, 6), (make_cone("A2", (1, 2), (1, 2), 2), 5, 1)):
        calls.clear()
        report = classify(cone, degree)
        first = {}
        for c in report.components:
            first.setdefault(c.alpha_prime, (c.beta.coeffs, c.tilde.relative_degree))
        assert calls == list(first.values())
        assert len(calls) == strata < len(report.components)
        calls.clear()
        assert len(list(iter_rows(cone, degree))) == len(report.components)
        assert calls == list(first.values())

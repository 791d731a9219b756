import random

import pytest

from violator_spaces import (
    AbstractLpTable,
    ConcreteLpProblem,
    ConstraintSet,
    CyclicSpaceError,
    ExplicitViolatorSpace,
    NotValidatedError,
)

from conftest import (
    all_bases_of,
    brute_is_basis,
    cyclic3_space,
    random_concrete_problem,
    random_concrete_space,
    random_uso_space,
    square_space,
)


def labels(space, sets):
    return [s.label(space.names).replace(",", "") for s in sets]


# -- axiom checks ------------------------------------------------------


def test_cyclic3_passes_both_axioms():
    assert cyclic3_space().checked


def test_all_empty_violators_passes():
    space = ExplicitViolatorSpace(3, [0] * 8)
    assert space.check_axioms() is None


def test_self_violation_gives_consistency_witness():
    # n=2, V({0}) = {0}
    space = ExplicitViolatorSpace(2, [0, 0b01, 0, 0])
    witness = space.check_axioms()
    assert witness is not None
    assert witness.axiom == "consistency"
    assert witness.G.mask == 0b01


def test_locality_witness():
    # V(emptyset)=emptyset but V({0}) = {1}: adding the non-violator 0
    # to the empty set changes the violator set
    space = ExplicitViolatorSpace(2, [0, 0b10, 0, 0])
    witness = space.check_axioms()
    assert witness is not None
    assert witness.axiom == "locality"
    assert witness.F.mask == 0 and witness.G.mask == 0b01


def test_operations_require_checked_space():
    space = ExplicitViolatorSpace(2, [0, 0, 0, 0])
    with pytest.raises(NotValidatedError):
        space.enumerate_bases()


# -- abstract tables ---------------------------------------------------


def _cardinality_table(n):
    values = [str(bin(g).count("1")) for g in range(1 << n)]
    order = [str(i) for i in range(n + 1)]
    return AbstractLpTable(n, values, order)


def test_cardinality_table_is_lp_type():
    assert _cardinality_table(4).check_axioms() is None


def test_constant_table_is_lp_type():
    t = AbstractLpTable(3, ["c"] * 8, ["c"])
    assert t.check_axioms() is None


def test_monotonicity_witness():
    t = AbstractLpTable(1, ["hi", "lo"], ["lo", "hi"])
    witness = t.check_axioms()
    assert witness is not None
    assert witness.axiom == "monotonicity"
    assert witness.F.mask == 0 and witness.G.mask == 1


def test_locality_witness_abstract():
    # adding b raises {a} but not the equal-valued empty set
    # masks over a=0, b=1: w(0)=w(a)=w(b)=0, w(ab)=1
    t = AbstractLpTable(2, ["0", "0", "0", "1"], ["0", "1"])
    witness = t.check_axioms()
    assert witness is not None
    assert witness.axiom == "locality"
    assert witness.h == 1


def test_violator_map_of_cardinality_is_complement():
    t = _cardinality_table(3)
    t.check_axioms()
    space = t.violator_map()
    for g in range(8):
        assert space.violator_mask(g) == (~g) & 0b111


def test_violator_map_of_constant_is_empty():
    t = AbstractLpTable(3, ["c"] * 8, ["c"])
    t.check_axioms()
    space = t.violator_map()
    assert all(space.violator_mask(g) == 0 for g in range(8))


def test_violator_map_requires_validation():
    unchecked = _cardinality_table(2)
    failed = AbstractLpTable(2, ["0", "0", "0", "1"], ["0", "1"])
    assert failed.check_axioms() is not None
    for t in (unchecked, failed):
        with pytest.raises(NotValidatedError):
            t.violator_map()


def test_square_radius_table_gives_square_space():
    # squared radii of the smallest circle for each subset of the unit
    # square's corners: 0 for points, 1/4 for sides, 1/2 with a diagonal
    order = ["-inf", "0", "1/4", "1/2"]
    diag = {0b0101, 0b1010}
    values = []
    for g in range(16):
        size = bin(g).count("1")
        if size == 0:
            values.append("-inf")
        elif size == 1:
            values.append("0")
        elif size == 2:
            values.append("1/2" if g in diag else "1/4")
        else:
            values.append("1/2")
    t = AbstractLpTable(4, values, order, names=list("abcd"))
    assert t.check_axioms() is None
    space = t.violator_map()
    expected = square_space()
    assert all(
        space.violator_mask(g) == expected.violator_mask(g) for g in range(16)
    )
    assert space.violator_mask(0b0011) == 0b1100  # V({a,b}) = {c,d}


def test_violator_map_is_basis_equivalent_to_table():
    # minimal subsets with equal w coincide with minimal subsets with
    # equal violator sets, for every G
    rnd = random.Random(11)
    for _ in range(25):
        m = rnd.randint(1, 6)
        constraints = [
            [i for i in range(m) if (rnd.getrandbits(m) >> i) & 1]
            for _ in range(rnd.randint(1, 6))
        ]
        table = ConcreteLpProblem(
            [f"x{i}" for i in range(m)], constraints
        ).to_abstract()
        space = table.violator_map()
        n = table.n
        for g in range(1 << n):
            target = table.values[g]
            same_w = []
            sub = g
            while True:
                if table.values[sub] == target:
                    same_w.append(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & g
            minimal_w = sorted(
                b for b in same_w
                if not any(c != b and c & ~b == 0 for c in same_w)
            )
            assert minimal_w == all_bases_of(space, g)


# -- covering-pair checks against the full submask scan -----------------


def _reference_explicit_witness(n, table):
    """Consistency and locality over every submask pair, O(3^n): the first
    witness with G in mask order and F in decreasing-mask order."""
    for g in range(1 << n):
        vg = table[g]
        if g & vg:
            return ("consistency", g, g, None)
        f = (g - 1) & g
        while True:
            if g & table[f] == 0 and table[f] != vg:
                return ("locality", f, g, None)
            if f == 0:
                break
            f = (f - 1) & g
    return None


def _reference_abstract_witness(n, r):
    """Monotonicity on covering pairs, then locality over every submask
    pair: G in mask order, F decreasing, h ascending."""
    for g in range(1 << n):
        for x in range(n):
            if (g >> x) & 1 and r[g ^ (1 << x)] > r[g]:
                return ("monotonicity", g ^ (1 << x), g, None)
    for g in range(1 << n):
        f = (g - 1) & g
        while True:
            if r[f] == r[g]:
                for h in range(n):
                    if (
                        not (g >> h) & 1
                        and r[g | 1 << h] > r[g]
                        and r[f | 1 << h] == r[f]
                    ):
                        return ("locality", f, g, h)
            if f == 0:
                break
            f = (f - 1) & g
    return None


def _witness_key(witness):
    if witness is None:
        return None
    return (witness.axiom, witness.F.mask, witness.G.mask, getattr(witness, "h", None))


def test_explicit_check_returns_the_full_scan_witness():
    rnd = random.Random(5)
    kinds = {}
    for _ in range(600):
        n = rnd.randint(1, 8)
        valid = random_concrete_space(rnd, n)
        table = [valid.violator_mask(g) for g in range(1 << n)]
        flipped = list(table)
        for _ in range(rnd.randint(1, 3)):
            flipped[rnd.randrange(1 << n)] ^= 1 << rnd.randrange(n)
        consistent = [rnd.getrandbits(n) & ~g for g in range(1 << n)]
        for t in (table, flipped, consistent):
            space = ExplicitViolatorSpace(n, t)
            expected = _reference_explicit_witness(n, t)
            assert _witness_key(space.check_axioms()) == expected
            assert space.checked == (expected is None)
            kind = expected[0] if expected else "valid"
            kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.get(k, 0) for k in ("valid", "consistency", "locality")) >= 100


def test_abstract_check_returns_the_full_scan_witness():
    rnd = random.Random(6)
    kinds = {}
    for _ in range(500):
        n = rnd.randint(1, 8)
        valid = random_concrete_problem(rnd, n).to_abstract()
        order = valid.order
        flipped = list(valid.values)
        for _ in range(rnd.randint(1, 3)):
            flipped[rnd.randrange(1 << n)] = rnd.choice(order)
        # monotone by construction, so locality is what fails
        ranks = [0] * (1 << n)
        for g in range(1, 1 << n):
            ranks[g] = max(ranks[g ^ (1 << x)] for x in range(n) if (g >> x) & 1)
            ranks[g] += rnd.random() < 0.3
        monotone = [order[min(k, len(order) - 1)] for k in ranks]
        random_values = [rnd.choice(order) for _ in range(1 << n)]
        for values in (valid.values, flipped, monotone, random_values):
            t = AbstractLpTable(n, values, order)
            r = [order.index(v) for v in values]
            expected = _reference_abstract_witness(n, r)
            assert _witness_key(t.check_axioms()) == expected
            assert t.checked == (expected is None)
            if expected is None:
                # V(G) = {h outside G : w(G + h) > w(G)}, by brute force
                brute = [
                    sum(
                        1 << h
                        for h in range(n)
                        if not (g >> h) & 1 and r[g | 1 << h] > r[g]
                    )
                    for g in range(1 << n)
                ]
                space = t.violator_map()
                assert [space.violator_mask(g) for g in range(1 << n)] == brute
            kind = expected[0] if expected else "valid"
            kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.get(k, 0) for k in ("valid", "monotonicity", "locality")) >= 100


def _fused_abstract_check(n, r):
    """Frozen copy of the value-table checker that kept its own locality
    loop: monotonicity on covering pairs, then up[g] for each g in mask
    order, failing the first g with a covering pair (f, g) where
    w(f) == w(g) and up[g] is not inside up[f].  Returns the witness as
    (axiom, F, G, h), or the up masks when there is none."""
    for g in range(1 << n):
        for x in range(n):
            if (g >> x) & 1 and r[g ^ (1 << x)] > r[g]:
                return ("monotonicity", g ^ (1 << x), g, None)
    full = (1 << n) - 1
    up = [0] * (1 << n)
    for g in range(1 << n):
        up[g] = sum(1 << h for h in range(n) if (full & ~g) >> h & 1 and r[g | 1 << h] > r[g])
        for x in range(n):
            f = g ^ (1 << x)
            if (g >> x) & 1 and r[f] == r[g] and up[g] & ~up[f]:
                f = (g - 1) & g
                while True:
                    if r[f] == r[g]:
                        for h in range(n):
                            if (full & ~g) >> h & 1 and r[g | 1 << h] > r[g] and r[f | 1 << h] == r[f]:
                                return ("locality", f, g, h)
                    f = (f - 1) & g
    return up


def test_abstract_check_matches_the_fused_checker():
    """The value-table check, run on the violator table it induces,
    returns the fused checker's witness, or its violator table."""
    rnd = random.Random(17)
    kinds = {}
    for _ in range(1000):
        n = rnd.randint(0, 7)
        valid = random_concrete_problem(rnd, n).to_abstract()
        order = valid.order
        ranks = [0] * (1 << n)
        for g in range(1, 1 << n):
            ranks[g] = max(ranks[g ^ (1 << x)] for x in range(n) if (g >> x) & 1)
            ranks[g] += rnd.random() < 0.3
        monotone = [order[min(k, len(order) - 1)] for k in ranks]
        random_values = [rnd.choice(order) for _ in range(1 << n)]
        for values in (valid.values, monotone, random_values):
            t = AbstractLpTable(n, values, order)
            expected = _fused_abstract_check(n, [order.index(v) for v in values])
            witness = t.check_axioms()
            if isinstance(expected, tuple):
                assert _witness_key(witness) == expected
                assert not t.checked
            else:
                assert witness is None
                space = t.violator_map()
                assert [space.violator_mask(g) for g in range(1 << n)] == expected
            kind = expected[0] if isinstance(expected, tuple) else "valid"
            kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.get(k, 0) for k in ("valid", "monotonicity", "locality")) >= 300


# -- bases -------------------------------------------------------------


def test_cyclic3_bases():
    space = cyclic3_space()
    assert labels(space, space.enumerate_bases()) == ["∅", "f", "g", "h", "fgh"]
    assert space.combinatorial_dimension() == 3


def test_square_bases():
    space = square_space()
    assert labels(space, space.enumerate_bases()) == [
        "∅", "a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd", "cd",
    ]
    assert space.combinatorial_dimension() == 2


def test_all_empty_table_has_only_empty_basis():
    space = ExplicitViolatorSpace(3, [0] * 8)
    space.check_axioms()
    assert [b.mask for b in space.enumerate_bases()] == [0]
    assert space.combinatorial_dimension() == 0


def test_enumerate_bases_matches_predicate():
    rnd = random.Random(5)
    for _ in range(20):
        space = random_concrete_space(rnd, rnd.randint(1, 7))
        via_fast = {b.mask for b in space.enumerate_bases()}
        via_brute = {
            b for b in range(1 << space.n) if brute_is_basis(space, b)
        }
        assert via_fast == via_brute


def test_basis_of_square_full_set():
    space = square_space()
    assert sorted(space.basis_of(ConstraintSet.full(4))) == [0, 2]  # {a, c}


def test_basis_of_empty_set():
    assert square_space().basis_of(ConstraintSet.empty(4)).mask == 0


def test_basis_of_agrees_with_exhaustive_search():
    rnd = random.Random(99)
    for _ in range(15):
        space = random_concrete_space(rnd, rnd.randint(1, 7))
        n = space.n
        for g in range(1 << n):
            best = space.basis_of(ConstraintSet(g, n))
            minimal = all_bases_of(space, g)
            assert best.mask in minimal
            key = best.sort_key()
            assert all(
                key <= ConstraintSet(m, n).sort_key() for m in minimal
            )


# -- structure ---------------------------------------------------------


def test_cyclic3_structure_cycle():
    space = cyclic3_space()
    st = space.structure()
    assert not st.acyclic
    assert st.linear_extension is None
    cyc = [st.classes[i].representative.label(space.names) for i in st.cycle]
    assert cyc == ["f", "h", "g"]


def test_square_structure():
    space = square_space()
    st = space.structure()
    assert st.acyclic
    multi = [cls for cls in st.classes if len(cls.members) > 1]
    assert len(multi) == 1
    assert {m.label(space.names).replace(",", "") for m in multi[0].members} == {
        "ac", "bd",
    }
    ext_labels = [st.class_labels()[i] for i in st.linear_extension]
    assert ext_labels[0] == "∅" and ext_labels[-1] == "[ac]"


def test_leq_relations_on_square():
    space = square_space()
    st = space.structure()
    lab = {label: i for i, label in enumerate(st.class_labels())}
    assert (lab["a"], lab["ab"]) in st.leq0
    assert (lab["∅"], lab["[ac]"]) in st.leq1
    assert (lab["[ac]"], lab["a"]) not in st.leq1
    # leq1 contains leq0 and is transitively closed
    assert st.leq0 <= st.leq1
    for (i, j) in st.leq1:
        for (k, l) in st.leq1:
            if j == k:
                assert (i, l) in st.leq1


def test_linear_extension_extends_leq1():
    rnd = random.Random(31)
    for _ in range(15):
        space = random_concrete_space(rnd, rnd.randint(1, 6))
        st = space.structure()
        assert st.acyclic
        pos = {c: i for i, c in enumerate(st.linear_extension)}
        for (i, j) in st.leq1:
            assert pos[i] <= pos[j]


def test_locally_smaller_never_points_back_between_classes():
    # for distinct classes with [B] <=0 [C], no member pair has C' <=0 B'
    rnd = random.Random(13)
    for _ in range(20):
        space = random_concrete_space(rnd, rnd.randint(1, 6))
        st = space.structure()
        for (i, j) in st.leq0:
            if i == j:
                continue
            vi = st.classes[i].violators.mask
            assert not any(m.mask & vi == 0 for m in st.classes[j].members)


# -- concretization ----------------------------------------------------


def test_square_concretization_matches_known_s_table():
    space = square_space()
    con = space.to_concrete()
    s_sets = {
        name: {con.points[p] for p in s}
        for name, s in zip(con.names, con.constraints)
    }
    assert s_sets == {
        "a": {"a", "ab", "ad", "[ac]"},
        "b": {"b", "ab", "bc", "[ac]"},
        "c": {"c", "bc", "cd", "[ac]"},
        "d": {"d", "cd", "ad", "[ac]"},
    }


def test_two_constraint_trivial_space_gives_duplicate_constraints():
    space = ExplicitViolatorSpace(2, [0, 0, 0, 0], names=["a", "b"])
    space.check_axioms()
    con = space.to_concrete()
    assert con.points == ["∅"]
    assert con.constraints == [(0,), (0,)]  # a true multiset of equal sets


def test_to_concrete_reuses_the_structure_just_built(monkeypatch):
    rnd = random.Random(77)
    for _ in range(10):
        problem = random_concrete_problem(rnd, rnd.randint(1, 7))
        space = problem.to_abstract().violator_map()
        fresh = problem.to_abstract().violator_map().to_concrete()
        space.structure()
        monkeypatch.setattr(space, "enumerate_bases", lambda: pytest.fail("rebuilt"))
        con = space.to_concrete()
        monkeypatch.undo()
        assert (con.points, con.constraints, con.names) == (
            fresh.points, fresh.constraints, fresh.names)


def test_to_concrete_rejects_cyclic_space():
    with pytest.raises(CyclicSpaceError):
        cyclic3_space().to_concrete()


def test_concrete_to_abstract_values():
    square = square_space()
    con = square.to_concrete()
    table = con.to_abstract()
    # w({a, b}) is the class holding the ab side
    w = table.value_of(ConstraintSet.of([0, 1], 4))
    assert w == "ab"
    # the empty family evaluates to the least point
    assert table.value_of(ConstraintSet.empty(4)) == con.points[0]


def test_concrete_empty_intersection_maps_to_infinity():
    p = ConcreteLpProblem(["x0", "x1"], [[0], [1]])
    table = p.to_abstract()
    assert table.value_of(ConstraintSet.of([0, 1], 2)) == "+inf"
    assert table.check_axioms() is None


# -- round trips and general invariants ---------------------------------


def test_round_trip_preserves_basis_lists():
    rnd = random.Random(2024)
    for _ in range(40):
        space = random_concrete_space(rnd, rnd.randint(1, 7))
        rebuilt = space.to_concrete().to_abstract().violator_map()
        assert rebuilt.n == space.n
        for g in range(1 << space.n):
            assert all_bases_of(space, g) == all_bases_of(rebuilt, g)


def test_monotone_chains_of_violator_sets():
    # F within E within G and V(F) = V(G) forces V(E) = V(F)
    rnd = random.Random(8)
    spaces = [random_concrete_space(rnd, rnd.randint(1, 6)) for _ in range(10)]
    spaces.append(cyclic3_space())
    spaces.append(random_uso_space(3, (2, 2, 2)))
    for space in spaces:
        n = space.n
        for g in range(1 << n):
            vg = space.violator_mask(g)
            f = (g - 1) & g
            while True:
                if space.violator_mask(f) == vg:
                    between = g & ~f
                    extra = (between - 1) & between
                    while True:
                        e = f | extra
                        assert space.violator_mask(e) == vg
                        if extra == 0:
                            break
                        extra = (extra - 1) & between
                if f == 0:
                    break
                f = (f - 1) & g


def test_adding_constraint_changes_violators_iff_it_violates():
    rnd = random.Random(21)
    spaces = [random_concrete_space(rnd, rnd.randint(1, 6)) for _ in range(8)]
    spaces.append(cyclic3_space())
    for space in spaces:
        n = space.n
        for g in range(1 << n):
            for h in range(n):
                if (g >> h) & 1:
                    continue
                changed = space.violator_mask(g | (1 << h)) != space.violator_mask(g)
                assert changed == ((space.violator_mask(g) >> h) & 1 == 1)


def test_extreme_element_count_bounded_by_dimension():
    rnd = random.Random(55)
    spaces = [random_concrete_space(rnd, rnd.randint(1, 7)) for _ in range(8)]
    spaces.append(cyclic3_space())
    spaces.append(square_space())
    for space in spaces:
        n = space.n
        delta = space.combinatorial_dimension()
        for g in range(1 << n):
            extreme = sum(
                1
                for h in range(n)
                if (g >> h) & 1
                and space.violator_mask(g) != space.violator_mask(g & ~(1 << h))
            )
            assert extreme <= delta


def test_equal_values_on_union_force_equal_violators():
    rnd = random.Random(70)
    for _ in range(10):
        space = random_concrete_space(rnd, rnd.randint(1, 6))
        con = space.to_concrete()
        table = con.to_abstract()
        vm = table.violator_map()
        n = table.n
        for a in range(1 << n):
            for b in range(1 << n):
                if (
                    table.values[a] == table.values[b]
                    and table.values[a] == table.values[a | b]
                ):
                    assert vm.violator_mask(a) == vm.violator_mask(b)


def test_basis_of_returns_actual_basis():
    rnd = random.Random(17)
    for _ in range(10):
        space = random_concrete_space(rnd, rnd.randint(1, 6))
        n = space.n
        for g in range(1 << n):
            b = space.basis_of(ConstraintSet(g, n))
            assert space.violator_mask(b.mask) == space.violator_mask(g)
            assert brute_is_basis(space, b.mask)

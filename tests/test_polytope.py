import itertools
import random
from fractions import Fraction

import pytest

from choicelattice import (
    ChoiceDomain,
    ConstraintSystem,
    GuardError,
    build_constraints,
    compose,
    satisfies_rtheta,
    theta_model,
)
from choicelattice.core import order_ranks
from brute import (
    _int_det,
    all_choice_functions,
    all_orderings,
    enumerate_vertices,
    fraction_cumulatives,
    function_vertex,
    heller_check,
    sample_subdeterminants,
    vertex_function,
)
from conftest import ABC
from test_random_choice import random_rcf

F = Fraction


def _feasible_points(system, points):
    """The points that satisfy every row, with rows read sparsely."""
    sparse = [([(k, v) for k, v in enumerate(row) if v], b)
              for row, b in zip(system.rows, system.rhs)]
    return {p for p in points
            if all(sum(v * p[k] for k, v in row) <= b for row, b in sparse)}


class TestBuildConstraints:
    def test_n2_literal_instantiation(self):
        domain = ChoiceDomain.full("ab")
        system = build_constraints(domain, "ab")
        assert len(system.columns) == 2
        assert len(system.rows) == 3
        assert [t.split()[0] for t in system.tags] == ["3", "4", "5"]
        # q(a) <= q(b), q(b) <= 1 and q(a) <= 0, columns ranked best first
        assert system.columns == ((0, 0), (0, 1))
        assert system.rows == ((1, -1), (0, 1), (1, 0))
        assert system.rhs == (0, 1, 0)

    def test_n3_column_count(self, dom3):
        system = build_constraints(dom3, ABC)
        assert len(system.columns) == 9
        by_tag = {}
        for t in system.tags:
            by_tag[t.split()[0]] = by_tag.get(t.split()[0], 0) + 1
        # family (1) skips y = b, x = c: b is the worst member of {a, b}
        assert by_tag == {"1": 2, "2": 3, "3": 5, "4": 4, "5": 4}

    def test_row_shapes(self, dom3, dom4):
        for domain, symbols in ((dom3, ABC), (dom4, tuple("abcd"))):
            system = build_constraints(domain, symbols)
            for row, tag in zip(system.rows, system.tags):
                nonzero = [v for v in row if v != 0]
                if tag[0] in "45":
                    assert nonzero == [1]
                else:
                    assert sorted(nonzero) == [-1, 1]

    def test_requires_full_domain(self):
        domain = ChoiceDomain.from_symbols("abc", [["a", "b"], ["b", "c"]])
        with pytest.raises(Exception):
            build_constraints(domain, ABC)


class TestHeller:
    def test_choice_systems_pass(self, dom3, dom4):
        for domain, symbols in ((dom3, ABC), (dom4, tuple("abcd"))):
            for order in all_orderings(symbols):
                assert heller_check(build_constraints(domain, order))

    def test_same_sign_column_fails(self, dom3):
        system = build_constraints(dom3, ABC)
        row = [0] * len(system.columns)
        row[0] = row[1] = 1
        bad = ConstraintSystem(dom3, system.global_order, system.columns,
                               system.rows + (tuple(row),),
                               system.rhs + (1,), system.tags + ("x",))
        assert not heller_check(bad)

    def test_sampled_subdeterminants_unimodular(self, dom3):
        system = build_constraints(dom3, ABC)
        assert heller_check(system)
        dets = sample_subdeterminants(system, samples=500, max_order=8, seed=4)
        assert set(dets) <= {-1, 0, 1}

    def test_int_det(self):
        assert _int_det([[2, 0], [0, 3]]) == 6
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[1, 2], [2, 4]]) == 0


class TestVertices:
    def test_n2_vertices(self):
        domain = ChoiceDomain.full("ab")
        system = build_constraints(domain, "ab")
        points = enumerate_vertices(system)
        assert points == ((F(0), F(0)), (F(0), F(1)))

    def test_n3_all_zero_one(self, dom3):
        system = build_constraints(dom3, ABC)
        points = enumerate_vertices(system)
        assert all(v in (F(0), F(1)) for p in points for v in p)

    def test_n3_vertices_equal_feasible_binary_points(self, dom3):
        # independent route: scan every 0/1 point for feasibility; since any
        # feasible 0/1 point of the box is automatically a vertex, equality
        # here is exactly the integrality statement
        system = build_constraints(dom3, ABC)
        points = set(enumerate_vertices(system))
        width = len(system.columns)
        feasible = set()
        for bits in itertools.product((F(0), F(1)), repeat=width):
            if all(sum(c * v for c, v in zip(row, bits)) <= b
                   for row, b in zip(system.rows, system.rhs)):
                feasible.add(bits)
        assert points == feasible

    def test_theta_crcfs_are_vertices(self, dom3):
        system = build_constraints(dom3, ABC)
        points = set(enumerate_vertices(system))
        for c in theta_model(dom3, ABC).functions:
            vec = function_vertex(system, c)
            assert vec in points
            assert vertex_function(system, vec) == c

    def test_guard(self, dom4):
        with pytest.raises(GuardError):
            enumerate_vertices(build_constraints(dom4, tuple("abcd")))

    def test_n3_every_vertex_is_a_function(self, dom3):
        system = build_constraints(dom3, ABC)
        points = enumerate_vertices(system)
        assert len(points) == 12
        assert all(vertex_function(system, p) is not None for p in points)

    def test_binary_points_are_the_theta_model(self, dom3, dom4):
        # n = 3: every 0/1 point of the box, under every order
        for order in all_orderings(ABC):
            system = build_constraints(dom3, order)
            points = itertools.product((0, 1), repeat=len(system.columns))
            assert ({vertex_function(system, p).picks
                     for p in _feasible_points(system, points)}
                    == theta_model(dom3, order).picks_set())
        # n = 4: rows (3) and (5) leave only the cumulatives of functions
        order = tuple("abcd")
        system = build_constraints(dom4, order)
        vectors = {function_vertex(system, c): c.picks
                   for c in all_choice_functions(dom4).functions}
        assert ({vectors[p] for p in _feasible_points(system, vectors)}
                == theta_model(dom4, order).picks_set())

    def test_feasible_cumulatives_satisfy_rtheta(self, dom3, dom4):
        rng = random.Random(12)
        answers = set()
        for domain, order in ((dom3, ABC), (dom4, tuple("abcd"))):
            system = build_constraints(domain, order)
            theta = theta_model(domain, order).functions
            grank = order_ranks(domain.order_index(order), domain.n)
            for trial in range(40):
                if trial % 2:
                    rho = random_rcf(domain, rng, max_den=3)
                else:
                    members = rng.sample(theta, rng.randint(1, 4))
                    weights = [rng.randint(1, 5) for _ in members]
                    rho = compose({c: F(w, sum(weights))
                                   for c, w in zip(members, weights)})
                strict, _ = fraction_cumulatives(rho, grank)
                point = tuple(strict[si][domain.sets[si].index(x)]
                              for si, x in system.columns)
                feasible = bool(_feasible_points(system, [point]))
                assert feasible == satisfies_rtheta(rho, order)[0]
                answers.add(feasible)
        assert answers == {True, False}

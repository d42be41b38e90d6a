import sys

import pytest

from posetgroups import FinitePoset, builtin_group, spec_for, standard_generator_labels


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-criterion lines after capture is torn down."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)


def fixture_space(name: str) -> FinitePoset:
    """Small hand-built posets reused across test modules."""
    if name == "chain2":
        return FinitePoset.from_relations(["x", "y"], [(0, 1)])
    if name == "antichain2":
        return FinitePoset.from_relations(["x", "y"], [])
    if name == "vee":
        # one minimum under two maxima
        return FinitePoset.from_relations(["bot", "l", "r"], [(0, 1), (0, 2)])
    if name == "diamond":
        return FinitePoset.from_relations(
            ["bot", "l", "r", "top"], [(0, 1), (0, 2), (1, 3), (2, 3)]
        )
    if name == "crown":
        # 2x2 crown: two minima each under both maxima; the minimal model
        # of the circle
        return FinitePoset.from_relations(
            ["p", "q", "u", "v"], [(0, 2), (0, 3), (1, 2), (1, 3)]
        )
    if name == "wedge":
        # two minima, three maxima, complete bipartite: wedge of two circles
        return FinitePoset.from_relations(
            ["p", "q", "u", "v", "w"],
            [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
        )
    if name == "pentad":
        # five points with a single up beat point (c); core is the crown
        return FinitePoset.from_relations(
            ["a", "b", "c", "d", "e"],
            [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)],
        )
    raise KeyError(name)


@pytest.fixture
def pentad():
    return fixture_space("pentad")


@pytest.fixture
def crown():
    return fixture_space("crown")


@pytest.fixture(scope="session")
def c3_spec():
    return spec_for(builtin_group("cyclic:3"), standard_generator_labels("cyclic:3"))


@pytest.fixture(scope="session")
def klein_spec():
    return spec_for(builtin_group("klein4"), standard_generator_labels("klein4"))


@pytest.fixture(scope="session")
def d3_spec():
    return spec_for(builtin_group("dihedral:3"), standard_generator_labels("dihedral:3"))

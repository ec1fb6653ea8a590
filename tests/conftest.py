from fractions import Fraction

import pytest

from choicelattice import (
    ChoiceDomain,
    ChoiceFunction,
    ChoiceModel,
    PrimitiveOrderings,
    compose,
)

ABC = ("a", "b", "c")

# Fig. 4 node set: the minimal self-progressive extension at n=3 under a>b>c.
THETA3 = {"aaab", "baab", "aaac", "bacb", "baac", "bbab",
          "bbcb", "bacc", "bbac", "cacc", "bbcc", "cbcc"}
RATIONAL3 = {"aaab", "aaac", "bbab", "bbcb", "cacc", "cbcc"}


@pytest.fixture(scope="session")
def dom3():
    return ChoiceDomain.full(ABC)


@pytest.fixture(scope="session")
def ord3(dom3):
    return PrimitiveOrderings.from_global(dom3, ABC)


@pytest.fixture(scope="session")
def dom4():
    return ChoiceDomain.full(("a", "b", "c", "d"))


def fn(domain, text):
    return ChoiceFunction.from_string(domain, text)


def model(domain, *texts):
    return ChoiceModel.from_strings(domain, texts)


def random_ordering(rng, domain, per_set):
    """A random global order, or independent random per-set rankings."""
    if per_set:
        return PrimitiveOrderings(domain, tuple(
            tuple(rng.sample(s, len(s))) for s in domain.sets))
    order = rng.sample(domain.alternatives, domain.n)
    return PrimitiveOrderings.from_global(domain, order)


@pytest.fixture(scope="session")
def example1_model(dom3):
    return model(dom3, "aaab", "abab", "aaac", "abac")


@pytest.fixture(scope="session")
def example1_rcf(dom3):
    third = Fraction(1, 3)
    return compose({fn(dom3, "aaab"): third,
                    fn(dom3, "abab"): third,
                    fn(dom3, "aaac"): third})

import pytest

from qweyl import WeylParams, cli


@pytest.fixture(autouse=True)
def _no_held_instance(monkeypatch):
    """Each test starts with no instance held by ``cli.main``, so no test
    depends on what the tests before it ran."""
    monkeypatch.setattr(cli, "_held", None)


@pytest.fixture
def params2():
    """n=2, r=2 with s1=(1,0), s2=(0,1), L12=(1,0)."""
    return WeylParams(
        2,
        2,
        ((1, 0), (0, 1)),
        (((0, 0), (1, 0)), ((-1, 0), (0, 0))),
    )


@pytest.fixture
def params3():
    """n=3, r=2 instance with mixed exponent data."""
    l12, l13, l23 = (1, 0), (0, 1), (1, -1)
    return WeylParams(
        3,
        2,
        ((1, 0), (0, 1), (1, 1)),
        (
            ((0, 0), l12, l13),
            (tuple(-e for e in l12), (0, 0), l23),
            (tuple(-e for e in l13), tuple(-e for e in l23), (0, 0)),
        ),
    )

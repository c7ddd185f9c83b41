import math

import pytest

from cusplab.numerics import bracketed_root, tail_extreme


def counted(f):
    calls = []

    def g(s):
        calls.append(s)
        return f(s)

    return g, calls


@pytest.mark.parametrize("f, lo, hi, root", [
    (lambda s: math.exp(s) - 2.0, 0.0, 2.0, math.log(2.0)),              # smooth monotone
    (lambda s: math.tanh(1e4 * (s - 0.3)), 0.0, 1.0, 0.3),               # steep
    (lambda s: (s - 0.7) ** 3, 0.0, 2.0, 0.7),                           # flat at the root
    (lambda s: -1.0 if s < 1.0 / 3.0 else 1.0, 0.0, 1.0, 1.0 / 3.0),     # sign-changing step
    (lambda s: 1.0 - s * s, 0.0, 3.0, 1.0),                              # decreasing
])
def test_bracketed_root_within_xtol(f, lo, hi, root):
    for xtol in (1e-6, 1e-10, 1e-13):
        g, calls = counted(f)
        x = bracketed_root(g, lo, hi, xtol=xtol)
        assert lo <= x <= hi
        assert abs(x - root) <= xtol
        assert x in calls  # the best evaluated point, not an unevaluated midpoint


def test_bracketed_root_reuses_endpoint_values():
    f = lambda s: math.exp(s) - 2.0  # noqa: E731
    g, calls = counted(f)
    x = bracketed_root(g, 0.0, 2.0, xtol=1e-10, flo=f(0.0), fhi=f(2.0))
    assert abs(x - math.log(2.0)) <= 1e-10
    assert 0.0 not in calls and 2.0 not in calls


def test_bracketed_root_exact_endpoint_zero():
    assert bracketed_root(lambda s: s - 1.0, 1.0, 2.0) == 1.0
    assert bracketed_root(lambda s: s - 2.0, 1.0, 2.0) == 2.0


def test_bracketed_root_rejects_unbracketed():
    with pytest.raises(ValueError):
        bracketed_root(lambda s: s * s + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        bracketed_root(lambda s: s - 5.0, 0.0, 1.0)


def test_bracketed_root_evaluation_budget():
    g, calls = counted(lambda s: math.exp(s) - 2.0)
    bracketed_root(g, 0.0, 2.0, xtol=1e-10)
    assert len(calls) <= 12


@pytest.mark.parametrize("values, tail_max, tail_min", [
    ([5.0, 1.0, 3.0, 2.0], 3.0, 2.0),        # even length: the tail is values[2:]
    ([5.0, 1.0, 3.0, 2.0, 4.0], 4.0, 2.0),   # odd length: the tail is values[2:]
    ((0.5,), 0.5, 0.5),                      # one value is its own tail
])
def test_tail_extreme_second_half(values, tail_max, tail_min):
    assert tail_extreme(max, values) == tail_max
    assert tail_extreme(min, values) == tail_min


def test_tail_extreme_nan():
    # a nan in the tail makes the estimate nan, whatever its position; a nan
    # in the first half is outside the tail and ignored
    for values in ([1.0, 2.0, math.nan, 3.0], [1.0, 2.0, 3.0, math.nan],
                   [1.0, 2.0, 3.0, math.nan, 4.0]):
        assert math.isnan(tail_extreme(max, values))
        assert math.isnan(tail_extreme(min, values))
    assert tail_extreme(max, [math.nan, 9.0, 2.0, 3.0]) == 3.0
    assert tail_extreme(min, (math.nan, 0.0, 2.0, 3.0, 1.0)) == 1.0

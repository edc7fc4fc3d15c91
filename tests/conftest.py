import math


def assert_ulps(actual: float, expected: float, ulps: int = 4):
    if math.isnan(expected):
        raise AssertionError("expected value is NaN")
    tol = ulps * math.ulp(max(abs(actual), abs(expected), 1e-300))
    assert abs(actual - expected) <= tol, (
        f"{actual!r} differs from {expected!r} by more than {ulps} ulp")

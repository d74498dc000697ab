"""The benchmark's output checks pass on right inputs and fail on wrong ones.

    python3 -m pytest benchmarks/test_checks.py -q
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

K, DELTA, S0 = 2, 0.1, 20.0


def sample(s, modes, inside=True):
    return NS(s=s, modes=np.asarray(modes, dtype=float), inside=inside)


def exiting_record(q1=0.7, omega=1, transversal=True, inside_before=True):
    """Exit through mode 1 at s = 20.02, past the bound I^{-0.1} ~ 0.606."""
    samples = [
        sample(20.0, [0.0, 0.5, 0.0, 0.0, 0.0, 0.0]),
        sample(20.01, [0.0, 0.55, 0.0, 0.0, 0.0, 0.0], inside=inside_before),
        sample(20.02, [0.0, q1, 0.0, 0.0, 0.0, 0.0], inside=False),
    ]
    ex = NS(s_star=20.02, mode=1, omega=omega, transversal=transversal)
    return NS(samples=samples, exit=ex)


def test_neutral_mode():
    rec = NS(samples=[sample(20.0, [0.1, 0.2, 0.0, 0.1, 0.0, 0.0])])
    assert checks.neutral_mode([rec], K) == []
    rec.samples.append(sample(20.01, [0.1, 0.2, 0.0, 0.1, 1e-300, 0.0]))
    assert checks.neutral_mode([rec], K)


def test_bprime_routes():
    s = 20.5  # roundoff floor eps I^4 = 1.8e-7
    good = [(s, 0.5, 0.5 * (1 + 1e-7)), (s, None, None), (s, 0.0, 0.0), (s, -1.8e-3, -1.8e-3 + 3e-9)]
    assert checks.bprime_routes(good, K) == []
    assert checks.bprime_routes([(s, 0.5, 0.5 * (1 + 1e-5))], K)
    assert checks.bprime_routes([(s, -1.8e-3, -1.8e-3 + 1e-6)], K)
    assert checks.bprime_routes([(s, 0.5, None)], K)


def test_mode_exits():
    assert checks.mode_exits([exiting_record()], DELTA, K) == []
    assert checks.mode_exits([exiting_record(omega=-1)], DELTA, K)  # flipped sign
    assert checks.mode_exits([exiting_record(q1=0.6)], DELTA, K)  # inside the bound
    assert checks.mode_exits([exiting_record(inside_before=False)], DELTA, K)
    # one non-transversal exit in twenty passes criterion 10's 95%, two do not
    recs = [exiting_record() for _ in range(18)] + [exiting_record(transversal=False)]
    assert checks.mode_exits(recs + [exiting_record()], DELTA, K) == []
    assert checks.mode_exits(recs + [exiting_record(transversal=False)], DELTA, K)


def test_same_bytes():
    assert checks.same_bytes(b"s,b\n1,2\n", b"s,b\n1,2\n", "csv") == []
    assert checks.same_bytes(b"s,b\n1,2\n", b"s,b\n1,3\n", "csv")


def good_certificate(**changes):
    cert = {
        "failed": False, "n_trajectories": 6, "d_star": [-5.7e-6, 0.0, 0.0625, 0.0],
        "final_margins": {"mode_0": 0.01, "qminus": 0.2, "b_low": 0.5},
        "b_drift": 4e-6,
    }
    cert.update(changes)
    return cert


def shoot(cert, rows=None):
    rows = rows if rows is not None else [
        {"s": "20.0", "exit_mode": ""}, {"s": "25.0", "exit_mode": ""},
    ]
    return checks.shoot_certificate(cert, rows, S0, 5.0, 2.0, 1.0, 1.0, 3.0, K)


def test_shoot_certificate():
    assert abs(checks.linear_d2(S0, 1.0, 1.0, 3.0, K) - 6.0 * math.exp(-5.0)) < 1e-15
    assert shoot(good_certificate()) == []
    assert shoot(good_certificate(failed=True))
    assert shoot(good_certificate(n_trajectories=1))
    assert shoot(good_certificate(final_margins={"mode_0": -1e-9}))
    assert shoot(good_certificate(d_star=[2.5, 0.0, 0.0625, 0.0]))
    assert shoot(good_certificate(b_drift=0.2))
    assert shoot(good_certificate(d_star=[0.0, 0.0, -0.0625, 0.0]))  # wrong sign
    assert shoot(good_certificate(d_star=[0.0, 0.0, 0.2, 0.0]))  # 5x linear theory
    assert shoot(good_certificate(), rows=[{"s": "24.99", "exit_mode": ""}])
    assert shoot(good_certificate(), rows=[{"s": "25.0", "exit_mode": "2"}])


def test_blowup_time():
    assert checks.blowup_time(0.1 * (1 + 1e-9), 0.1) == []
    assert checks.blowup_time(0.102, 0.1)  # 2% off


def exact_sup(T, t, p=3.0):
    return (p - 1.0) ** (-1.0 / (p - 1.0)) * (T - t) ** (-1.0 / (p - 1.0))


def test_sup_series():
    T = 0.1
    t = T * (1.0 - np.exp(-np.linspace(0.0, 30.0, 200)))
    assert checks.sup_series(t, exact_sup(T, t), T, 3.0) == []
    assert checks.sup_series(t, exact_sup(1.02 * T, t), T, 3.0)  # blows up 2% late


def test_grid_convergence():
    s = np.linspace(20.0, 22.0, 41)
    d = 1e-3 * np.exp(-(s - 20.0))
    assert checks.grid_convergence(s, d, s, d * (1 + 5e-3)) == []
    assert checks.grid_convergence(s, d, s, d * (1 + 2e-2))
    assert checks.grid_convergence(s, d, s + 0.01, d)  # no shared time


def test_manufactured():
    assert checks.manufactured(3e-15, 1e-14) == []
    assert checks.manufactured(2e-6, 1e-14)
    assert checks.manufactured(3e-15, 2e-6)


def test_tracer_self_time_and_bindings():
    import types

    from tracing import Tracer

    mod = types.ModuleType("blowlab._tracer_probe")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def outer():\n    time.sleep(0.01)\n    inner()\n    inner()\n",
        vars(mod),
    )
    user = types.ModuleType("blowlab._tracer_user")
    user.inner = mod.inner
    sys.modules[mod.__name__] = mod
    sys.modules[user.__name__] = user
    original = mod.inner
    try:
        tracer = Tracer({"outer": [(mod.__name__, "outer")], "inner": [(mod.__name__, "inner")]})
        tracer.install()
        mod.outer()
        user.inner()
        tracer.uninstall()
    finally:
        del sys.modules[mod.__name__], sys.modules[user.__name__]
    assert mod.inner is original and user.inner is original
    summ = tracer.summary()
    assert summ["inner"]["calls"] == 3
    assert dict(summ["inner"]["by_binding"]) == {mod.__name__: 2, user.__name__: 1}
    assert 0.01 <= summ["outer"]["self_s"] < 0.03  # the two inner calls are excluded
    assert summ["inner"]["self_s"] >= 0.06

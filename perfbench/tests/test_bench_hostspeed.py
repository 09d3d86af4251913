import time
import types

import pytest

import hostspeed
import run
from stats import Tally


def test_speed_is_one_before_any_probe():
    assert hostspeed.HostSpeed().speed == 1.0


def test_probe_time_is_taken_out_of_the_item_it_interrupted():
    host = hostspeed.HostSpeed()
    nap = types.SimpleNamespace(run_item=lambda item, tally, checker: time.sleep(0.35))
    seconds = run.Runner(nap, Tally(), None, host).run(("cli", "nap"))
    assert len(host.speeds) >= 2 and host.probe_s > 0
    assert seconds == pytest.approx(0.35, abs=0.03)
    assert host.speed > 0


def test_no_probe_fires_outside_the_items():
    host = hostspeed.HostSpeed()
    with host.sampling():
        time.sleep(0.05)
    time.sleep(0.3)
    assert host.speeds == []

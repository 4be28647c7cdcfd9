"""Tests for working-set tracking (§IV-D) and the watermark trigger (§III-B)."""

import pytest

from repro.cluster import World, preload_dataset
from repro.core import WssTracker, WssTrackerConfig, WatermarkTrigger
from repro.core.trigger import WatermarkConfig, select_vms_to_migrate
from repro.sim import Simulator
from repro.util import MiB
from repro.workloads import KeyValueWorkload


def build(dataset_mib=8, reservation_mib=24, seed=0, tracker_cfg=None,
          max_reservation_mib=28):
    w = World(dt=0.25, seed=seed, net_bandwidth_bps=50e6)
    w.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    w.add_client_host()
    vm = w.add_vm("vm1", 32 * MiB, "h1")
    dev = w.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w.hosts["h1"].place_vm(vm, reservation_mib * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), dataset_mib * MiB)
    wl = KeyValueWorkload(vm, w.network, "client", w.manager_of, w.recorder,
                          w.rng("wl"), dataset_bytes=dataset_mib * MiB,
                          sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    cfg = tracker_cfg or WssTrackerConfig(min_reservation_bytes=2 * MiB)
    tracker = WssTracker(w.sim, "vm1", lambda: w.manager_of(vm.host),
                         w.recorder, config=cfg,
                         max_reservation_bytes=max_reservation_mib * MiB)
    return w, vm, wl, tracker


def reservation(w):
    return w.manager_of("h1").binding("vm1").cgroup.reservation_bytes


def test_reservation_shrinks_toward_working_set():
    w, vm, wl, tracker = build(dataset_mib=8, reservation_mib=24)
    w.run(until=120.0)
    # 8 MiB working set: the reservation should have come down near it
    assert reservation(w) < 14 * MiB
    assert reservation(w) >= 2 * MiB


def test_reservation_oscillates_near_wss_not_below_floor():
    cfg = WssTrackerConfig(min_reservation_bytes=2 * MiB,
                           stable_samples=1000)  # stay in fast mode
    w, vm, wl, tracker = build(dataset_mib=8, reservation_mib=12,
                               tracker_cfg=cfg)
    w.run(until=200.0)
    res = reservation(w)
    # hugging the 8 MiB working set: within alpha/beta band, not collapsed
    assert 5 * MiB < res < 13 * MiB


def test_reservation_grows_under_swap_pressure():
    w, vm, wl, tracker = build(dataset_mib=16, reservation_mib=4)
    w.run(until=60.0)
    assert reservation(w) > 4 * MiB


def test_tracker_respects_max_reservation():
    w, vm, wl, tracker = build(dataset_mib=16, reservation_mib=4,
                               max_reservation_mib=6)
    w.run(until=120.0)
    assert reservation(w) <= 6 * MiB


def test_tracker_switches_to_slow_mode_when_stable():
    w, vm, wl, tracker = build(dataset_mib=8, reservation_mib=9)
    assert tracker.in_fast_mode
    w.run(until=300.0)
    assert not tracker.in_fast_mode


def test_tracker_records_series():
    w, vm, wl, tracker = build()
    w.run(until=30.0)
    assert w.recorder.has("vm1.reservation")
    assert w.recorder.has("vm1.swap_rate")


def test_tracker_stop():
    w, vm, wl, tracker = build()
    w.run(until=10.0)
    tracker.stop()
    before = reservation(w)
    w.run(until=40.0)
    assert reservation(w) == before


def test_tracker_estimated_wss():
    w, vm, wl, tracker = build()
    w.run(until=60.0)
    assert tracker.estimated_wss_bytes() == reservation(w)


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        WssTrackerConfig(alpha=1.2)
    with pytest.raises(ValueError):
        WssTrackerConfig(beta=0.9)
    with pytest.raises(ValueError):
        WssTrackerConfig(tau_bps=0)


# -- selection -----------------------------------------------------------------

def test_select_none_needed():
    assert select_vms_to_migrate({"a": 10, "b": 10}, target_bytes=25) == []


def test_select_fewest_largest_first():
    wss = {"a": 10.0, "b": 30.0, "c": 20.0}
    # total 60, target 35: removing b (30) is enough
    assert select_vms_to_migrate(wss, 35.0) == ["b"]


def test_select_multiple():
    wss = {"a": 10.0, "b": 30.0, "c": 20.0}
    # target 12: need b and c out
    assert select_vms_to_migrate(wss, 12.0) == ["b", "c"]


def test_select_deterministic_ties():
    wss = {"b": 10.0, "a": 10.0, "c": 10.0}
    assert select_vms_to_migrate(wss, 21.0) == ["a"]


def test_select_all_if_needed():
    wss = {"a": 5.0, "b": 5.0}
    assert select_vms_to_migrate(wss, 0.0) == ["a", "b"]


# -- watermark trigger ------------------------------------------------------------

def make_trigger(wss_values, usable=100.0, high=0.9, low=0.7):
    sim = Simulator()
    calls = []
    state = {"wss": dict(wss_values)}
    trig = WatermarkTrigger(
        sim, usable, wss_of=lambda: state["wss"],
        migrate=lambda names: calls.append(list(names)),
        config=WatermarkConfig(high_watermark=high, low_watermark=low,
                               check_interval_s=1.0))
    return sim, trig, calls, state


def test_trigger_fires_above_high_watermark():
    sim, trig, calls, state = make_trigger({"a": 50.0, "b": 45.0})
    sim.run(until=2.0)
    assert calls == [["a"]]  # removing a (50) brings 95 -> 45 < 70
    assert trig.trigger_count == 1


def test_trigger_quiet_below_high_watermark():
    sim, trig, calls, state = make_trigger({"a": 40.0, "b": 45.0})
    sim.run(until=5.0)
    assert calls == []


def test_trigger_does_not_refire_until_rearmed():
    sim, trig, calls, state = make_trigger({"a": 50.0, "b": 45.0})
    sim.run(until=5.0)
    assert len(calls) == 1
    trig.rearm()
    sim.run(until=8.0)
    assert len(calls) == 2


def test_trigger_stop():
    sim, trig, calls, state = make_trigger({"a": 95.0})
    trig.stop()
    sim.run(until=5.0)
    assert calls == []


def test_trigger_validation():
    with pytest.raises(ValueError):
        WatermarkConfig(high_watermark=0.5, low_watermark=0.8)
    sim = Simulator()
    with pytest.raises(ValueError):
        WatermarkTrigger(sim, 0.0, lambda: {}, lambda names: None)

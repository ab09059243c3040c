"""PT driver: snapshots, breakpoints, overhead accounting, stats."""

from repro.ir import parse_module
from repro.pt import PTDriver, TraceConfig
from repro.pt.driver import overhead_fraction
from repro.sim import Machine, RandomScheduler

SRC = """
module t
global g: i64 = 0
func worker(n: i64) -> void {
entry:
  %i = alloca i64
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = cmp lt %iv, %n
  cbr %c, body, done
body:
  delay 50000
  store %iv, @g    @ w.c:10
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  ret
}
func main(n: i64) -> void {
entry:
  %t = spawn @worker(%n)
  join %t
  ret
}
"""


def _module():
    return parse_module(SRC)


def test_snapshot_contains_all_threads():
    m = _module()
    driver = PTDriver()
    machine = Machine(m, trace_driver=driver)
    machine.run("main", (3,))
    snap = driver.take_snapshot("x", machine.thread_positions(), machine.clock.now)
    assert set(snap.buffers) == {1, 2}
    assert all(len(b) > 0 for b in snap.buffers.values())


def test_first_snapshot_wins():
    m = _module()
    driver = PTDriver()
    machine = Machine(m, trace_driver=driver)
    machine.run("main", (2,))
    s1 = driver.take_snapshot("first", machine.thread_positions(), 10)
    s2 = driver.take_snapshot("second", machine.thread_positions(), 20)
    assert s1 is s2
    assert driver.snapshot.reason == "first"


def test_breakpoint_snapshot_at_pc():
    m = _module()
    target = next(
        i.uid for i in m.instructions() if i.loc and i.loc.line == 10
    )
    driver = PTDriver()
    machine = Machine(m, trace_driver=driver)
    driver.arm_breakpoint(machine, target)
    machine.run("main", (3,))
    assert driver.snapshot is not None
    assert driver.snapshot.reason == "breakpoint"
    # the triggering thread was stopped exactly at the PC
    assert driver.snapshot.positions[2] == target


def test_breakpoint_skip_count():
    m = _module()
    target = next(i.uid for i in m.instructions() if i.loc and i.loc.line == 10)
    driver = PTDriver()
    machine = Machine(m, trace_driver=driver)
    driver.arm_breakpoint(machine, target, skip=2)
    machine.run("main", (3,))
    # fired on the 3rd (last) execution: later snapshot time than skip=0
    assert driver.snapshot is not None
    d0 = PTDriver()
    m0 = Machine(_module(), trace_driver=d0)
    d0.arm_breakpoint(m0, target, skip=0)
    m0.run("main", (3,))
    assert driver.snapshot.time > d0.snapshot.time


def test_breakpoint_skip_past_all_hits_means_no_snapshot():
    m = _module()
    target = next(i.uid for i in m.instructions() if i.loc and i.loc.line == 10)
    driver = PTDriver()
    machine = Machine(m, trace_driver=driver)
    driver.arm_breakpoint(machine, target, skip=99)
    machine.run("main", (3,))
    assert driver.snapshot is None


def test_tracing_overhead_positive_but_small():
    m = _module()
    base = Machine(m, scheduler=RandomScheduler(1)).run("main", (5,))
    m2 = _module()
    driver = PTDriver()
    traced = Machine(m2, scheduler=RandomScheduler(1), trace_driver=driver).run(
        "main", (5,)
    )
    frac = overhead_fraction(traced.duration, base.duration)
    assert 0.0 < frac < 0.05  # ~1% regime


def test_stats_per_thread():
    m = _module()
    driver = PTDriver()
    machine = Machine(m, trace_driver=driver)
    machine.run("main", (4,))
    stats = driver.stats()
    assert set(stats) == {1, 2}
    worker = stats[2]
    assert worker.tnt_bits >= 5  # loop branches
    assert worker.timing_packets > 0
    assert worker.total_bytes > 0
    assert 0 <= worker.timing_fraction() <= 1


def test_custom_buffer_size_respected():
    cfg = TraceConfig(buffer_size=8 * 1024)
    m = _module()
    driver = PTDriver(cfg)
    machine = Machine(m, trace_driver=driver)
    machine.run("main", (3,))
    for enc in driver.encoders.values():
        assert enc.ring.capacity == 8 * 1024


def test_trace_config_validation():
    import pytest

    with pytest.raises(ValueError):
        TraceConfig(buffer_size=16)
    with pytest.raises(ValueError):
        TraceConfig(mtc_period_ns=0)
    with pytest.raises(ValueError):
        TraceConfig(psb_interval_bytes=3)


def test_snapshot_decodes_at_the_period_it_was_traced_with():
    m = _module()
    store_uid = next(i.uid for i in m.instructions() if i.loc is not None)
    driver = PTDriver(TraceConfig(mtc_period_ns=8192))
    machine = Machine(m, trace_driver=driver, watch_uids={store_uid})
    result = machine.run("main", (3,))
    snap = driver.take_snapshot("x", machine.thread_positions(), machine.clock.now)
    assert snap.mtc_period_ns == 8192
    truth = [ev.time for ev in result.event_log]
    traces = snap.decode(m)
    stores = [d for t in traces.values() for d in t.instructions if d.uid == store_uid]
    assert len(stores) == len(truth) == 3
    assert all(d.t_lo <= time <= d.t_hi for d, time in zip(stores, truth))
    # the period is still sideband: an explicit one overrides the record
    wrong = snap.decode(m, mtc_period_ns=4096)

    def intervals(decoded):
        return [
            [d.interval() for d in decoded[tid].instructions]
            for tid in sorted(decoded)
        ]

    def timing(decoded):
        return [decoded[tid].timing for tid in sorted(decoded)]

    assert intervals(wrong) != intervals(traces)
    assert timing(wrong) != timing(traces)


LIVE_SRC = """
module live
global g: i64 = 0
func worker() -> void {
entry:
  delay 50000
  store 1, @g    @ w.c:20
  delay 50000
  ret
}
func main() -> void {
entry:
  %a = spawn @worker()
  %b = spawn @worker()
  join %a
  join %b
  ret
}
"""


def test_live_threads_counts_started_unfinished_threads():
    # the delay charge's per-thread buffer-management term (Figure 9)
    # reads driver.live_threads through the machine
    m = parse_module(LIVE_SRC)
    after_delay = next(i.uid for i in m.instructions() if i.loc and i.loc.line == 20)
    driver = PTDriver()
    machine = Machine(m, scheduler=RandomScheduler(0), trace_driver=driver)
    seen = []
    machine.breakpoints[after_delay] = lambda mach, thread, instr: seen.append(
        (thread.tid, driver.live_threads)
    )
    result = machine.run("main")
    assert result.outcome == "success"
    # both hits come while main and the other worker are still alive
    assert sorted(tid for tid, _ in seen) == [2, 3]
    assert [live for _, live in seen] == [3, 3]
    assert driver.live_threads == 0
    assert set(driver.encoders) == set(machine.threads) == {1, 2, 3}
    for tid, thread in machine.threads.items():
        assert thread.trace is driver.encoders[tid]
    # each worker delay spans 12+ MTC boundaries, the ticks the
    # buffer-management term is charged for
    boundaries = 50000 // driver.config.mtc_period_ns
    for tid in (2, 3):
        assert driver.encoders[tid].stats.timing_packets >= 2 * boundaries

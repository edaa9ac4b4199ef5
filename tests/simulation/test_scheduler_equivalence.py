"""The default and heap schedulers are bit-for-bit equivalent.

The default lane (a heap for the future, a FIFO for the present) only
counts if it is *invisible*: identical event processing order, identical
RNG draw order, identical timestamps, identical outcomes — across
everything the repo can express.  Four layers of evidence:

* randomized kernel-level scripts (mixed timeouts, races, joins,
  failures, interrupts, zero delays, far-future timers) traced on both
  schedulers;
* same-instant routing cases, each aimed at a way an event can reach
  the present (a trigger, ``timeout(0)``, a delay lost to float
  rounding, work queued between runs, ``run(until=...)`` and ``step()``
  stopping mid-instant, an interrupt or kill), with ``peek()`` and the
  pending count read along the way;
* the kernel's input checks, which must refuse the same things on both;
* the fuzz corpus: full-stack executions whose strict digests
  (records + timestamps + latencies + samples + verdicts) must match
  between schedulers — the same property the fuzz battery's
  ``metamorphic/scheduler`` check enforces on every fuzzed case.
"""

import random
import re

import pytest

from repro.errors import ProcessKilled
from repro.fuzz import FuzzGenerator, execute_case
from repro.simulation import Simulator
from repro.simulation.events import Timeout
from repro.simulation.kernel import SCHEDULERS, _HeapSimulator
from repro.simulation.process import Interrupt

#: Fixed master seeds naming the reproducible fuzz corpora CI smokes.
CORPUS_SEEDS = (0, 21)
CASES_PER_SEED = 6


def _trace_scenario(sim, script_seed):
    """Run one randomized multi-process scenario; return its trace.

    Every trace entry carries ``sim.now`` plus a draw from a *shared*
    RNG stream, so any difference in cross-process interleaving shows
    up even when per-process behaviour happens to match.
    """
    script = random.Random(script_seed)
    trace = []
    shared = sim.rng("shared")

    def sleeper(name, delays):
        for delay in delays:
            yield sim.timeout(delay)
            trace.append(("sleep", name, sim.now, shared.random()))

    def racer(name, iters, budget):
        for i in range(iters):
            response = sim.event()
            deadline = sim.timeout(budget)
            if shared.random() < 0.5:
                response.succeed(i)
            result = yield sim.any_of([response, deadline])
            trace.append(("race", name, sim.now, response in result))

    def joiner(name, delays):
        result = yield sim.all_of([sim.timeout(d) for d in delays])
        trace.append(("join", name, sim.now, sorted(result.values(), key=str)))

    def failer(name, delay):
        yield sim.timeout(delay)
        trace.append(("fail", name, sim.now))
        raise RuntimeError(name)

    def supervisor(name, child):
        try:
            value = yield child
            trace.append(("sup-ok", name, sim.now, value))
        except RuntimeError as exc:
            trace.append(("sup-caught", name, sim.now, str(exc)))

    def interrupter(name, victim, after):
        yield sim.timeout(after)
        if victim.is_alive:
            victim.interrupt(cause=name)
            trace.append(("intr", name, sim.now))

    def patient(name, nap):
        try:
            yield sim.timeout(nap)
            trace.append(("patient-done", name, sim.now))
        except Interrupt as exc:
            trace.append(("patient-intr", name, sim.now, exc.cause))

    for pid in range(script.randint(6, 14)):
        kind = script.choice(["sleep", "race", "join", "fail", "patient"])
        if kind == "sleep":
            delays = [
                script.choice([0.0, 0.1, 0.5, 0.5, 1.0, 2.0, 300.0, 4000.0])
                for _ in range(script.randint(1, 6))
            ]
            sim.process(sleeper(f"s{pid}", delays))
        elif kind == "race":
            sim.process(
                racer(f"r{pid}", script.randint(1, 5), script.choice([0.5, 2.0]))
            )
        elif kind == "join":
            delays = [script.choice([0.0, 0.5, 1.5, 270.0]) for _ in range(3)]
            sim.process(joiner(f"j{pid}", delays))
        elif kind == "fail":
            child = sim.process(failer(f"f{pid}", script.choice([0.5, 1.0, 350.0])))
            sim.process(supervisor(f"v{pid}", child))
        else:
            victim = sim.process(patient(f"p{pid}", script.choice([1.0, 500.0])))
            sim.process(interrupter(f"i{pid}", victim, script.choice([0.5, 2.0])))

    sim.run()
    return trace


class TestKernelTraceEquivalence:
    @pytest.mark.parametrize("script_seed", range(12))
    def test_randomized_scenarios_trace_identically(self, script_seed):
        default = Simulator(seed=script_seed, strict=False, scheduler="default")
        heap = Simulator(seed=script_seed, strict=False, scheduler="heap")
        left = _trace_scenario(default, script_seed)
        right = _trace_scenario(heap, script_seed)
        assert left == right
        assert default.now == heap.now
        assert [repr(ev.value) for ev in default.unhandled_failures] == [
            repr(ev.value) for ev in heap.unhandled_failures
        ]

    def test_run_until_slicing_is_equivalent(self):
        """Slice one scheduler's run into many run(until=...) windows —
        exactly how the campaign runner drives deployments — and compare
        against the other scheduler's single uninterrupted run."""
        sliced = Simulator(seed=11, strict=False, scheduler="default")
        straight = Simulator(seed=11, strict=False, scheduler="heap")

        def drive_sliced(sim):
            trace = _start_mixed(sim)
            while sim.peek() != float("inf"):
                sim.run(until=sim.now + 0.75)
            return trace

        def drive_straight(sim):
            trace = _start_mixed(sim)
            sim.run()
            return trace

        left, right = drive_sliced(sliced), drive_straight(straight)
        assert left == right

    def test_fifo_tie_break_matches_heap(self):
        """A same-timestamp storm keeps strict schedule order, like the
        heap's sequence counter."""
        default = Simulator(scheduler="default")
        heap = Simulator(scheduler="heap")
        for sim in (default, heap):
            order = []
            for tag in range(50):
                ev = sim.event()
                ev.add_callback(lambda _e, t=tag, o=order: o.append(t))
                ev.succeed()
                sim.timeout(0.0, tag).add_callback(
                    lambda e, o=order: o.append(("t", e.value))
                )
            sim.run()
            sim._order = order
        assert default._order == heap._order

    def test_scheduler_dispatch_and_default(self):
        assert SCHEDULERS == ("default", "heap")
        assert Simulator().scheduler == "default"
        heap = Simulator(scheduler="heap")
        assert heap.scheduler == "heap"
        assert isinstance(heap, _HeapSimulator)
        with pytest.raises(Exception):
            Simulator(scheduler="wheel-of-fortune")


def _start_mixed(sim):
    trace = []

    def worker(wid):
        for i in range(4):
            yield sim.timeout(0.3 + 0.2 * ((wid + i) % 3))
            trace.append((wid, i, sim.now))
        if wid % 3 == 0:
            response = sim.event()
            result = yield sim.any_of([response, sim.timeout(1.0)])
            trace.append((wid, "race", sim.now, response in result))

    for wid in range(8):
        sim.process(worker(wid))
    return trace


def _pending(sim):
    """The pending count ``repr(sim)`` reports."""
    return int(re.search(r"pending=(\d+)", repr(sim)).group(1))


def _observer(sim, trace):
    """``note(tag)`` appends what the clock and the queue look like now."""

    def note(tag):
        trace.append((tag, sim.now, sim.peek(), _pending(sim)))

    return note


def _logged(note, tag, event):
    event.add_callback(lambda _ev: note(tag))
    return event


def _zero_timeout_after_trigger(sim, note):
    _logged(note, "tied-timer", sim.timeout(1.0))

    def flow():
        yield sim.timeout(1.0)
        _logged(note, "trigger", sim.event()).succeed()
        zero = _logged(note, "zero", sim.timeout(0))
        _logged(note, "trigger-2", sim.event()).succeed()
        note("queued")
        yield zero
        note("resumed")

    sim.process(flow())
    sim.run()


def _schedule_at_now(sim, note):
    # ``_schedule_at(now)`` is how an empty condition and a directly
    # constructed zero timeout reach the present.
    _logged(note, "tied-timer", sim.timeout(1.0))

    def flow():
        yield sim.timeout(1.0)
        _logged(note, "trigger", sim.event()).succeed()
        _logged(note, "empty-any", sim.any_of([]))
        _logged(note, "direct-zero", Timeout(sim, 0))
        _logged(note, "empty-all", sim.all_of([]))
        _logged(note, "trigger-2", sim.event()).succeed()
        note("queued")

    sim.process(flow())
    sim.run()


def _delay_absorbed_by_rounding(sim, note):
    sim.run(until=1e17)
    assert sim.now + 1.0 == sim.now  # the delay vanishes in the sum
    _logged(note, "absorbed", sim.timeout(1.0))
    _logged(note, "trigger", sim.event()).succeed()
    _logged(note, "zero", sim.timeout(0))
    _logged(note, "next-float", sim.timeout(16.0))
    note("queued")

    def flow():
        yield sim.timeout(1.0)
        note("flow-absorbed")
        _logged(note, "absorbed-again", sim.timeout(2.0))

    sim.process(flow())
    sim.run()


def _triggers_between_runs(sim, note):
    _logged(note, "first", sim.timeout(1.0))
    _logged(note, "later", sim.timeout(3.0))
    sim.run(until=2.0)
    note("between")
    _logged(note, "trigger", sim.event()).succeed()
    _logged(note, "zero", sim.timeout(0))
    _logged(note, "one", sim.timeout(1.0))
    _logged(note, "trigger-2", sim.event()).succeed()
    note("queued")
    sim.run(until=2.0)
    note("drained-now")
    sim.run()


def _run_until_lands_on_a_timestamp(sim, note):
    for tag in ("t1-a", "t1-b"):
        _logged(note, tag, sim.timeout(1.0))
    _logged(note, "t3", sim.timeout(3.0))
    sim.run(until=1.0)
    note("stopped")
    _logged(note, "zero", sim.timeout(0))
    _logged(note, "two", sim.timeout(2.0))
    note("queued")
    sim.run()


def _step_leaves_an_instant_half_drained(sim, note):
    for tag in ("a", "b", "c", "d"):
        _logged(note, tag, sim.timeout(1.0))
    _logged(note, "later", sim.timeout(2.0))
    sim.step()
    sim.step()
    note("half-drained")
    _logged(note, "zero", sim.timeout(0))
    _logged(note, "trigger", sim.event()).succeed()
    note("queued")
    sim.run()


def _interrupt_and_kill_mid_instant(sim, note):
    def victim(tag):
        try:
            yield sim.timeout(5.0)
            note(f"{tag}-slept")
        except Interrupt as exc:
            note(f"{tag}-interrupted-{exc.cause}")
            yield sim.timeout(0)
            note(f"{tag}-after-zero")

    def doomed():
        try:
            yield sim.timeout(5.0)
        finally:
            note("doomed-finally")

    def joiner(target):
        try:
            yield target
            note("joined-ok")
        except ProcessKilled:
            note("joined-killed")

    sleeper = sim.process(victim("victim"))
    killed = sim.process(doomed())
    sim.process(joiner(killed))

    def attacker():
        yield sim.timeout(1.0)
        sleeper.interrupt("stop")
        note("interrupted")
        killed.kill()
        note("killed")
        _logged(note, "trigger", sim.event()).succeed()

    _logged(note, "tied-before", sim.timeout(1.0))
    sim.process(attacker())
    _logged(note, "tied-after", sim.timeout(1.0))
    sim.run()


SAME_INSTANT = {
    "zero-timeout-after-trigger": _zero_timeout_after_trigger,
    "schedule-at-now": _schedule_at_now,
    "delay-absorbed-by-rounding": _delay_absorbed_by_rounding,
    "triggers-between-runs": _triggers_between_runs,
    "run-until-on-a-timestamp": _run_until_lands_on_a_timestamp,
    "step-half-drained-then-run": _step_leaves_an_instant_half_drained,
    "interrupt-and-kill-mid-instant": _interrupt_and_kill_mid_instant,
}


class TestSameInstantRouting:
    """Every way onto the present, traced against the heap lane."""

    @pytest.mark.parametrize("case", sorted(SAME_INSTANT))
    def test_same_instant_routing_traces_identically(self, case):
        traces = {}
        for lane in SCHEDULERS:
            sim = Simulator(seed=2, strict=False, scheduler=lane)
            trace = []
            SAME_INSTANT[case](sim, _observer(sim, trace))
            traces[lane] = (trace, sim.now, sim.peek(), _pending(sim))
        assert traces["default"] == traces["heap"]
        assert len(traces["heap"][0]) >= 6

    @pytest.mark.parametrize(
        "case, expected",
        [
            # A lone event at its instant: the next one is later.
            ("lone", (1.0, 5.0, 1)),
            # The first of three at t=1: two are still due.
            ("first-of-several", (1.0, 1.0, 3)),
            # The last of three at t=1: nothing is due any more.
            ("last-of-several", (1.0, 5.0, 1)),
            # A timeout(0) appended mid-instant is due at once.
            ("after-zero-timeout", (1.0, 1.0, 2)),
        ],
    )
    def test_peek_and_pending_from_a_callback(self, case, expected):
        seen = {}
        for lane in SCHEDULERS:
            sim = Simulator(scheduler=lane)
            ties = 1 if case in ("lone", "after-zero-timeout") else 3
            timers = [sim.timeout(1.0) for _ in range(ties)]
            sim.timeout(5.0)
            watched = timers[-1] if case == "last-of-several" else timers[0]
            readings = []

            def read(_ev, sim=sim, readings=readings):
                if case == "after-zero-timeout":
                    sim.timeout(0)
                readings.append((sim.now, sim.peek(), _pending(sim)))

            watched.add_callback(read)
            sim.run()
            (seen[lane],) = readings
        assert seen == {"default": expected, "heap": expected}


@pytest.mark.parametrize("lane", SCHEDULERS)
class TestRefusedInputs:
    """A NaN time would corrupt the clock; both lanes refuse it the way
    they refuse a negative delay, and the clock does not move."""

    def test_nan_timeout_is_refused(self, lane):
        sim = Simulator(scheduler=lane)
        for delay in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="must be >= 0"):
                sim.timeout(delay)
            with pytest.raises(ValueError, match="must be >= 0"):
                Timeout(sim, delay)
        assert sim.peek() == float("inf")
        sim.timeout(1.0)
        sim.run()
        assert sim.now == 1.0

    def test_nan_schedule_time_is_refused(self, lane):
        sim = Simulator(scheduler=lane)
        with pytest.raises(ValueError):
            sim._schedule_at(float("nan"), sim.event())
        assert sim.peek() == float("inf") and sim.now == 0.0


class TestFuzzCorpusEquivalence:
    """Full-stack equivalence across the fuzz corpus's fixed seeds."""

    @pytest.mark.parametrize("master_seed", CORPUS_SEEDS)
    def test_corpus_digests_match_across_schedulers(self, master_seed):
        cases = FuzzGenerator(master_seed).generate(CASES_PER_SEED)
        for case in cases:
            default = execute_case(case, scheduler="default")
            heap = execute_case(case, scheduler="heap")
            assert default.records == heap.records, case.case_id
            assert default.samples == heap.samples, case.case_id
            assert default.verdicts == heap.verdicts, case.case_id
            assert default.digest == heap.digest, case.case_id

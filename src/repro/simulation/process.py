"""Generator-based processes for the simulation kernel.

A *process* is a Python generator that ``yield``-s events; the kernel
resumes it when the yielded event triggers.  Successful events resume
the generator with ``event.value``; failed events throw the exception
into the generator at the ``yield`` site, so ordinary ``try/except``
implements failure handling exactly as it would in real service code.

Processes are themselves events: they trigger when the generator
returns (success, carrying the return value) or raises (failure).  This
lets one process wait for another, and lets tests join on completion.

A process that returns while nobody waits on it — the common case: a
serve process answering one exchange, a fire-and-forget flow — is marked
processed on the spot.  Queueing it would schedule an event that runs
zero callbacks; anyone who joins later finds it already processed and
continues at once.  A *failure* is always queued: the kernel's
unhandled-failure report reads it off the queue.

A live process is a reference cycle (it caches its own bound ``_resume``
so that a resume allocates nothing); a finished one is not.  However the
generator ends — return, exception, ``kill()`` — the process lets go of
that method, so it, its generator and whatever they held are freed by
reference count when the last holder drops them, not by the cycle
collector some thousands of allocations later.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ProcessKilled, SimulationError
from repro.simulation.events import PENDING, SimEvent

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.kernel import Simulator

__all__ = ["Interrupt", "Process"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process
    was interrupted (e.g. ``"deadline"``).  The interrupted process may
    catch the exception and continue, mirroring how a real thread
    handles cancellation.
    """

    def __init__(self, cause: _t.Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> _t.Any:
        """The payload passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(SimEvent):
    """Wraps a generator and steps it through the event loop.

    Created via :meth:`repro.simulation.kernel.Simulator.process`; user
    code rarely instantiates this directly.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: _t.Generator, name: str | None = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if ready).
        self._waiting_on: SimEvent | None = None
        # One bound method for the process's whole life: re-registering
        # after every yield would otherwise allocate a fresh method
        # object per resume, and resumes are the hottest path there is.
        resume = self._resume_cb = self._resume
        # Kick off the process at the current simulation time.  The
        # bootstrap event is deliberately not stored on the process: once
        # its callback has run nothing references it, so the kernel's
        # free list can recycle it.
        bootstrap = sim.event()
        bootstrap.callbacks.append(resume)  # fresh: nothing to check
        bootstrap.succeed()

    # -- public API -------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process raises :class:`SimulationError`;
        interrupting a process that is not currently waiting (it is
        scheduled to resume this instant) is delivered on resume.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        waiting_on = self._waiting_on
        if waiting_on is not None:
            # Detach from the event we were waiting on; its eventual
            # trigger must no longer resume us.
            if waiting_on.callbacks is not None and self._resume_cb in waiting_on.callbacks:
                waiting_on.callbacks.remove(self._resume_cb)
            self._waiting_on = None
        # Deliver the interrupt through a dedicated immediate event.
        interrupt_ev = self.sim.event()
        interrupt_ev.add_callback(self._deliver_interrupt)
        interrupt_ev.defused = True
        interrupt_ev.fail(Interrupt(cause))

    def kill(self) -> None:
        """Forcibly terminate the process with :class:`ProcessKilled`.

        Unlike :meth:`interrupt`, the process cannot catch this to keep
        running: ``GeneratorExit``-style teardown still executes
        ``finally`` blocks.
        """
        if not self.is_alive:
            return
        waiting_on = self._waiting_on
        if waiting_on is not None and waiting_on.callbacks is not None:
            if self._resume_cb in waiting_on.callbacks:
                waiting_on.callbacks.remove(self._resume_cb)
        self._waiting_on = None
        self.generator.close()
        self._resume_cb = None
        self.defused = True
        if self._value is PENDING:
            self.fail(ProcessKilled(f"process {self.name!r} killed"))
            self.defused = True

    # -- kernel plumbing ----------------------------------------------------

    def _deliver_interrupt(self, ev: SimEvent) -> None:
        if not self.is_alive:  # finished in the meantime
            return
        # The interrupt event is always failed, so _resume throws it.
        self._resume(ev)

    def _resume(self, ev: SimEvent) -> None:
        """Advance the generator by one yield (the kernel callback).

        This is the single hottest function in the simulator — every
        event an alive process waits on lands here — so the old
        ``_resume`` -> ``_step`` call pair is collapsed into one frame
        and the tail re-registration inlines ``add_callback``.
        """
        self._waiting_on = None
        try:
            if ev._ok:
                target = self.generator.send(ev._value)
            else:
                ev.defused = True
                target = self.generator.throw(ev._value)
        except StopIteration as stop:
            self._resume_cb = None  # finished: no longer a cycle
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody is waiting: processed here and now, without an
                # event whose callbacks list is empty.  (Same on both
                # scheduler lanes; failures below always queue.)
                self._ok = True
                self._value = stop.value
                self.callbacks = None
            return
        except Exception as exc:  # noqa: BLE001 - crashed, or an Interrupt escaped
            self._resume_cb = None
            self.fail(exc)
            return
        if not isinstance(target, SimEvent):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield SimEvent"
            )
            self._resume_cb = None
            self.generator.close()
            self.fail(error)
            return
        if target.sim is not self.sim:
            error = SimulationError(
                f"process {self.name!r} yielded an event from a different Simulator"
            )
            self._resume_cb = None
            self.generator.close()
            self.fail(error)
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:  # already processed: resume immediately
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self.ok else "failed")
        return f"<Process {self.name!r} {state}>"

"""Every workload's geometry on the simulated Xeon Phi fabric.

``sim_time_ms`` is the simulated elapsed time of one transform of the
workload's geometry on :class:`repro.SimCluster` (P ranks of the modelled
Xeon Phi, the Stampede transport).  It is deterministic, so its unit is
``sim_ms``: simulated, not wall-clock, milliseconds.  On ``dist_sim`` the
simulated run is the workload itself; on the others it is one extra
transform of the same geometry after the measured loop.
"""

from __future__ import annotations

import numpy as np

from common import now

#: The Communicator's collectives; the benchmark times calls into them.
COLLECTIVES = ("alltoall", "ring_exchange", "allgather", "bcast", "barrier")


class CommTimer:
    """Wall seconds spent inside the Communicator's collectives.

    Installed as instance attributes over the bound methods; nested calls
    (the two-level all-to-all calls ``alltoall`` per group) count once.
    """

    def __init__(self, comm):
        self.seconds = 0.0
        self._depth = 0
        for name in COLLECTIVES:
            setattr(comm, name, self._wrap(getattr(comm, name)))

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += now() - t0
        return timed


class SimRun:
    """A DistributedSoiFFT on its own SimCluster and metrics registry."""

    def __init__(self, params, topology=None):
        from repro import DistributedSoiFFT, SimCluster
        from repro.telemetry import MetricsRegistry
        self.cluster = SimCluster(params.n_procs, topology=topology,
                                  metrics=MetricsRegistry())
        self.dist = DistributedSoiFFT(self.cluster, params)
        self.comm_timer: CommTimer | None = None
        self.restart()

    def restart(self) -> None:
        """Forget the calls so far (counts restart from here)."""
        self.transforms = 0
        #: wall seconds of each transform (the distributed call alone)
        self.walls: list[float] = []
        self.sim_seconds: list[float] = []
        self.sim_stages = {"conv": 0.0, "fft": 0.0, "mpi": 0.0}
        self._base = {name: self.counter(name)
                      for name in ("wire_messages", "wire_bytes", "retries")}
        if self.comm_timer is not None:
            self.comm_timer.seconds = 0.0

    def trace(self) -> None:
        """Time the collectives from now on (and restart the counts)."""
        self.comm_timer = CommTimer(self.cluster.comm)
        self.restart()

    def __call__(self, parts: list[np.ndarray]) -> list[np.ndarray]:
        """One transform from zeroed clocks; accumulates simulated time."""
        cl = self.cluster
        cl.reset()
        t0 = now()
        out = self.dist(parts)
        self.walls.append(now() - t0)
        self.transforms += 1
        self.sim_seconds.append(cl.elapsed)
        slowest = int(np.argmax(cl.clocks))
        by_label = cl.trace.breakdown_by_label(rank=slowest)
        self.sim_stages["conv"] += by_label.get("convolution", 0.0)
        self.sim_stages["fft"] += by_label.get("local FFT", 0.0)
        self.sim_stages["mpi"] += cl.trace.total(category="mpi", rank=slowest)
        return out

    def counter(self, name: str) -> float:
        c = self.cluster.metrics.get(f"repro_cluster_{name}_total")
        return c.value if c is not None else 0.0

    def per_call(self, name: str) -> float:
        return (self.counter(name) - self._base[name]) / max(self.transforms, 1)

    def put(self, res) -> None:
        """sim_time_ms always; once traced, the comm.*, driver.ms and
        sim.* layer metrics per transform since :meth:`trace`."""
        k = max(self.transforms, 1)
        res.put("sim_time_ms", 1e3 * float(np.median(self.sim_seconds)),
                "sim_ms")
        if self.comm_timer is None:
            return
        res.put("comm.msgs", self.per_call("wire_messages"), "count")
        res.put("comm.bytes", self.per_call("wire_bytes"), "bytes")
        res.put("comm.retries", self.per_call("retries"), "count")
        res.put("comm.ms", 1e3 * self.comm_timer.seconds / k, "ms")
        res.put("driver.ms",
                1e3 * (sum(self.walls) - self.comm_timer.seconds) / k, "ms")
        for key, secs in self.sim_stages.items():
            res.put(f"sim.{key}_ms", 1e3 * secs / k, "sim_ms")

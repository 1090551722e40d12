"""The four benchmark workloads: inputs, workflows and output checks.

Each workload is one executed LowFive workflow. ``prepare`` builds its
inputs from a seed (the seed changes the values written, never the
shapes), ``build`` wires a fresh workflow over those inputs, and
``failed_operations`` compares what the consumer ranks read with values
the benchmark recomputes itself -- it never trusts the program's own
validators. ``property_problems`` checks the run-level invariants.

An *operation* is one consumer rank reading one dataset in one workflow
run (fig5) or one epoch (stream). A mismatch fails that operation; a
run that raises fails every operation of the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.h5.selection import HyperslabSelection
from repro.lowfive import DistMetadataVOL, StreamConfig
from repro.lowfive.config import CostConfig
from repro.perfmodel.transports import THETA_KNL
from repro.pfs import PFSStore
from repro.synth import (
    SyntheticWorkload,
    consumer_grid_selection,
    consumer_particle_selection,
    producer_grid_selection,
    producer_particle_selection,
)
from repro.workflow import Workflow

#: Real-time seconds a rank may block before the engine declares a
#: deadlock. A healthy run takes a few seconds, so this only bounds how
#: long a wedged run can hold the benchmark.
ENGINE_TIMEOUT = 30.0

#: float32 has a 24-bit significand: particle ids wrap at this modulus
#: so every encoded value is exact.
PARTICLE_MOD = 1 << 23


@dataclass(frozen=True)
class Spec:
    """One workload: a fig5 transfer or a multi-epoch stream.

    ``expect`` is ``(sim_s, messages, wire_bytes)`` of a correct run;
    these depend on shapes only, so every seed must reproduce them
    bit for bit. ``None`` skips the comparison (scaled-down specs in
    the tests). ``one_cpu`` confines the run to one CPU: with 32 rank
    threads on two virtual CPUs, cross-CPU wake-ups make the wall time
    follow the hypervisor's scheduling rather than the program.
    """

    name: str
    kind: str  # "fig5" or "stream"
    nprocs: int
    mode: str = "memory"  # fig5: "memory" or "file"
    elems: int = 0  # fig5: grid points and particles per producer
    epochs: int = 0  # stream
    shape: tuple = ()  # stream grid
    expect: tuple | None = None
    one_cpu: bool = False

    def split(self) -> tuple[int, int]:
        """(producer ranks, consumer ranks)."""
        if self.kind == "fig5":
            return SyntheticWorkload.split_procs(self.nprocs)
        nprod = self.nprocs // 2
        return nprod, self.nprocs - nprod


WORKLOADS = {
    s.name: s for s in (
        Spec("fig5-mem-ranks", "fig5", 32, mode="memory", elems=6_000,
             expect=(0.9054187350897257, 584, 2922612), one_cpu=True),
        Spec("fig5-mem-bulk", "fig5", 4, mode="memory", elems=600_000,
             expect=(0.8566728878762508, 29, 35998441)),
        Spec("fig5-file-bulk", "fig5", 4, mode="file", elems=600_000,
             expect=(4.138375069010163, 1, 76)),
        Spec("stream-epochs", "stream", 32, epochs=8, shape=(24, 16),
             expect=(7.201760953733585, 3984, 361504), one_cpu=True),
    )
}


# -- independent value model --------------------------------------------------


def box_of(sel) -> tuple[slice, ...]:
    """Per-dimension slices of a solid hyperslab, read from its
    start/count (not from the program's coordinate expansion)."""
    if not isinstance(sel, HyperslabSelection) or any(
            s != 1 for s in sel.stride) or any(b != 1 for b in sel.block):
        raise ValueError(f"expected a solid hyperslab, got {sel!r}")
    return tuple(slice(s, s + c) for s, c in zip(sel.start, sel.count))


def grid_block(shape, box, offset: int) -> np.ndarray:
    """Flat row-major values of ``box``: global index plus ``offset``."""
    axes = [np.arange(s.start, s.stop, dtype=np.uint64) for s in box]
    strides = np.cumprod((1,) + tuple(shape[:0:-1]))[::-1]
    total = np.uint64(offset)
    for d, ax in enumerate(axes):
        shp = [1] * len(axes)
        shp[d] = ax.size
        total = total + (ax * np.uint64(strides[d])).reshape(shp)
    return np.ascontiguousarray(total, dtype=np.uint64).reshape(-1)


def particle_rows(rows: slice, offset: int) -> np.ndarray:
    """Flat values of particle rows: ``(e, e+1/4, e+1/2)`` per row with
    ``e = (row + offset) mod 2**23``."""
    ids = (np.arange(rows.start, rows.stop, dtype=np.int64) + offset) \
        % PARTICLE_MOD
    vals = ids.astype(np.float32)[:, None] + np.array(
        [0.0, 0.25, 0.5], dtype=np.float32)
    return vals.astype(np.float32).reshape(-1)


def _seed_offsets(seed: int) -> tuple[int, int]:
    rng = np.random.default_rng(seed)
    return int(rng.integers(0, 1 << 40)), int(rng.integers(0, PARTICLE_MOD))


def _covers_once(shape, boxes) -> bool:
    count = np.zeros(shape, dtype=np.uint8)
    for b in boxes:
        count[b] += 1
    return bool((count == 1).all())


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run needs, generated once per seed before timing."""

    spec: Spec
    nprod: int
    ncons: int
    shape: tuple
    payload_bytes: int
    producer_values: list  # per producer rank (fig5: (grid, parts))
    expected: list  # per consumer rank: list over operations
    covered: bool  # consumer selections partition the data exactly


def prepare(spec: Spec, seed: int) -> Inputs:
    """Generate the inputs of ``spec`` for ``seed``."""
    nprod, ncons = spec.split()
    if spec.kind == "fig5":
        return _prepare_fig5(spec, seed, nprod, ncons)
    return _prepare_stream(spec, seed, nprod, ncons)


def _prepare_fig5(spec, seed, nprod, ncons) -> Inputs:
    wl = SyntheticWorkload(spec.elems, spec.elems)
    shape = wl.grid_shape(nprod)
    npart = wl.total_particles(nprod)
    goff, poff = _seed_offsets(seed)
    produced = []
    for r in range(nprod):
        gbox = box_of(producer_grid_selection(shape, r, nprod))
        pbox = box_of(producer_particle_selection(npart, r, nprod))
        produced.append((grid_block(shape, gbox, goff),
                         particle_rows(pbox[0], poff)))
    expected, gboxes, prows = [], [], []
    for r in range(ncons):
        gbox = box_of(consumer_grid_selection(shape, r, ncons))
        pbox = box_of(consumer_particle_selection(npart, r, ncons))
        gboxes.append(gbox)
        prows.append(pbox)
        expected.append([grid_block(shape, gbox, goff),
                         particle_rows(pbox[0], poff)])
    covered = (_covers_once(shape, gboxes)
               and _covers_once((npart, 3), prows))
    return Inputs(spec, nprod, ncons, shape, wl.total_bytes(nprod),
                  produced, expected, covered)


def epoch_grid(seed: int, epoch: int, shape) -> np.ndarray:
    """The full grid a stream writes in ``epoch``."""
    rng = np.random.default_rng([seed, epoch])
    return rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)


def _prepare_stream(spec, seed, nprod, ncons) -> Inputs:
    shape = tuple(spec.shape)
    grids = [epoch_grid(seed, e, shape) for e in range(spec.epochs)]
    produced = []
    for r in range(nprod):
        box = box_of(producer_grid_selection(shape, r, nprod))
        produced.append([np.ascontiguousarray(g[box]).reshape(-1)
                         for g in grids])
    expected, boxes = [], []
    for r in range(ncons):
        box = box_of(consumer_grid_selection(shape, r, ncons))
        boxes.append(box)
        expected.append([
            hashlib.blake2b(np.ascontiguousarray(g[box]).tobytes(),
                            digest_size=16).hexdigest()
            for g in grids])
    payload = spec.epochs * int(np.prod(shape)) * 8
    return Inputs(spec, nprod, ncons, shape, payload, produced, expected,
                  _covers_once(shape, boxes))


# -- workflows ------------------------------------------------------------------


@dataclass
class Built:
    """A wired workflow plus the store it does file I/O against."""

    workflow: Workflow
    store: PFSStore
    run_kw: dict


def build(inp: Inputs) -> Built:
    """A fresh workflow (and store) over ``inp``."""
    if inp.spec.kind == "fig5":
        return _build_fig5(inp)
    return _build_stream(inp)


def _build_fig5(inp: Inputs) -> Built:
    machine = THETA_KNL
    store = PFSStore()
    shape, mode = inp.shape, inp.spec.mode
    npart = SyntheticWorkload(inp.spec.elems,
                              inp.spec.elems).total_particles(inp.nprod)

    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(
                comm=ctx.comm, under=NativeVOL(store, machine.lustre),
                costs=machine.lf)
            if mode == "memory":
                vol.set_memory("out.h5")
            else:
                vol.set_passthru("out.h5")
            if role == "producer":
                vol.serve_on_close("out.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("out.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        gvals, pvals = inp.producer_values[ctx.rank]
        f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
        grid = f.create_dataset("group1/grid", shape=shape, dtype=h5.UINT64)
        grid.write(gvals, file_select=producer_grid_selection(
            shape, ctx.rank, ctx.size))
        parts = f.create_dataset("group2/particles", shape=(npart, 3),
                                 dtype=h5.FLOAT32)
        parts.write(pvals, file_select=producer_particle_selection(
            npart, ctx.rank, ctx.size))
        f.close()
        return None

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
        gv = f["group1/grid"].read(
            consumer_grid_selection(shape, ctx.rank, ctx.size),
            reshape=False)
        pv = f["group2/particles"].read(
            consumer_particle_selection(npart, ctx.rank, ctx.size),
            reshape=False)
        f.close()
        return [gv, pv]

    wf = Workflow()
    wf.add_task("producer", inp.nprod, producer)
    wf.add_task("consumer", inp.ncons, consumer)
    wf.add_link("producer", "consumer")
    return Built(wf, store, {"model": machine.net})


def _build_stream(inp: Inputs) -> Built:
    spec, shape = inp.spec, inp.shape
    costs = CostConfig(reduction_level=0)  # no wire-side reduction
    store = PFSStore()

    def make_vol(ctx):
        return ctx.singleton("vol", lambda: DistMetadataVOL(
            comm=ctx.comm, under=NativeVOL(store), costs=costs))

    def producer(ctx):
        vol = make_vol(ctx)
        sel = producer_grid_selection(shape, ctx.rank, ctx.size)
        mine = inp.producer_values[ctx.rank]
        cfg = StreamConfig(max_lag=2)
        with ctx.stream_producer("consumer", "sim", vol, cfg) as prod:
            for e in range(spec.epochs):
                with prod.epoch() as f:
                    d = f.create_dataset("grid", shape=shape,
                                         dtype=h5.UINT64)
                    d.write(mine[e], file_select=sel)
        return None

    def consumer(ctx):
        vol = make_vol(ctx)
        sel = consumer_grid_selection(shape, ctx.rank, ctx.size)
        digests = []
        with ctx.stream_consumer("producer", "sim", vol) as cons:
            for ep in cons.epochs():
                with ep:
                    vals = np.asarray(ep.file["grid"].read(
                        sel, reshape=False), dtype=np.uint64)
                    digests.append(hashlib.blake2b(
                        vals.tobytes(), digest_size=16).hexdigest())
        return digests

    wf = Workflow()
    wf.add_task("producer", inp.nprod, producer)
    wf.add_task("consumer", inp.ncons, consumer)
    wf.add_link("producer", "consumer")
    return Built(wf, store, {})


def run_once(built: Built, obs=None):
    """Execute the wired workflow (the timed region)."""
    return built.workflow.run(timeout=ENGINE_TIMEOUT, obs=obs,
                              **built.run_kw)


# -- checks -----------------------------------------------------------------------


def operations(inp: Inputs) -> int:
    """Operations one workflow run attempts."""
    return sum(len(e) for e in inp.expected)


def failed_operations(inp: Inputs, returns) -> int:
    """Operations whose values differ from the recomputed ones.

    ``returns`` is the consumer task's per-rank return list, or ``None``
    when the run raised (every operation failed).
    """
    if returns is None or len(returns) != inp.ncons:
        return operations(inp)
    failed = 0
    for got, want in zip(returns, inp.expected):
        got = list(got) if isinstance(got, (list, tuple)) else []
        for i, w in enumerate(want):
            g = got[i] if i < len(got) else None
            if isinstance(w, str):
                ok = g == w
            else:
                ok = g is not None and np.array_equal(
                    np.asarray(g).reshape(-1), w)
            failed += not ok
    return failed


def property_problems(inp: Inputs, built: Built, res) -> list[str]:
    """Run-level invariants beyond the values (empty list: all hold)."""
    spec, store = inp.spec, built.store
    problems = []
    if not inp.covered:
        problems.append("consumer selections do not cover the data "
                        "exactly once")
    if spec.kind == "fig5" and spec.mode == "file":
        for what, n in (("written", store.bytes_written),
                        ("read", store.bytes_read)):
            if n < inp.payload_bytes:
                problems.append(f"file mode {what} {n} PFS bytes, fewer "
                                f"than the {inp.payload_bytes} B payload")
    elif store.bytes_written or store.bytes_read:
        problems.append(f"memory mode touched the PFS: "
                        f"{store.bytes_written} B written, "
                        f"{store.bytes_read} B read")
    virtual = (res.vtime, res.messages, res.bytes_sent)
    if spec.expect is not None and virtual != tuple(spec.expect):
        problems.append(f"virtual result (sim_s, messages, wire_bytes) "
                        f"= {virtual}, expected {tuple(spec.expect)}")
    return problems


def conservation_problems(res) -> list[str]:
    """Causal conservation of a telemetry-enabled run."""
    rep = res.causal_report()
    if rep.conservation.ok:
        return []
    return [f"causal conservation violated (max residual "
            f"{rep.conservation.max_residual})"]

"""Per-layer tracing for the benchmark's traced run.

:class:`Tracer` wraps public functions of the layers ``simmpi``,
``lowfive``, ``h5``, ``pfs``, ``stream`` and ``diy`` while installed,
and records one span per wrapped call: name, start, end, rank thread,
parent span, wall and CPU self time (``time.thread_time``, so a rank
thread waiting for the interpreter lock is not counted as busy). Spans
stay in memory, in per-thread arrays, until :meth:`Tracer.save` writes
them out. Self time is a span's duration minus its child spans'.

Nothing is patched outside ``install``/``uninstall``;
:func:`unwrapped` confirms that every target is the original object.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

from repro.simmpi.engine import current_world_rank

_COLLECTIVES = ("barrier", "epoch_barrier", "bcast", "gather", "allgather",
                "scatter", "alltoall", "reduce", "allreduce", "scan",
                "exscan", "gatherv", "scatterv", "alltoallv",
                "reduce_scatter", "split", "dup")
_SELECTION = ("coords", "extract", "scatter", "intersect", "translate",
              "bounds", "same_elements")


def _truth(args, res):
    return 1.0 if res else 0.0


def _rows(args, res):
    return float(res.shape[0])


def _nbytes_out(args, res):
    return float(res.nbytes)


def _nbytes_arg1(args, res):
    return float(np.asarray(args[1]).nbytes)


def _len_arg2(args, res):
    return float(len(args[2]))


def _len_out(args, res):
    return float(len(res))


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:Owner.attr`` (or ``module:attr``).

    ``family`` groups functions whose wall time is summed without
    double counting nested calls (only a family's outermost span
    counts); ``measure(args, result)`` gives a per-call value (bytes,
    rows, a 0/1 outcome).
    """

    layer: str
    module: str
    owner: str | None
    attr: str
    family: str
    measure: object = None
    context: bool = False  # returns a context manager: time enter/exit

    @property
    def name(self) -> str:
        own = f"{self.owner}." if self.owner else ""
        return f"{self.module}:{own}{self.attr}"


def _targets() -> list[Target]:
    m = "repro.simmpi.comm"
    t = [Target("simmpi", m, "Comm", "send", "send"),
         Target("simmpi", m, "Comm", "recv", "recv"),
         Target("simmpi", m, "Comm", "probe", "recv"),
         Target("simmpi", "repro.simmpi.request", "Request", "wait", "recv")]
    t += [Target("simmpi", m, "Comm", a, "collective") for a in _COLLECTIVES]
    t += [Target("simmpi", m, "Intercomm", "barrier", "collective"),
          Target("simmpi", m, "Intercomm", "notify_remote", "send")]
    e = "repro.simmpi.engine"
    t += [Target("simmpi", e, "Engine", "wait_on", "sleep"),
          Target("simmpi", e, "Engine", "note_blocked", "bump"),
          Target("simmpi", e, "Engine", "wildcard_safe", "safe", _truth)]
    r = "repro.lowfive.rpc"
    v = "repro.lowfive.vol_dist"
    t += [Target("lowfive", r, "RPCServer", "poll_once", "poll", _truth),
          Target("lowfive", r, "RPCServer", "serve", "serve"),
          Target("lowfive", r, "RPCServer", "serve_until", "serve"),
          Target("lowfive", r, "RPCClient", "call", "rpc"),
          Target("lowfive", r, "RPCClient", "notify", "notify"),
          Target("lowfive", v, "DistMetadataVOL", "dataset_read", "read"),
          Target("lowfive", v, "DistMetadataVOL", "file_open", "open"),
          Target("lowfive", v, "DistMetadataVOL", "file_close", "close"),
          Target("lowfive", "repro.lowfive.vol_metadata", "MetadataVOL",
                 "dataset_write", "write")]
    s = "repro.h5.selection"
    owners = ("Selection", "_SeparableSelection", "AllSelection",
              "NoneSelection", "PointSelection")
    measures = {"coords": ("coords", _rows), "extract": ("copy", _nbytes_out),
                "scatter": ("copy", _nbytes_arg1)}
    for owner in owners:
        for a in _SELECTION:
            fam, meas = measures.get(a, (a, None))
            t.append(Target("h5", s, owner, a, fam, meas))
    n = "repro.h5.native"
    t += [Target("h5", n, "NativeVOL", "dataset_write", "nwrite"),
          Target("h5", n, "NativeVOL", "dataset_read", "nread"),
          Target("h5", n, "NativeVOL", "file_close", "nclose"),
          Target("h5", n, "NativeVOL", "file_create", "nopen"),
          Target("h5", n, "NativeVOL", "file_open", "nopen"),
          Target("h5", "repro.h5.format", None, "encode_file", "format"),
          Target("h5", "repro.h5.format", None, "decode_file", "format"),
          Target("h5", "repro.h5.objects", "DatasetNode", "write", "node"),
          Target("h5", "repro.h5.objects", "DatasetNode", "read", "node"),
          Target("h5", "repro.h5.api", "Dataset", "write", "api"),
          Target("h5", "repro.h5.api", "Dataset", "read", "api"),
          Target("h5", "repro.h5.api", "File", "close", "api")]
    p = "repro.pfs.store"
    t += [Target("pfs", p, "FileHandle", "pwrite", "io", _len_arg2),
          Target("pfs", p, "FileHandle", "pread", "io", _len_out)]
    t += [Target("stream", "repro.stream.producer", "StreamProducer",
                 "epoch", "publish", context=True),
          Target("stream", "repro.stream.consumer", "StreamConsumer",
                 "next_epoch", "acquire")]
    b = "repro.diy.bounds"
    d = "repro.diy.decomposer"
    t += [Target("diy", b, "Bounds", "intersect", "intersect"),
          Target("diy", b, "Bounds", "intersects", "intersect"),
          Target("diy", d, "RegularDecomposer", "blocks_intersecting",
                 "intersect"),
          Target("diy", b, "Bounds", "to_selection", "diy"),
          Target("diy", b, "Bounds", "from_selection", "diy"),
          Target("diy", d, "RegularDecomposer", "block_bounds", "diy"),
          Target("diy", d, "RegularDecomposer", "point_gids", "diy")]
    return t


def _resolve(targets):
    """``(target, holder, raw original)`` for every target the code
    defines (a selection class that inherits a method has no entry)."""
    out = []
    for tg in targets:
        holder = importlib.import_module(tg.module)
        if tg.owner is not None:
            holder = getattr(holder, tg.owner)
        if tg.attr in vars(holder):
            out.append((tg, holder, vars(holder)[tg.attr]))
    return out


#: Every wrapped target with the object it must be outside a traced run.
ORIGINALS = _resolve(_targets())
NAMES = [tg.name for tg, _, _ in ORIGINALS]


def unwrapped() -> bool:
    """True when every target is its original object again."""
    return all(vars(holder).get(tg.attr) is raw
               for tg, holder, raw in ORIGINALS)


class _Buf:
    """One thread's spans, as parallel arrays (indices are per thread)."""

    def __init__(self, rank: int, nfam: int):
        self.rank = rank
        self.name = array("H")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_wall = array("d")
        self.self_cpu = array("d")
        self.top = array("b")
        self.value = array("d")
        self.stack: list = []  # [index, child wall, child cpu]
        self.depth = [0] * nfam


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._bufs: list[_Buf] = []
        self._families = sorted({tg.family for tg, _, _ in ORIGINALS})
        self._installed = False

    # -- recording ------------------------------------------------------------

    def _buf(self) -> _Buf:
        b = getattr(self._tls, "buf", None)
        if b is None:
            try:
                rank = current_world_rank()
            except RuntimeError:
                rank = -1
            b = _Buf(rank, len(self._families))
            self._tls.buf = b
            with self._lock:
                self._bufs.append(b)
        return b

    def _call(self, nid, fam, measure, fn, args, kw):
        b = self._buf()
        depth = b.depth
        i = len(b.name)
        b.name.append(nid)
        b.parent.append(b.stack[-1][0] if b.stack else -1)
        b.top.append(depth[fam] == 0)
        for col in (b.t1, b.self_wall, b.self_cpu, b.value):
            col.append(0.0)
        frame = [i, 0.0, 0.0]
        b.stack.append(frame)
        depth[fam] += 1
        c0 = time.thread_time()
        t0 = time.perf_counter()
        b.t0.append(t0)
        res = done = None
        try:
            res = fn(*args, **kw)
            done = True
            return res
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            depth[fam] -= 1
            b.stack.pop()
            wall, cpu = t1 - t0, c1 - c0
            b.t1[i] = t1
            b.self_wall[i] = wall - frame[1]
            b.self_cpu[i] = cpu - frame[2]
            if b.stack:
                up = b.stack[-1]
                up[1] += wall
                up[2] += cpu
            if measure is not None and done:
                b.value[i] = measure(args, res)

    def _wrap(self, nid, tg, raw):
        fam = self._families.index(tg.family)
        kind = type(raw)
        fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
        call = self._call
        measure = tg.measure
        if tg.context:
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kw):
                return _TimedContext(tracer, nid, fam, fn(*args, **kw))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                return call(nid, fam, measure, fn, args, kw)
        return kind(wrapper) if kind in (classmethod, staticmethod) \
            else wrapper

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Patch every target with its recording wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for nid, (tg, holder, raw) in enumerate(ORIGINALS):
            setattr(holder, tg.attr, self._wrap(nid, tg, raw))
        self._installed = True

    def uninstall(self) -> None:
        """Restore every original object."""
        for tg, holder, raw in ORIGINALS:
            setattr(holder, tg.attr, raw)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as numpy columns.

        ``index`` is a span's entry-order position on its rank thread
        and ``parent`` the index of its parent there (-1 at top level).
        """
        cols: dict[str, list] = {k: [] for k in (
            "name", "rank", "index", "parent", "start", "end",
            "self_wall", "self_cpu", "top", "value")}
        for b in self._bufs:
            n = len(b.name)
            cols["name"].append(np.asarray(b.name, dtype=np.uint16))
            cols["rank"].append(np.full(n, b.rank, dtype=np.int32))
            cols["index"].append(np.arange(n, dtype=np.int64))
            cols["parent"].append(np.asarray(b.parent, dtype=np.int64))
            cols["start"].append(np.asarray(b.t0))
            cols["end"].append(np.asarray(b.t1))
            cols["self_wall"].append(np.asarray(b.self_wall))
            cols["self_cpu"].append(np.asarray(b.self_cpu))
            cols["top"].append(np.asarray(b.top, dtype=np.int8))
            cols["value"].append(np.asarray(b.value))
        return {k: (np.concatenate(v) if v else np.empty(0))
                for k, v in cols.items()}

    @staticmethod
    def save(path: str, spans: dict) -> int:
        """Write ``spans`` to ``path`` (numpy ``.npz``); returns count."""
        np.savez(path, names=np.array(NAMES), **spans)
        return int(spans["name"].size)


class _TimedContext:
    """Times a context manager's enter and exit as two spans of one
    family (the body in between belongs to the caller)."""

    def __init__(self, tracer: Tracer, nid: int, fam: int, cm):
        self._tracer, self._nid, self._fam, self._cm = tracer, nid, fam, cm

    def __enter__(self):
        return self._tracer._call(self._nid, self._fam, None,
                                  self._cm.__enter__, (), {})

    def __exit__(self, *exc):
        return self._tracer._call(self._nid, self._fam, None,
                                  self._cm.__exit__, exc, {})


def span_metrics(spans: dict) -> dict[str, float]:
    """The per-layer metrics that come from the spans alone."""
    name = spans["name"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    top = spans["top"].astype(bool)
    value = spans["value"]
    self_cpu = spans["self_cpu"]
    targets = [tg for tg, _, _ in ORIGINALS]

    def sel(pred):
        ids = [i for i, tg in enumerate(targets) if pred(tg)]
        return np.isin(name, ids)

    def fam(f):
        return sel(lambda tg: tg.family == f)

    def attr(a, owner=None):
        return sel(lambda tg: tg.attr == a
                   and (owner is None or tg.owner == owner))

    def layer(lay):
        return sel(lambda tg: tg.layer == lay)

    def share(mask):
        n = int(mask.sum())
        return float(value[mask].sum()) / n if n else 0.0

    safe, poll = fam("safe"), fam("poll")
    coords = fam("coords")
    return {
        "simmpi.send_calls": float(attr("send", "Comm").sum()),
        "simmpi.recv_calls": float(attr("recv", "Comm").sum()),
        "simmpi.recv_wall_s": float(dur[fam("recv") & top].sum()),
        "simmpi.collective_wall_s":
            float(dur[fam("collective") & top].sum()),
        "simmpi.sleeps": float(fam("sleep").sum()),
        "simmpi.safety_bumps": float(fam("bump").sum()),
        "simmpi.safe_checks": float(safe.sum()),
        "simmpi.safe_useful": share(safe),
        "simmpi.self_cpu_s": float(self_cpu[layer("simmpi")].sum()),
        "lowfive.polls": float(poll.sum()),
        "lowfive.poll_useful": share(poll),
        "lowfive.serve_wall_s": float(dur[fam("serve") & top].sum()),
        "lowfive.rpc_calls": float(fam("rpc").sum()),
        "lowfive.rpc_wall_s": float(dur[fam("rpc") & top].sum()),
        "lowfive.read_wall_s": float(dur[fam("read") & top].sum()),
        "lowfive.close_wall_s": float(dur[fam("close") & top].sum()),
        "lowfive.self_cpu_s": float(self_cpu[layer("lowfive")].sum()),
        "h5.coords_calls": float(coords.sum()),
        "h5.coords_elems": float(value[coords].sum()),
        "h5.selection_self_cpu_s": float(self_cpu[sel(
            lambda tg: tg.module == "repro.h5.selection")].sum()),
        "h5.copy_bytes": float(value[fam("copy") & top].sum()),
        "h5.native_write_wall_s": float(dur[fam("nwrite") & top].sum()),
        "h5.native_read_wall_s": float(dur[fam("nread") & top].sum()),
        "h5.native_close_wall_s": float(dur[fam("nclose") & top].sum()),
        "h5.self_cpu_s": float(self_cpu[layer("h5")].sum()),
        "pfs.write_bytes": float(value[attr("pwrite")].sum()),
        "pfs.read_bytes": float(value[attr("pread")].sum()),
        "pfs.io_wall_s": float(dur[fam("io") & top].sum()),
        "stream.publish_wall_s": float(dur[fam("publish") & top].sum()),
        "stream.acquire_wall_s": float(dur[fam("acquire") & top].sum()),
        "diy.intersect_calls": float(fam("intersect").sum()),
        "diy.self_cpu_s": float(self_cpu[layer("diy")].sum()),
    }

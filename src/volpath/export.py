"""Serialization: pathway JSON, DOT snapshots, CSV tables, baseline stats.

A pathway file stores its activation matrix as n_steps plus, per vertex in
vertex order, the sorted, disjoint, non-adjacent [start, end) step ranges in
which the vertex is active, so each matrix has exactly one encoding.  A
baselines file stores each QOI's member count, and its per-step mean and
per-step Welford m2 each as the base64 of zlib's level-6 deflate of the eight
byte planes of the differences between consecutive float64 bit patterns,
which read back bit for bit and have one canonical encoding.  Only
this module knows the formats, and each has one reader, which checks every
field before it builds anything.  Every writer goes through an atomic
write-then-rename so no partial file is left behind on an error path.
"""

from __future__ import annotations

import base64
import json
import os
import re
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, allocating, checked, read_input, shown
from .harness import BenchRow, SummaryRow
from .pathway import BaseDag, PathwayDag, materialize_dag, step_at_day
from .stats import BaselineStats


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _intervals(activation: np.ndarray) -> list[list[list[int]]]:
    """Each column's [start, end) runs of True, as one list per column."""
    steps, r = activation.shape
    padded = np.zeros((steps + 2, r), dtype=np.int8)
    padded[1:-1] = activation
    # per column, in step order, the nonzero differences alternate rise, fall
    column, step = np.nonzero(np.diff(padded, axis=0).T)
    bounds = step.reshape(-1, 2)
    first = np.searchsorted(column[::2], np.arange(r + 1))
    return [bounds[first[l]:first[l + 1]].tolist() for l in range(r)]


def pathway_to_dict(pathway: PathwayDag, manifest_digest: str) -> dict:
    return {
        "vertices": list(pathway.base.vertices),
        "edges": [list(e) for e in pathway.base.edges],
        "dt_days": pathway.dt,
        "n_steps": pathway.n_steps,
        "intervals": _intervals(pathway.activation),
        "config_digest": manifest_digest,
    }


def _activation_from_intervals(base: BaseDag, n_steps, intervals) -> np.ndarray:
    """(n_steps + 1, r) taus from each vertex's sorted, disjoint, non-adjacent runs."""
    if type(n_steps) is not int or n_steps < 0:
        raise ConfigurationError(
            f"pathway: 'n_steps' must be an integer >= 0, got {shown(n_steps)}"
        )
    if not isinstance(intervals, list) or len(intervals) != base.r:
        raise ConfigurationError(
            f"pathway: 'intervals' must hold {base.r} lists, one per vertex"
        )
    with allocating(f"pathway: 'n_steps' {n_steps} is too large to hold"):
        activation = np.zeros((n_steps + 1, base.r), dtype=bool)
    for l, (v, runs) in enumerate(zip(base.vertices, intervals)):
        where = f"pathway: 'intervals' of vertex {shown(v)}"
        if not isinstance(runs, list) or not all(
            isinstance(run, list) and len(run) == 2 and all(type(x) is int for x in run)
            for run in runs
        ):
            raise ConfigurationError(f"{where} must be a list of [start, end] integer pairs")
        previous_end = -1
        for start, end in runs:
            if start < 0:
                raise ConfigurationError(f"{where}: [{start}, {end}] starts before step 0")
            if end > n_steps + 1:
                raise ConfigurationError(
                    f"{where}: [{start}, {end}] ends after n_steps + 1 = {n_steps + 1}"
                )
            if start >= end:
                raise ConfigurationError(f"{where}: [{start}, {end}] is empty")
            if start <= previous_end:
                raise ConfigurationError(
                    f"{where}: [{start}, {end}] does not start after the previous "
                    f"interval's end {previous_end}"
                )
            activation[start:end, l] = True
            previous_end = end
    return activation


def pathway_from_dict(doc: dict) -> PathwayDag:
    """A pathway from its JSON form; a malformed field raises naming the field."""
    if not isinstance(doc, dict):
        raise ConfigurationError("pathway file must hold a mapping")
    for key in ("vertices", "edges", "dt_days", "intervals", "n_steps"):
        if key not in doc:
            # files written before the interval form hold 'activation' rows instead
            legacy = key == "intervals" and "activation" in doc
            note = "; the 'activation' row form is no longer read" if legacy else ""
            raise ConfigurationError(f"pathway: missing field {key!r}{note}")
    vertices, edges = doc["vertices"], doc["edges"]
    # export_dot writes each id between double quotes, which '"' or a trailing backslash would end
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) and '"' not in v and "\\" not in v for v in vertices
    ):
        raise ConfigurationError(
            "pathway: 'vertices' must be a list of QOI ids without '\"' or '\\'"
        )
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in edges
    ):
        raise ConfigurationError("pathway: 'edges' must be a list of [from, to] vertex pairs")
    edges = tuple((a, b) for a, b in edges)
    base = checked("pathway: 'vertices' and 'edges'", BaseDag, tuple(vertices), edges)
    dt = doc["dt_days"]
    # kept as written, so the file writes back byte for byte; past the float range fails the bound
    if type(dt) not in (int, float) or not 0 < dt <= sys.float_info.max:
        raise ConfigurationError(f"pathway: 'dt_days' must be a positive number, got {shown(dt)}")
    activation = _activation_from_intervals(base, doc["n_steps"], doc["intervals"])
    return PathwayDag(base=base, activation=activation, dt=dt)


def write_pathway_json(path: str | Path, pathway: PathwayDag, manifest_digest: str) -> None:
    doc = pathway_to_dict(pathway, manifest_digest)
    atomic_write_text(path, json.dumps(doc, separators=(",", ":")))


def read_pathway_json(path: str | Path) -> PathwayDag:
    return pathway_from_dict(read_input(path, "pathway", json.loads, json.JSONDecodeError))


def export_dot(pathway: PathwayDag, day: float, active_only: bool = False) -> str:
    """DOT snapshot at a simulation day: active nodes orange, inactive gray.

    Base edges outside E_m render dashed gray unless active_only is set.
    """
    m = step_at_day(day, pathway.dt, pathway.n_steps)
    v_m, e_m = materialize_dag(pathway, m)
    active = set(v_m)
    active_edges = set(e_m)
    # an unquoted DOT ID holds only word characters: '.', '-' and '+' become '_'
    graph_id = re.sub(r"\W", "_", f"pathway_day_{day:g}")
    lines = [f"digraph {graph_id} {{"]
    lines.append("  rankdir=LR;")
    for v in pathway.base.vertices:
        if v in active:
            lines.append(f'  "{v}" [style=filled, fillcolor=orange];')
        elif not active_only:
            lines.append(f'  "{v}" [style=filled, fillcolor=gray];')
    for a, b in pathway.base.edges:
        if (a, b) in active_edges:
            lines.append(f'  "{a}" -> "{b}";')
        elif not active_only:
            lines.append(f'  "{a}" -> "{b}" [style=dashed, color=gray];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def series_csv_text(series: dict[str, np.ndarray], dt: float) -> str:
    ids = list(series)
    n = len(next(iter(series.values())))
    lines = ["step,time_days," + ",".join(ids)]
    for m in range(n):
        vals = ",".join(_fmt(series[q][m]) for q in ids)
        lines.append(f"{m},{_fmt(m * dt)},{vals}")
    return "\n".join(lines) + "\n"


def write_series_csv(path: str | Path, series: dict[str, np.ndarray], dt: float) -> None:
    atomic_write_text(path, series_csv_text(series, dt))


def summary_csv_text(rows: list[SummaryRow]) -> str:
    lines = [
        "mass_tg,experiment,qoi_id,n_members,mean_first_days,se_first_days,"
        "mean_total_days,se_total_days"
    ]
    for r in rows:
        lines.append(
            f"{_fmt(r.mass)},{r.experiment},{r.qoi_id},{r.n_members},"
            f"{_fmt(r.mean_first)},{_fmt(r.se_first)},{_fmt(r.mean_total)},{_fmt(r.se_total)}"
        )
    return "\n".join(lines) + "\n"


def write_summary_csv(path: str | Path, rows: list[SummaryRow]) -> None:
    atomic_write_text(path, summary_csv_text(rows))


def bench_csv_text(rows: list[BenchRow]) -> str:
    """The timings in one fixed width, so the file's size does not vary with them."""
    lines = ["qoi_count,baseline_s_per_step,tracked_s_per_step,ratio"]
    for r in rows:
        lines.append(
            f"{r.qoi_count},{r.baseline_s_per_step:.6e},{r.tracked_s_per_step:.6e},{r.ratio:.6e}"
        )
    return "\n".join(lines) + "\n"


def write_bench_csv(path: str | Path, rows: list[BenchRow]) -> None:
    atomic_write_text(path, bench_csv_text(rows))


def _packed(values: np.ndarray) -> str:
    """The base64 of the deflated byte planes, least significant first, of the differences
    between consecutive little-endian float64 bit patterns, which wrap modulo 2**64."""
    deltas = np.diff(np.ascontiguousarray(values, "<f8").view("<u8"), prepend=np.uint64(0))
    planes = deltas.view(np.uint8).reshape(-1, 8).T.tobytes()
    return base64.b64encode(zlib.compress(planes, 6)).decode()


def baselines_to_dict(baselines: dict[str, BaselineStats]) -> dict:
    return {
        qid: {"n_members": b.n, "mean": _packed(b.mean), "m2": _packed(b.m2)}
        for qid, b in baselines.items()
    }


def _baseline_entry(qid: str, entry) -> BaselineStats:
    """One QOI's stats from a baselines file; a malformed field raises naming QOI and field."""
    where = f"baseline {shown(qid)}"
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{where}: entry must be a mapping")
    for key in ("n_members", "mean", "m2"):
        if key not in entry:
            # files written before m2 was stored carry the std instead
            legacy = key == "m2" and "std" in entry
            note = "; the 'std' form is no longer read" if legacy else ""
            raise ConfigurationError(f"{where}: missing field {key!r}{note}")
    n = entry["n_members"]
    if type(n) is not int or n < 0:
        raise ConfigurationError(f"{where}: 'n_members' must be an integer >= 0")
    arrays = {}
    for key in ("mean", "m2"):
        text = entry[key]
        try:
            raw = base64.b64decode(text)
        except (TypeError, ValueError):  # not a string, or not base64
            raw = b""
        with allocating(f"{where}: {key!r} inflates past memory"):
            try:
                planes = zlib.decompress(raw)
            except zlib.error:  # not a zlib stream, or cut short
                planes = b""
        if not planes or len(planes) % 8 or base64.b64encode(raw).decode() != text:
            # files written before the packed form hold a list of decimal numbers, and those
            # before the deflated form hold whole '<f8' values, which no zlib header 'x' starts
            note = "; the list form is no longer read" if isinstance(text, list) else ""
            if raw and not planes and len(raw) % 8 == 0 and raw[:1] != b"x":
                note = "; the uncompressed packed form is no longer read"
            raise ConfigurationError(f"{where}: {key!r} must be the canonical base64 of the "
                                     f"deflated byte planes of a non-empty '<f8' array{note}")
        deltas = np.frombuffer(planes, np.uint8).reshape(8, -1).T.copy().view("<u8")[:, 0]
        values = np.cumsum(deltas, dtype="<u8").view("<f8")
        # only the canonical encoding, so that every file writes back byte for byte
        if _packed(values) != text:
            raise ConfigurationError(
                f"{where}: {key!r} is not the stream zlib {zlib.ZLIB_RUNTIME_VERSION} writes; "
                "`volpath baseline` rewrites the file"
            )
        if not (np.isfinite(values).all() and (key == "mean" or (values >= 0).all())):
            bound = "" if key == "mean" else " >= 0"
            raise ConfigurationError(f"{where}: {key!r} must hold finite numbers{bound}")
        arrays[key] = values
    if arrays["mean"].size != arrays["m2"].size:
        raise ConfigurationError(
            f"{where}: 'mean' has {arrays['mean'].size} steps, 'm2' has {arrays['m2'].size}"
        )
    return BaselineStats.from_arrays(qid, n, **arrays)


def baselines_from_dict(doc: dict) -> dict[str, BaselineStats]:
    if not isinstance(doc, dict):
        raise ConfigurationError("baselines file must hold a mapping of QOI ids to entries")
    return {qid: _baseline_entry(qid, entry) for qid, entry in doc.items()}


def write_baselines_json(path: str | Path, baselines: dict[str, BaselineStats]) -> None:
    atomic_write_text(path, json.dumps(baselines_to_dict(baselines)))


def read_baselines_json(path: str | Path) -> dict[str, BaselineStats]:
    return baselines_from_dict(read_input(path, "baseline", json.loads, json.JSONDecodeError))


def write_manifest_json(path: str | Path, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=1, sort_keys=True))

"""In-memory span tracer wrapped around fasrelay's public functions from
outside the package, and the per-layer metrics computed from its spans.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent). A function is replaced in every fasrelay
module that holds it, because several modules import functions by name
(``trajectory_geometry`` is looked up through both ``blercore`` and
``mcoracle``). A function that no longer exists is skipped, so its counters
read 0 and its time shows up as its caller's self time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# layer -> public functions traced in that layer ("Class.method" for methods).
TARGETS = {
    "cli": ("parse_config", "run"),
    "optimizer": ("global_optimize", "best_altitude", "best_port_count",
                  "min_power"),
    "blercore": ("linearize", "error_floor", "trajectory_avg_bler",
                 "avg_bler_hop1", "avg_bler_hop2", "avg_bler_hop2_asymptotic",
                 "TrajectoryEvaluator.__init__",
                 "TrajectoryEvaluator.hop2_components",
                 "TrajectoryEvaluator.e2e_avg"),
    "chanmodel": ("fas_spectrum", "eigen_spectrum", "jakes_matrix",
                  "cdf_hop1", "cdf_hop2"),
    "geometry": ("trajectory_geometry", "link_state", "slant_ranges"),
    "numerics": ("gamma_lower_cdf", "gamma_lower_cdf_vec", "jacobi_eigh",
                 "bessel_j0", "q_func", "q_func_inv", "adaptive_quad"),
    "mcoracle": ("mc_average_bler", "simulate_batch", "substreams",
                 "sample_hop1_gain", "sample_fas_gain_model",
                 "sample_fas_gain_physical"),
}
LAYERS = tuple(TARGETS)

# Work counted from a call's arguments, per span: input size of the gamma
# CDFs, angles of a trajectory geometry.
_SIZE_OF = {
    "numerics.gamma_lower_cdf": lambda a, k: int(np.size(a[0] if a else k["z"])),
    "numerics.gamma_lower_cdf_vec": lambda a, k: int(np.size(a[0] if a else k["z"])),
    "geometry.trajectory_geometry": lambda a, k: int(np.size(a[1] if len(a) > 1 else k["theta"])),
}
# Calls whose arguments and results are kept for counting: port-search
# entries, Monte Carlo trials.
_KEEP_RESULT = ("optimizer.best_port_count", "mcoracle.mc_average_bler")

# Exact work counts: they must repeat across traced runs of one seed.
EXACT_COUNTS = ("numerics.gamma_cdf_elems", "blercore.e2e_avg_calls",
                "blercore.evaluator_builds", "geometry.traj_points",
                "mcoracle.trials")


class Tracer:
    """Records spans around wrapped calls; single-threaded by design (the
    study runs without --threads), so one stack of open spans suffices."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.results: dict[str, list] = {n: [] for n in _KEEP_RESULT}
        self.originals: dict[str, object] = {}
        self._stack = [-1]

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        size_of = _SIZE_OF.get(span_name)
        keep = self.results.get(span_name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.size.append(size_of(args, kwargs) if size_of else 0)
            self.end.append(0.0)
            stack.append(idx)
            start = clock()
            self.start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if keep is not None:
                keep.append((args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every target found in the loaded fasrelay modules."""
        import fasrelay  # noqa: F401  (loads every submodule)
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "fasrelay" or n.startswith("fasrelay."))]
        for layer, attrs in TARGETS.items():
            home = sys.modules.get(f"fasrelay.{layer}")
            if home is None:
                continue
            for attr in attrs:
                span_name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = cls.__dict__.get(meth) if cls is not None else None
                    if orig is None:
                        continue
                    self.originals[span_name] = orig
                    setattr(cls, meth, self._wrap(span_name, orig))
                    continue
                orig = getattr(home, attr, None)
                if orig is None:
                    continue
                self.originals[span_name] = orig
                wrapped = self._wrap(span_name, orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def spans(self):
        """Span arrays: name index, parent index, duration, self time, size."""
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        size = np.asarray(self.size, dtype=np.int64)
        return name, parent, dur, dur - child, size


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, study_s: float) -> dict:
    """Per-layer counts and times from one traced study (cli.run wall time
    ``study_s``); times in seconds unless the name says otherwise."""
    name, parent, dur, self_t, size = tracer.spans()
    layer_of_id = np.array([n.split(".", 1)[0] for n in tracer.names] + [""],
                           dtype=object)
    layer_of = layer_of_id[name]

    def ids(*wanted):
        return [i for i, n in enumerate(tracer.names) if n in wanted]

    def sel(*wanted):
        return np.isin(name, ids(*wanted))

    def under(mask, ancestor):
        # spans in mask that have an ancestor named `ancestor`
        anc = set(ids(ancestor))
        out = np.zeros(mask.size, dtype=bool)
        for i in np.flatnonzero(mask):
            p = parent[i]
            while p >= 0:
                if name[p] in anc:
                    out[i] = True
                    break
                p = parent[p]
        return out

    m: dict[str, float] = {}
    parse = sel("cli.parse_config")
    in_run = ~parse
    m["cli.parse_s"] = float(dur[parse].sum())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(self_t[in_run & (layer_of == layer)].sum())

    run_total = float(dur[sel("cli.run")].sum())
    m["trace.study_s"] = study_s
    m["trace.unattributed_s"] = study_s - run_total

    searches = sel("optimizer.best_port_count")
    m["optimizer.port_searches"] = float(searches.sum())
    m["optimizer.port_search_s_p50"] = _pct(dur[searches], 50)
    solves = feasible = 0
    for args, kwargs, res in tracer.results["optimizer.best_port_count"]:
        fbl = args[1] if len(args) > 1 else kwargs["fbl"]
        ee = args[2] if len(args) > 2 else kwargs["ee"]
        for entry in res.entries:
            # port counts whose scan outlasts the block never reach a solve
            solves += not _violates_causality(entry.n_ports, ee, fbl)
            feasible += entry.feasible
    m["optimizer.power_solves"] = float(solves)
    e2e = sel("blercore.TrajectoryEvaluator.e2e_avg")
    e2e_in_search = under(e2e, "optimizer.best_port_count")
    m["optimizer.evals_per_solve"] = float(e2e_in_search.sum()) / solves if solves else 0.0
    m["optimizer.feasible_ratio"] = feasible / solves if solves else 0.0

    m["blercore.e2e_avg_calls"] = float(e2e.sum())
    m["blercore.e2e_avg_us_p50"] = _pct(dur[e2e], 50) * 1e6
    m["blercore.e2e_avg_us_p99"] = _pct(dur[e2e], 99) * 1e6
    hop2 = sel("blercore.TrajectoryEvaluator.hop2_components", "blercore.avg_bler_hop2")
    m["blercore.hop2_calls"] = float(hop2.sum())
    m["blercore.hop2_self_s"] = float(self_t[hop2].sum())
    builds = sel("blercore.TrajectoryEvaluator.__init__")
    m["blercore.evaluator_builds"] = float(builds.sum())
    m["blercore.evaluator_build_s"] = float(dur[builds].sum())
    asym = sel("blercore.avg_bler_hop2_asymptotic")
    m["blercore.asymptote_calls"] = float(asym.sum())
    m["blercore.asymptote_s"] = float(dur[asym].sum())

    spec = sel("chanmodel.fas_spectrum")
    m["chanmodel.spectrum_calls"] = float(spec.sum())
    cached = tracer.originals.get("chanmodel.fas_spectrum")
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    lookups = (info.hits + info.misses) if info else 0
    # without a cache every call is a miss
    m["chanmodel.spectrum_miss_ratio"] = (info.misses / lookups if lookups
                                          else float(spec.sum() > 0))
    m["chanmodel.eigen_s"] = float(dur[sel("chanmodel.eigen_spectrum")].sum())

    traj = sel("geometry.trajectory_geometry")
    m["geometry.traj_calls"] = float(traj.sum())
    m["geometry.traj_points"] = float(size[traj].sum())
    m["geometry.traj_s"] = float(dur[traj].sum())

    gamma = sel("numerics.gamma_lower_cdf", "numerics.gamma_lower_cdf_vec")
    m["numerics.gamma_cdf_calls"] = float(gamma.sum())
    elems = float(size[gamma].sum())
    m["numerics.gamma_cdf_elems"] = elems
    m["numerics.gamma_cdf_s"] = float(dur[gamma].sum())
    m["numerics.gamma_cdf_ns_per_elem"] = m["numerics.gamma_cdf_s"] / elems * 1e9 if elems else 0.0
    eigh = sel("numerics.jacobi_eigh")
    m["numerics.eigh_calls"] = float(eigh.sum())
    m["numerics.eigh_s"] = float(dur[eigh].sum())

    mc = sel("mcoracle.mc_average_bler")
    batches = sel("mcoracle.simulate_batch")
    trials = float(sum(res.trials for _, _, res in
                       tracer.results["mcoracle.mc_average_bler"]))
    mc_s = float(dur[mc].sum())
    m["mcoracle.trials"] = trials
    m["mcoracle.trials_per_s"] = trials / mc_s if mc_s > 0 else 0.0
    m["mcoracle.batch_s_p50"] = _pct(dur[batches], 50)
    m["mcoracle.sampler_s"] = float(dur[sel("mcoracle.sample_hop1_gain",
                                             "mcoracle.sample_fas_gain_model",
                                             "mcoracle.sample_fas_gain_physical")].sum())
    return {k: (v if math.isfinite(v) else 0.0) for k, v in m.items()}


def _violates_causality(n_ports: int, ee, fbl) -> bool:
    from fasrelay import optimizer
    return optimizer.violates_causality(n_ports, ee.port_time, fbl.blocklength,
                                        ee.bandwidth)

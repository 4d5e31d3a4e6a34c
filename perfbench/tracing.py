"""Span recorder for the traced run, and its per-layer aggregation.

The recorder wraps public functions of the library at the names their
callers look up, records one span per call (name, start, end, parent,
operation id) in flat arrays, and restores the originals on exit.  Spans
stay in memory until :func:`write_spans` stores them when the run ends.
"""
from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "physics",
    "fluctuation",
    "decoy",
    "security",
    "keyrate",
    "sweep",
    "scenario",
    "montecarlo",
    "cli",
)

#: Layer charged with the self time of the harness's per-operation span:
#: the code that runs there is ``sweep_distance``/``max_distance`` or the
#: direct call into the Monte Carlo layer.
OP_LAYER = {
    "sweep": "sweep",
    "maxdist": "sweep",
    "point": "sweep",
    "session": "montecarlo",
    "coverage": "montecarlo",
}
#: Operations that run the analytic chain.
ANALYTIC_OPS = ("sweep", "maxdist", "point")


#: Per-layer metrics and their units; ``<layer>.self_s`` are added below.
UNITS = {
    "cli.import_s": "s",
    "scenario.numpy_on_cli_import": "flag",
    "scenario.parse_config.ms_per_call": "ms",
    "scenario.pinned_table_loads": "count",
    "physics.postselection.calls": "count",
    "physics.postselection.us_per_call": "us",
    "fluctuation.interval.us_per_call": "us",
    "fluctuation.chernoff_applicable.calls_per_interval": "ratio",
    "decoy.attach_fluctuation.us_per_call": "us",
    "decoy.estimate_bounds.us_per_call": "us",
    "decoy.no_key_share": "ratio",
    "keyrate.finite_key_terms.calls_per_point": "ratio",
    "sweep.run_point.calls": "count",
    "sweep.run_point.self_us_per_call": "us",
    "security.quantities.calls": "count",
    "security.table.us_per_call": "us",
    "security.gaussian.us_per_call": "us",
    "sweep.max_distance.points_per_search": "ratio",
    "sweep.format_rows.us_per_row": "us",
    "montecarlo.frames_simulated": "count",
    "montecarlo.simulate_session.self_s": "s",
    "montecarlo.sessions_per_trial": "ratio",
    "montecarlo.coverage.self_s": "s",
    "trace.run_point.accounted_share": "ratio",
    "trace.overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Recorder:
    """Spans of one process, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_op(self, kind: str) -> None:
        self.op_kinds.append(kind)

    def open_span(self) -> str | None:
        """Name of the innermost open span, if any."""
        index = self._stack[-1]
        return self.names[self.name[index]] if index >= 0 else None

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.op.append(len(self.op_kinds) - 1)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        index = self._open(self.name_id(name))
        self.start[index] = perf_counter()
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None, enter=None):
        """Return ``fn`` recording a span per call.

        ``enter(args, kwargs)`` runs before the span opens and ``note(args,
        kwargs, result)`` after it closes, to record counts at the boundary.
        """
        name_id = self.name_id(name)
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            index = self._open(name_id)
            start[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }


@contextmanager
def patched(targets):
    """Replace ``(owner, attribute, replacement)`` triples, restoring on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def library_targets(rec: Recorder, hdqkd) -> list[tuple[object, str, object]]:
    """Wrappers for the analytic chain and the Monte Carlo layer."""
    physics, fluctuation, sweep = hdqkd.physics, hdqkd.fluctuation, hdqkd.sweep
    keyrate, security, montecarlo = hdqkd.keyrate, hdqkd.security, hdqkd.montecarlo
    targets = []
    for fn_name in physics.__all__:
        fn = getattr(physics, fn_name)
        if callable(fn) and not isinstance(fn, type):
            targets.append((physics, fn_name, rec.wrap(f"physics.{fn_name}", fn)))

    def note_interval(args, kwargs, result):
        if _arg(args, kwargs, 5, "method") == "chernoff":
            rec.count(f"interval.chernoff.{rec.op_kinds[-1]}")

    def note_bounds(args, kwargs, result):
        rec.count("estimate_bounds.no_key", float(result.no_key))

    def note_rows(args, kwargs, result):
        rec.count("format_rows.rows", float(len(args[0])))

    def note_session(args, kwargs, result):
        rec.count("frames", float(args[0].n_pulses))

    def note_coverage(args, kwargs, result):
        rec.count("coverage.trials", float(_arg(args, kwargs, 3, "trials")))

    def enter_session(args, kwargs):
        # A session started by coverage_experiment is one trial.
        if rec.open_span() == "montecarlo.coverage_experiment":
            rec.new_op("trial")

    specs = [
        (fluctuation, "interval", "fluctuation.interval", note_interval, None),
        (fluctuation, "chernoff_applicable", "fluctuation.chernoff_applicable", None, None),
        (sweep, "run_point", "sweep.run_point", None, None),
        (sweep, "attach_fluctuation", "decoy.attach_fluctuation", None, None),
        (sweep, "estimate_bounds", "decoy.estimate_bounds", note_bounds, None),
        (sweep, "secure_key_capacity", "keyrate.secure_key_capacity", None, None),
        (sweep, "format_rows", "sweep.format_rows", note_rows, None),
        (security.TableSecurityModel, "quantities", "security.table.quantities", None, None),
        (security.GaussianSecurityModel, "quantities", "security.gaussian.quantities", None, None),
        (montecarlo, "simulate_session", "montecarlo.simulate_session", note_session, enter_session),
        (montecarlo, "coverage_experiment", "montecarlo.coverage_experiment", note_coverage, None),
    ]
    targets += [
        (owner, attr, rec.wrap(name, getattr(owner, attr), note, enter))
        for owner, attr, name, note, enter in specs
    ]
    # One function, looked up under two names.
    fkt = rec.wrap("keyrate.finite_key_terms", keyrate.finite_key_terms)
    return targets + [(sweep, "finite_key_terms", fkt), (keyrate, "finite_key_terms", fkt)]


def setup_targets(rec: Recorder, hdqkd) -> list[tuple[object, str, object]]:
    """Wrappers for configuration parsing and the pinned-table load."""
    scenario, security = hdqkd.scenario, hdqkd.security
    load = rec.wrap("security.load_pinned_table", security.load_pinned_table)
    return [
        (scenario, "parse_config", rec.wrap("scenario.parse_config", scenario.parse_config)),
        (scenario, "load_pinned_table", load),
        (security, "load_pinned_table", load),
    ]


def self_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time of every span.

    Self time is the duration minus the time the span's children cover;
    children of one span never overlap, since calls nest on one thread.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - covered


def layer_of(name: str) -> str:
    head, _, tail = name.partition(".")
    return OP_LAYER[tail] if head == "op" else head


def per_name(rec: Recorder) -> dict[str, dict[str, float]]:
    """Calls, total duration and total self time per span name."""
    spans = rec.arrays()
    dur, self_t = self_times(spans)
    ids = spans["name"]
    size = len(rec.names)
    calls = np.bincount(ids, minlength=size)
    total = np.bincount(ids, weights=dur, minlength=size)
    own = np.bincount(ids, weights=self_t, minlength=size)
    return {
        name: {"calls": float(calls[i]), "dur": float(total[i]), "self": float(own[i])}
        for i, name in enumerate(rec.names)
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(rec: Recorder, rounds: int) -> dict[str, float]:
    """Per-layer metrics of ``rounds`` identical traced rounds.

    Counts are per round; ``us_per_call`` figures are mean span durations.
    """
    spans = rec.arrays()
    dur, self_t = self_times(spans)
    parent = spans["parent"]
    has_parent = parent >= 0
    parent_or_self = np.where(has_parent, parent, np.arange(len(parent)))
    name = spans["name"]
    parent_name = np.where(has_parent, name[parent_or_self], -1)
    stats = per_name(rec)

    def is_(span_name: str, ids=name) -> np.ndarray:
        return ids == rec.names.index(span_name) if span_name in rec.names else ids < -1

    def stat(span_name: str, field: str) -> float:
        return stats.get(span_name, {}).get(field, 0.0)

    def us_per_call(span_name: str) -> float:
        return _ratio(1e6 * stat(span_name, "dur"), stat(span_name, "calls"))

    closed = "physics.postselection_prob_closed"
    table, gaussian = "security.table.quantities", "security.gaussian.quantities"
    out = {
        "physics.postselection.calls": stat(closed, "calls") / rounds,
        "physics.postselection.us_per_call": us_per_call(closed),
        "fluctuation.interval.us_per_call": us_per_call("fluctuation.interval"),
        "decoy.attach_fluctuation.us_per_call": us_per_call("decoy.attach_fluctuation"),
        "decoy.estimate_bounds.us_per_call": us_per_call("decoy.estimate_bounds"),
        "decoy.no_key_share": _ratio(
            rec.counts.get("estimate_bounds.no_key", 0.0), stat("decoy.estimate_bounds", "calls")
        ),
        "sweep.run_point.calls": stat("sweep.run_point", "calls") / rounds,
        "sweep.run_point.self_us_per_call": _ratio(
            1e6 * stat("sweep.run_point", "self"), stat("sweep.run_point", "calls")
        ),
        "security.quantities.calls": (stat(table, "calls") + stat(gaussian, "calls")) / rounds,
        "security.table.us_per_call": us_per_call(table),
        "security.gaussian.us_per_call": us_per_call(gaussian),
        "sweep.format_rows.us_per_row": _ratio(
            1e6 * stat("sweep.format_rows", "dur"), rec.counts.get("format_rows.rows", 0.0)
        ),
        "montecarlo.frames_simulated": rec.counts.get("frames", 0.0) / rounds,
    }

    # finite_key_terms runs directly under run_point, and again under
    # secure_key_capacity on keyed points; credit each call to its point.
    is_point = is_("sweep.run_point")
    under_skc = is_("keyrate.secure_key_capacity", parent_name)
    point_of = np.where(under_skc, parent[parent_or_self], parent)
    keyed = np.zeros(len(dur), dtype=bool)
    keyed[parent[is_("keyrate.secure_key_capacity")]] = True
    fkt_points = point_of[is_("keyrate.finite_key_terms") & (point_of >= 0)]
    out["keyrate.finite_key_terms.calls_per_point"] = _ratio(
        float(np.count_nonzero(keyed[fkt_points])), float(np.count_nonzero(keyed & is_point))
    )

    op_kind = np.array(rec.op_kinds + ["<none>"])[spans["op"]]
    searches = rec.op_kinds.count("maxdist")
    out["sweep.max_distance.points_per_search"] = _ratio(
        float(np.count_nonzero(is_point & (op_kind == "maxdist"))), float(searches)
    )
    # The analytic path checks the multiplicative bound in run_point and
    # again inside interval; the Monte Carlo path only inside interval.
    analytic = np.isin(op_kind, ANALYTIC_OPS)
    out["fluctuation.chernoff_applicable.calls_per_interval"] = _ratio(
        float(np.count_nonzero(is_("fluctuation.chernoff_applicable") & analytic)),
        sum(rec.counts.get(f"interval.chernoff.{kind}", 0.0) for kind in ANALYTIC_OPS),
    )

    is_session = is_("montecarlo.simulate_session")
    is_coverage = is_("montecarlo.coverage_experiment")
    trial_sessions = is_session & is_("montecarlo.coverage_experiment", parent_name)
    out["montecarlo.simulate_session.self_s"] = float(self_t[is_session].sum()) / rounds
    out["montecarlo.sessions_per_trial"] = _ratio(
        float(np.count_nonzero(trial_sessions)), rec.counts.get("coverage.trials", 0.0)
    )
    # Coverage time outside frame sampling: interval construction and the
    # per-trial bookkeeping.
    out["montecarlo.coverage.self_s"] = (
        float(dur[is_coverage].sum()) - float(dur[trial_sessions].sum())
    ) / rounds

    # Self time of run_point spans and all their descendants, against the
    # run_point durations: 1 when the spans account for all the time.
    inside = is_point.copy()
    while True:
        grown = inside | (has_parent & inside[parent_or_self])
        if np.array_equal(grown, inside):
            break
        inside = grown
    out["trace.run_point.accounted_share"] = _ratio(
        float(self_t[inside].sum()), float(dur[is_point].sum())
    )

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v["self"] for span_name, v in stats.items() if layer_of(span_name) == layer)
            / rounds
        )
    return out


def write_spans(rec: Recorder, path: str) -> None:
    """Store every span of the run as compressed arrays."""
    spans = rec.arrays()
    np.savez_compressed(
        path,
        names=np.array(rec.names),
        op_kinds=np.array(rec.op_kinds),
        **spans,
    )

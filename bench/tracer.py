"""Span tracer for the benchmark's traced pass.

The library itself carries no tracing.  ``Tracer.install`` replaces the
library's layer-boundary functions (listed in ``TARGETS``) with wrappers that
record one span per call while ``Tracer.active`` is set: name, start, end,
the enclosing span and the benchmark op that caused it.  Spans are kept in
flat arrays in memory and written out by ``Tracer.dump`` when the run ends.

A span's self time is its duration minus the time its child spans cover.
Every wrapped function belongs to exactly one layer group, so the groups'
self times plus the time outside any span add up to the traced wall time.

Small helpers that run once per table cell or per matrix entry
(``textio.agent_name``, ``textio.item_name``, ``welfare.borda_utilities``,
``Profile.rank``) are left unwrapped: a span each would cost more than the
call.  Their time counts towards the calling span.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path) -> layer group.  A group's self time is reported as
# "<group>.self_s".
TARGETS = {
    ("engine", "run_engine"): "engine.run_engine",
    ("engine", "run_gale_shapley"): "engine.run_gale_shapley",
    ("engine", "format_trace_table"): "engine.format_trace_table",
    ("textio", "parse_profile"): "textio",
    ("textio", "format_profile"): "textio",
    ("textio", "format_matching"): "textio",
    ("textio", "format_matrix"): "textio",
    ("textio", "parse_matrix"): "textio",
    ("textio", "format_axiom_report_line"): "textio",
    ("cli", "main"): "cli",
    ("cli", "build_parser"): "cli",
    ("cli", "cmd_run"): "cli",
    ("cli", "cmd_lottery"): "cli",
    ("cli", "cmd_axioms"): "cli",
    ("cli", "cmd_experiment"): "cli",
    ("cli", "cmd_generate"): "cli",
    ("cli", "cmd_compare"): "cli",
    ("registry", "resolve"): "registry.resolve",
    ("welfare", "utilitarian_loss"): "welfare.aggregate",
    ("welfare", "expected_egalitarian"): "welfare.aggregate",
    ("welfare", "order_bias"): "welfare.aggregate",
    ("welfare", "utilitarian_welfare"): "welfare.aggregate",
    ("welfare", "egalitarian_welfare"): "welfare.aggregate",
    ("welfare", "agent_utility"): "welfare.aggregate",
    ("welfare", "optimal_utilitarian"): "welfare.optimal_utilitarian",
    ("sampling", "ProfileSampler.sample"): "sampling",
    ("sampling", "ProfileSampler.sample_order"): "sampling",
    ("sampling", "all_profiles"): "sampling",
    ("sampling", "all_orders"): "sampling",
    ("lottery", "exact_lottery"): "lottery.exact_lottery",
    ("mechanisms", "top_trading_cycles"): "mechanisms.top_trading_cycles",
    ("mechanisms", "probabilistic_serial"): "mechanisms.probabilistic_serial",
    ("mechanisms", "serial_dictatorship"): "mechanisms.classic",
    ("mechanisms", "naive_boston_one_sided"): "mechanisms.classic",
    ("model", "Profile.__post_init__"): "model.validate",
    ("model", "Matching.__post_init__"): "model.validate",
    ("model", "AgentOrder.__post_init__"): "model.validate",
    ("model", "FractionalAssignment.__post_init__"): "model.validate",
    ("axioms", "sd_dominates"): "axioms",
    ("axioms", "is_pareto_efficient"): "axioms",
    ("axioms", "is_ordinally_efficient"): "axioms",
    ("axioms", "check_strategyproofness"): "axioms",
    ("axioms", "feasible_top_k"): "axioms",
    ("axioms", "satisfies_conditional_bound"): "axioms",
    ("experiments", "run_experiment"): "experiments",
    ("experiments", "parse_config"): "experiments",
    ("experiments", "validate_config"): "experiments",
    ("experiments", "rows_to_csv"): "experiments",
}
GENERATORS = {("sampling", "all_profiles")}
GROUPS = tuple(dict.fromkeys(TARGETS.values()))


def orbit_count(profile) -> int:
    """Distinct outcomes of relabelling identical agents: n! / prod(k_i!)."""
    sizes = Counter(profile.agent_prefs).values()
    return math.factorial(profile.n) // math.prod(math.factorial(k) for k in sizes)


# Counters recorded at the boundary where the work happens: hook(tracer, args, result).
def _engine_hook(t, args, result):
    t.counts["proposals"] += result.proposal_count
    t.counts["events_built"] += len(result.trace)


def _gale_shapley_hook(t, args, result):
    t.counts["events_built"] += len(result.trace)


def _format_hook(t, args, result):
    t.counts["events_formatted"] += len(args[1].trace)


def _optimum_hook(t, args, result):
    t.distinct["optimum_profiles"].add(args[0].agent_prefs)


def _sample_hook(t, args, result):
    t.counts["profiles"] += 1
    t.distinct["sampled_profiles"].add(result.agent_prefs)


def _lottery_hook(t, args, result):
    t.counts["orders_run"] += result.order_count
    t.counts["orbits"] += orbit_count(args[1])


def _ttc_hook(t, args, result):
    t.counts["ttc_changed"] += result != args[1]


HOOKS = {
    ("engine", "run_engine"): _engine_hook,
    ("engine", "run_gale_shapley"): _gale_shapley_hook,
    ("engine", "format_trace_table"): _format_hook,
    ("welfare", "optimal_utilitarian"): _optimum_hook,
    ("sampling", "ProfileSampler.sample"): _sample_hook,
    ("sampling", "all_profiles"): _sample_hook,
    ("lottery", "exact_lottery"): _lottery_hook,
    ("mechanisms", "top_trading_cycles"): _ttc_hook,
}


class Tracer:
    """Records spans of wrapped library calls made while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.group_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: defaultdict = defaultdict(float)  # by name index
        self.calls: Counter = Counter()  # by name index
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _enter(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, children = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_s[nid] += dur - children
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, fn, name: str, group: str, hook, generator: bool):
        nid = len(self.names)
        self.names.append(name)
        self.group_of.append(group)
        tracer = self

        if generator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        item = next(it, StopIteration)
                    else:
                        tracer._enter(nid)
                        try:
                            item = next(it, StopIteration)
                        finally:
                            tracer._exit()
                    if item is StopIteration:
                        return
                    if hook is not None and tracer.active:
                        hook(tracer, args, item)
                    yield item
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every reference the library holds to a target function."""
        replaced = {}
        for (mod_name, path), group in TARGETS.items():
            mod = importlib.import_module(f"propmatch.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, attr)
            wrapper = self._wrap(
                orig, f"{mod_name}.{path}", group,
                HOOKS.get((mod_name, path)), (mod_name, path) in GENERATORS,
            )
            if owner_name:  # a method: patch the class
                self._set(owner, attr, wrapper)
            replaced[id(orig)] = (orig, wrapper)
        # Module globals that imported a target under its own name, and
        # dataclass records holding one directly (the registry's base table).
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "propmatch" and not mod_name.startswith("propmatch."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, key, hit[1])
                elif isinstance(value, dict):
                    for k, rec in list(value.items()):
                        if not dataclasses.is_dataclass(rec) or isinstance(rec, type):
                            continue
                        changes = {}
                        for f in dataclasses.fields(rec):
                            v = getattr(rec, f.name)
                            hit = replaced.get(id(v))
                            if hit is not None and hit[0] is v:
                                changes[f.name] = hit[1]
                        if changes:
                            value[k] = dataclasses.replace(rec, **changes)
                            self._undo.append((value.__setitem__, k, rec))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def group_self_s(self) -> dict:
        out = {g: 0.0 for g in GROUPS}
        for nid, s in self.self_s.items():
            out[self.group_of[nid]] += s
        return out

    def group_calls(self) -> Counter:
        out = Counter()
        for nid, c in self.calls.items():
            out[self.group_of[nid]] += c
        return out

    def name_table(self) -> list:
        """(name, calls, self seconds) for every wrapped function that ran."""
        return sorted(
            ((self.names[nid], self.calls[nid], self.self_s[nid]) for nid in self.calls),
            key=lambda row: -row[2],
        )

    def dump(self, outdir: Path, op_labels: list) -> None:
        """Write the spans: a JSON header plus one flat binary array per field."""
        outdir.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "groups": self.group_of,
            "ops": op_labels,
            "spans": len(self.span_start),
            "arrays": {
                "name": "int32", "parent": "int32", "op": "int32",
                "start": "float64 perf_counter s", "end": "float64 perf_counter s",
            },
        }
        (outdir / "spans.json").write_text(json.dumps(header, indent=1) + "\n")
        for field, arr in (
            ("name", self.span_name), ("parent", self.span_parent), ("op", self.span_op),
            ("start", self.span_start), ("end", self.span_end),
        ):
            with open(outdir / f"{field}.bin", "wb") as fh:
                arr.tofile(fh)
